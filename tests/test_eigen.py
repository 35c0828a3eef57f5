"""Eigenvalue paths: dense exact and randomized Lanczos."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sols.eigen
from sols import lanczos_iteration_cap, lanczos_min_eig, min_eigenpair_exact, suite
from sols.eigen import EigEstimate, _lapack, _ritz_min
from sols.operators import NonFiniteError, norm

from conftest import POWER_OF_TWO_SCALES, bench_hessians, run_python, scaling_systems, wilson_slack


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_symmetric(rng, n: int, scale: float = 1.0) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return scale * 0.5 * (A + A.T)


def shifted_power_min_eig(H: np.ndarray, tol: float = 1e-13, max_iters: int = 200_000):
    """Independent oracle: power iteration on s I - H, no eigendecomposition."""
    n = H.shape[0]
    s = float(np.linalg.norm(H, 1))
    B = s * np.eye(n) - H
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    prev = np.inf
    for _ in range(max_iters):
        w = B @ v
        v = w / np.linalg.norm(w)
        mu = float(v @ B @ v)
        if abs(mu - prev) <= tol * max(1.0, abs(mu)):
            break
        prev = mu
    return s - mu


def test_exact_diagonal_example():
    est = min_eigenpair_exact(np.diag([3.0, -1.0, 2.0]))
    assert est.lam == pytest.approx(-1.0)
    assert np.allclose(np.abs(est.v_unit), [0.0, 1.0, 0.0], atol=1e-12)
    assert est.converged_by == "exact"


def test_exact_two_by_two_offdiagonal():
    est = min_eigenpair_exact(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert est.lam == pytest.approx(-1.0)
    assert np.allclose(np.abs(est.v_unit), np.full(2, 1.0 / np.sqrt(2.0)), atol=1e-12)


def test_exact_matches_shifted_power_oracle():
    H = random_symmetric(np.random.default_rng(0), 30)
    est = min_eigenpair_exact(H)
    assert est.lam == pytest.approx(shifted_power_min_eig(H), abs=1e-8)


def test_exact_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        min_eigenpair_exact(M)


@pytest.mark.parametrize("c", [1e-14, 1.0, 1e14])
def test_exact_symmetry_test_is_relative_at_every_scale(c):
    with pytest.raises(ValueError, match="not symmetric"):
        min_eigenpair_exact(c * np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = c * np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    assert min_eigenpair_exact(H).lam == pytest.approx(-c, rel=1e-11)


def test_exact_residual_invariant_on_random_matrices():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))
        est = min_eigenpair_exact(H)
        resid = np.linalg.norm(H @ est.v_unit - est.lam * est.v_unit)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(H, 2))
        assert abs(np.linalg.norm(est.v_unit) - 1.0) <= 1e-12


# --- iteration cap ------------------------------------------------------------

def test_cap_formula_example():
    assert lanczos_iteration_cap(n=1000, M=10.0, eps=0.1, delta=0.01) == 57


def test_cap_zero_delta_forces_full_space():
    assert lanczos_iteration_cap(n=17, M=10.0, eps=0.1, delta=0.0) == 17


def test_cap_never_exceeds_dimension():
    assert lanczos_iteration_cap(n=5, M=100.0, eps=1e-4, delta=0.5) == 5


def test_cap_rejects_bad_inputs():
    for eps in (0.0, -0.0, -1e-3):
        with pytest.raises(ValueError, match="eps must be positive"):
            lanczos_iteration_cap(10, 1.0, eps, 0.1)
    for delta in (1.0, 1.5, -1e-12):
        with pytest.raises(ValueError, match="delta must lie in"):
            lanczos_iteration_cap(10, 1.0, 0.1, delta)


# --- Lanczos ------------------------------------------------------------------

def hv_of(H):
    return lambda v: H @ v


def test_full_space_is_exact_on_small_diagonal():
    H = np.diag([-1.0, 0.0, 1.0])
    est = lanczos_min_eig(hv_of(H), 3, M=2.0, eps=0.5, delta=0.0, rng=rng_for(0))
    assert est.lam == pytest.approx(-1.0, abs=1e-12)
    assert est.converged_by == "full_n"


def test_full_space_recovers_min_eig_on_suite_hessians():
    rng = np.random.default_rng(2)
    for problem in suite():
        obj = problem.make_objective()
        x = problem.start_point() + 0.05 * rng.standard_normal(problem.dim)
        H = obj.dense_hessian(x)
        exact = min_eigenpair_exact(H).lam
        M = float(np.linalg.norm(H, 2)) + 1.0
        est = lanczos_min_eig(hv_of(H), problem.dim, M=M, eps=0.5, delta=0.0, rng=rng_for(9))
        assert est.lam == pytest.approx(exact, abs=1e-8 * max(1.0, abs(exact)))


def test_rayleigh_upper_bound_holds_unconditionally():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(3, 40))
        H = random_symmetric(rng, n)
        exact = float(np.linalg.eigvalsh(H)[0])
        M = float(np.linalg.norm(H, 2)) + 2.0
        est = lanczos_min_eig(
            hv_of(H), n, M=M, eps=0.3, delta=0.05, rng=rng_for(100 + trial)
        )
        assert est.lam >= exact - 1e-10 * max(1.0, abs(exact))


def test_iteration_count_respects_cap():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = int(rng.integers(5, 80))
        H = random_symmetric(rng, n)
        M = float(np.linalg.norm(H, 2)) + 2.0
        eps, delta = 0.05, 0.01
        est = lanczos_min_eig(hv_of(H), n, M=M, eps=eps, delta=delta, rng=rng_for(trial))
        assert est.iters <= lanczos_iteration_cap(n, M, eps, delta)


def test_estimate_never_increases_with_the_budget():
    # One start vector at every budget k = 1..n: the Krylov spaces are
    # nested, so the smallest Ritz value cannot go up as k grows.
    n, delta = 40, 0.2
    H = random_symmetric(np.random.default_rng(5), n)
    M = float(np.linalg.norm(H, 2)) + 2.0
    log_factor = math.log(n / delta**2) / (2.0 * math.sqrt(2.0))
    lams = []
    for k in range(1, n + 1):
        eps = M * (log_factor / (k - 0.5)) ** 2
        assert lanczos_iteration_cap(n, M, eps, delta) == k
        est = lanczos_min_eig(hv_of(H), n, M=M, eps=eps, delta=delta, rng=rng_for(6))
        assert est.iters == k
        lams.append(est.lam)
    tol = 1e-10 * np.linalg.norm(H, 2)
    assert all(b <= a + tol for a, b in zip(lams, lams[1:]))
    assert lams[-1] == pytest.approx(float(np.linalg.eigvalsh(H)[0]), abs=tol)


def test_breakdown_on_isotropic_hessian_stops_after_one_product():
    # Every vector is an eigenvector of -I: the first Krylov space is
    # invariant, so one product gives the exact estimate.
    H = -np.eye(6)
    est = lanczos_min_eig(hv_of(H), 6, M=2.0, eps=0.1, delta=0.01, rng=rng_for(7))
    assert est.iters == 1
    assert est.lam == -1.0


def test_breakdown_test_is_relative_at_every_scale():
    # c H for tiny, unit and huge c: the same recurrence up to rounding, so
    # the same number of products and exit, and c times the estimate.
    H = np.diag(np.linspace(-1.0, 1.0, 20))
    ref = lanczos_min_eig(hv_of(H), 20, M=3.0, eps=1e-6, delta=1e-6, rng=rng_for(4))
    assert ref.lam == pytest.approx(-1.0, abs=1e-12)
    for c in (1e-14, 1.0, 1e14):
        est = lanczos_min_eig(hv_of(c * H), 20, M=3.0 * c, eps=1e-6 * c, delta=1e-6,
                              rng=rng_for(4))
        assert (est.iters, est.converged_by) == (ref.iters, ref.converged_by)
        assert est.lam == pytest.approx(c * ref.lam, rel=1e-12)
        # The estimator's contract at eps = 1e-6 c: lam <= lambda_min + eps.
        assert est.lam <= -c + 1e-6 * c


@pytest.mark.parametrize(
    "delta, early", [(0.0, False), (0.1, False), (0.1, True)], ids=["delta0", "delta0.1", "sigma"]
)
@pytest.mark.parametrize("H", [pytest.param(A, id=name) for name, A, _ in scaling_systems()])
def test_scaling_by_a_power_of_two_changes_no_decision(H, delta, early):
    # H, M, eps and sigma scaled by s: the breakdown and early-stop tests
    # compare quantities of one scale, so each call takes the same path.
    n = H.shape[0]

    def call(s):
        eps = 0.08 * s
        sigma = -0.5 * eps if early else -math.inf
        return lanczos_min_eig(hv_of(s * H), n, M=8.0 * s, eps=eps, delta=delta,
                               rng=rng_for(3), sigma=sigma)

    ref = call(1.0)
    for s in POWER_OF_TWO_SCALES:
        est = call(s)
        assert (est.converged_by, est.iters) == (ref.converged_by, ref.iters), s
        assert est.lam / s == pytest.approx(ref.lam, rel=1e-12), s


def test_breakdown_on_zero_hessian_stops_after_one_product():
    est = lanczos_min_eig(hv_of(np.zeros((5, 5))), 5, M=1.0, eps=0.1, delta=0.0, rng=rng_for(2))
    assert (est.iters, est.converged_by, est.lam) == (1, "breakdown", 0.0)


def test_huge_shift_bound_leaves_breakdown_to_the_recurrence():
    # M only sets the budget: at M = 1e308 the sweep must not "break down"
    # after one product, and the full space finds the smallest eigenvalue.
    H = np.diag(np.linspace(-1.0, 3.0, 10))
    est = lanczos_min_eig(hv_of(H), 10, M=1e308, eps=1e-3, delta=1e-6, rng=rng_for(0))
    assert est.iters == 10
    assert est.lam == pytest.approx(-1.0, abs=1e-12)


def test_monte_carlo_failure_rate_within_probability_contract():
    # Fixed matrix class from the module contract: n = 100 diagonal with
    # smallest eigenvalue -2, estimator run at eps = 0.1, delta = 0.01.
    n, eps, delta, M = 100, 0.1, 0.01, 10.0
    diag = np.linspace(-2.0, 6.0, n)
    H = np.diag(diag)
    trials, failures = 1000, 0
    for t in range(trials):
        est = lanczos_min_eig(hv_of(H), n, M=M, eps=eps, delta=delta, rng=rng_for(5000 + t))
        if est.lam > -2.0 + eps:
            failures += 1
        assert est.iters <= lanczos_iteration_cap(n, M, eps, delta)
    rate = failures / trials
    assert rate <= delta + wilson_slack(delta, trials)


def test_determinism_same_seed_same_estimate():
    H = random_symmetric(np.random.default_rng(8), 25)
    M = float(np.linalg.norm(H, 2)) + 2.0
    a = lanczos_min_eig(hv_of(H), 25, M=M, eps=0.05, delta=0.01, rng=rng_for(42))
    b = lanczos_min_eig(hv_of(H), 25, M=M, eps=0.05, delta=0.01, rng=rng_for(42))
    assert a.lam == b.lam
    assert np.array_equal(a.v_unit, b.v_unit)


def test_full_space_call_returns_its_basis_and_tridiagonal():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40):
        H = random_symmetric(rng, n, scale=3.0)
        M = float(np.linalg.norm(H, 2)) + 1.0
        est = lanczos_min_eig(hv_of(H), n, M=M, eps=0.1, delta=0.0, rng=rng_for(n))
        assert est.converged_by == "full_n"
        Q, (alphas, betas) = est.basis, est.bands
        assert Q.shape == (n, n) and alphas.shape == (n,) and betas.shape == (n - 1,)
        T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        assert np.abs(Q @ Q.T - np.eye(n)).max() <= 1e-13
        assert np.abs(Q @ H @ Q.T - T).max() <= 1e-13 * M


def test_partial_space_calls_return_no_basis():
    # A breakdown at 2 of 6 products, and a budget of 13 of 50 products.
    broke = lanczos_min_eig(hv_of(np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])), 6, M=4.0,
                            eps=0.1, delta=0.0, rng=rng_for(3))
    capped = lanczos_min_eig(hv_of(np.diag(np.linspace(1.0, 2.0, 50))), 50, M=4.0,
                             eps=0.25, delta=0.1, rng=rng_for(3))
    assert (broke.converged_by, broke.iters) == ("breakdown", 2)
    assert (capped.converged_by, capped.iters) == ("lanczos_cap", 13)
    for est in (broke, capped):
        assert est.basis is None and est.bands is None


# --- early stop below sigma ------------------------------------------------------

def indefinite(seed: int, n: int) -> np.ndarray:
    """A symmetric matrix with eigenvalues drawn from U(-1, 1) in a random basis."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (Q * rng.uniform(-1.0, 1.0, n)) @ Q.T


def test_early_stop_meets_its_contract():
    c = sols.eigen.EARLY_STOP_RESIDUAL
    early = 0
    for seed in range(40):
        n = (10, 30, 60)[seed % 3]
        H = indefinite(seed, n)
        M, eps, delta = 3.0, 0.005, (0.0, 1e-6)[seed % 2]
        budget = lanczos_iteration_cap(n, M, eps, delta)
        for sigma in (-0.05, -0.2, -0.5):
            est = lanczos_min_eig(hv_of(H), n, M=M, eps=eps, delta=delta, rng=rng_for(seed),
                                  sigma=sigma)
            if est.converged_by != "below_sigma":
                continue
            early += 1
            v, theta = est.v_unit, est.lam
            assert theta < sigma and est.iters < budget
            assert est.basis is None and est.bands is None
            assert abs(float(v @ v) - 1.0) <= 1e-14
            # v'Hv is theta up to rounding, and H v - theta v is beta_k (e_k'y)
            # times the next Lanczos vector, a unit vector.
            assert abs(float(v @ H @ v) - theta) <= 1e-13 * M
            assert norm(H @ v - theta * v) <= c * abs(theta) + 1e-13 * M
    assert early >= 100


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), sigma=st.floats(-1.5, 0.5),
       delta=st.sampled_from((0.0, 1e-6, 0.1)))
def test_early_stop_takes_the_branch_of_the_full_call(n, seed, sigma, delta):
    # The smallest Ritz value does not rise with k, so the call that stops
    # early and the one that runs its budget agree on lam < sigma.
    H = indefinite(seed, n)
    full = lanczos_min_eig(hv_of(H), n, M=3.0, eps=0.05, delta=delta, rng=rng_for(seed))
    est = lanczos_min_eig(hv_of(H), n, M=3.0, eps=0.05, delta=delta, rng=rng_for(seed),
                          sigma=sigma)
    assert (est.lam < sigma) == (full.lam < sigma)
    if est.converged_by != "below_sigma":
        assert (est.lam, est.iters, est.converged_by) == (full.lam, full.iters, full.converged_by)
        assert np.array_equal(est.v_unit, full.v_unit)


class FirstAxis:
    """Draws the start vector e_1, so that alpha_1 = H[0, 0] exactly."""

    @staticmethod
    def standard_normal(n):
        e = np.zeros(n)
        e[0] = 1.0
        return e


@pytest.mark.parametrize("coupling", [0.0, 1.0])
def test_zero_sturm_pivot_ends_in_a_classified_outcome(coupling):
    # From e_1, alpha_1 = sigma makes the first pivot of T_k - sigma I
    # exactly 0. On H = sigma I the Krylov space is invariant after one
    # product. With unit off-diagonals H is its own T; the second pivot
    # divides by the zero one, and T_2 = [[sigma, 1], [1, sigma]] already
    # has the Ritz pair (sigma - 1, (1, 1)/sqrt 2), residual 1/sqrt 2.
    sigma, n = -0.5, 8
    H = sigma * np.eye(n) + coupling * (np.eye(n, k=1) + np.eye(n, k=-1))
    est = lanczos_min_eig(hv_of(H), n, M=4.0, eps=0.1, delta=0.0, rng=FirstAxis(),
                          sigma=sigma)
    if coupling == 0.0:
        assert (est.iters, est.converged_by, est.lam) == (1, "breakdown", sigma)
    else:
        assert (est.iters, est.converged_by) == (2, "below_sigma")
        assert est.lam == pytest.approx(sigma - 1.0, abs=1e-15)
        assert float(est.v_unit @ H @ est.v_unit) == pytest.approx(est.lam, abs=1e-15)


# --- equivalence with the growing-basis reference ------------------------------

def reference_lanczos_min_eig(hv, n, M, eps, delta, rng):
    """Reference estimator: the basis grows by ``column_stack`` every step and
    the Ritz pair comes from a dense ``eigh`` of the tridiagonal matrix.
    Returns ``(lam, v_unit, iters, converged_by)``."""
    budget = lanczos_iteration_cap(n, M, eps, delta)
    breakdown_tol = 1e-13 * max(1.0, 2.0 * abs(M))

    def ritz_max(alphas, betas):
        k = len(alphas)
        T = np.diag(alphas)
        if k > 1:
            off = np.asarray(betas[: k - 1])
            T += np.diag(off, 1) + np.diag(off, -1)
        w, Y = np.linalg.eigh(T)
        return Y[:, -1]

    V, HV, alphas, betas = [], [], [], []
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    while nv == 0.0:
        v = rng.standard_normal(n)
        nv = np.linalg.norm(v)
    v = v / nv
    while len(V) < budget:
        hv_v = np.asarray(hv(v), dtype=float)
        w = M * v - hv_v
        alpha = float(v @ w)
        V.append(v)
        HV.append(hv_v)
        alphas.append(alpha)
        w = w - alpha * v
        if len(V) > 1:
            w = w - betas[-1] * V[-2]
        Vmat = np.column_stack(V)
        w = w - Vmat @ (Vmat.T @ w)
        beta = float(np.linalg.norm(w))
        if beta <= breakdown_tol:
            break
        betas.append(beta)
        v = w / beta
    y = ritz_max(alphas, betas)
    v_ritz = np.column_stack(V) @ y
    nv = float(np.linalg.norm(v_ritz))
    lam = float(v_ritz @ (np.column_stack(HV) @ y)) / (nv * nv)
    iters = len(V)
    converged_by = "breakdown" if iters < budget else "full_n" if iters >= n else "lanczos_cap"
    return lam, v_ritz / nv, iters, converged_by


def _equivalence_cases():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(5, 81))
        H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        M = float(np.linalg.norm(H, 2)) + float(rng.uniform(0.5, 3.0))
        eps, delta = [(0.05, 0.01), (0.3, 0.2), (0.5, 0.0), (1e-3, 1e-6)][trial % 4]
        yield f"random-{trial}-n{n}", H, M, eps, delta, 1000 + trial
    yield "isotropic", -np.eye(6), 2.0, 0.1, 0.01, 7
    # Three distinct eigenvalues, each repeated four times: every Krylov
    # space is invariant after three steps, so the iteration breaks down.
    A = random_symmetric(np.random.default_rng(12), 3)
    H = np.kron(np.eye(4), A)
    for seed in range(5):
        yield f"repeated-{seed}", H, float(np.linalg.norm(A, 2)) + 1.0, 0.05, 0.0, 20 + seed


@pytest.mark.parametrize(
    "H, M, eps, delta, seed",
    [pytest.param(*case[1:], id=case[0]) for case in _equivalence_cases()],
)
def test_matches_growing_basis_reference(H, M, eps, delta, seed):
    n = H.shape[0]
    lam, v_unit, iters, converged_by = reference_lanczos_min_eig(
        hv_of(H), n, M, eps, delta, rng_for(seed)
    )
    est = lanczos_min_eig(hv_of(H), n, M=M, eps=eps, delta=delta, rng=rng_for(seed))
    assert (est.iters, est.converged_by) == (iters, converged_by)
    assert abs(est.lam - lam) <= 1e-12 * max(1.0, abs(lam))
    assert abs(float(est.v_unit @ v_unit)) >= 1.0 - 1e-10


def test_repeated_eigenvalues_stop_at_the_first_breakdown():
    A = random_symmetric(np.random.default_rng(12), 3)
    H = np.kron(np.eye(4), A)
    est = lanczos_min_eig(
        hv_of(H), 12, M=float(np.linalg.norm(A, 2)) + 1.0, eps=0.05, delta=0.0,
        rng=rng_for(20),
    )
    # The Krylov space is invariant once it holds one vector per distinct
    # eigenvalue of A, and it then contains an eigenvector for lambda_min.
    assert est.iters == 3
    assert est.lam == pytest.approx(float(np.linalg.eigvalsh(A)[0]), abs=1e-10)


def _tridiagonal_cases():
    rng = np.random.default_rng(15)
    for k in range(1, 121):
        alphas = rng.standard_normal(k).tolist()
        yield f"random-k{k}", alphas, np.abs(rng.standard_normal(k - 1)).tolist()
        # Near-degenerate: tiny couplings between nearly equal diagonal entries.
        alphas = (1.0 + 1e-9 * rng.standard_normal(k)).tolist()
        yield f"degenerate-k{k}", alphas, (1e-9 * rng.uniform(0.5, 1.5, k - 1)).tolist()


@pytest.mark.parametrize(
    "alphas, betas",
    [pytest.param(*case[1:], id=case[0]) for case in _tridiagonal_cases()],
)
def test_ritz_min_matches_eigh_tridiagonal(alphas, betas):
    from scipy.linalg import eigh_tridiagonal

    k = len(alphas)
    w, Y = eigh_tridiagonal(alphas, betas[: k - 1], select="i", select_range=(0, 0))
    theta, y = _ritz_min(alphas, betas)
    assert np.float64(theta).tobytes() == w[:1].tobytes()
    assert np.array_equal(y, Y[:, 0])


# One process per import order. The script hashes every ``_ritz_min`` result
# of the bench Hessians' Lanczos calls, then imports scipy.linalg (again, on
# the scipy-first side) and reports which module objects the two paths hold.
IMPORT_ORDER_SCRIPT = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.linalg
from sols import eigen
from conftest import bench_hessians

digest = hashlib.sha256()
ritz_min = eigen._ritz_min

def recording(alphas, betas):
    lam, y = ritz_min(alphas, betas)
    digest.update(np.float64(lam).tobytes() + y.tobytes())
    return lam, y

eigen._ritz_min = recording
for _, hv, n, U_H in bench_hessians():
    for eps in (0.005, 5.0):
        eigen.lanczos_min_eig(hv, n, U_H + 2.0, eps, 1e-6, np.random.default_rng(31))
print("scipy modules before:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
import scipy.linalg
lapack = eigen._lapack()
print("reused:", lapack is scipy.linalg.lapack._flapack,
      lapack.dstebz is scipy.linalg.lapack.dstebz, lapack.dstein is scipy.linalg.lapack.dstein)
print("digest:", digest.hexdigest())
"""


def test_lapack_loader_reuses_a_scipy_linalg_imported_first():
    loader_first = run_python(IMPORT_ORDER_SCRIPT, "loader-first")
    scipy_first = run_python(IMPORT_ORDER_SCRIPT, "scipy-first")
    assert loader_first[0] == "scipy modules before: scipy.linalg._flapack"
    assert "scipy.linalg" in scipy_first[0].split()
    # Either order ends with one extension module, shared by both paths.
    assert loader_first[1] == scipy_first[1] == "reused: True True True"
    assert loader_first[2] == scipy_first[2]


def test_lapack_loader_names_the_path_it_searched(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"linalg.?_flapack<suffix>.*\.missing") as info:
        _lapack.__wrapped__()
    assert info.value.path.endswith("_flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError, match="scipy"):
        _lapack.__wrapped__()


def test_ritz_value_is_the_rayleigh_quotient_up_to_rounding():
    rng = np.random.default_rng(16)
    for trial in range(120):
        n = int(rng.integers(2, 60))
        if trial % 3 == 0:
            # Few distinct eigenvalues, each repeated: the sweep breaks down early.
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            spectrum = rng.standard_normal(int(rng.integers(1, 4)))
            H = (Q * rng.choice(spectrum, n)) @ Q.T
            H = 0.5 * (H + H.T)
        else:
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
        M = float(np.linalg.norm(H, 2)) + 1.0
        eps, delta = [(0.05, 0.0), (0.3, 0.1), (1e-3, 1e-6)][trial % 3]
        est = lanczos_min_eig(hv_of(H), n, M=M, eps=eps, delta=delta, rng=rng_for(trial))
        assert abs(est.lam - float(est.v_unit @ H @ est.v_unit)) <= 1e-13 * M


def test_a_call_holds_one_basis_array():
    import tracemalloc

    n, M, eps, delta = 20_000, 27.5, 0.4, 0.1
    c = np.linspace(-1.0, 24.0, n)
    budget = lanczos_iteration_cap(n, M, eps, delta)
    assert budget == 43
    # A first call loads the LAPACK extension outside the traced region.
    lanczos_min_eig(hv_of(np.diag(c[:5])), 5, M=M, eps=eps, delta=delta, rng=rng_for(0))
    tracemalloc.start()
    try:
        est = lanczos_min_eig(lambda v: c * v, n, M=M, eps=eps, delta=delta, rng=rng_for(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.iters == budget
    assert peak < 1.5 * budget * n * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_product_raises_value_error(bad):
    H = random_symmetric(np.random.default_rng(13), 10)
    calls = []

    def hv(v):
        calls.append(1)
        out = H @ v
        if len(calls) == 3:
            out[4] = bad
        return out

    with pytest.raises(ValueError, match="non-finite Hessian-vector product"):
        lanczos_min_eig(hv, 10, M=10.0, eps=0.1, delta=0.0, rng=rng_for(14))


def test_zero_start_vector_is_redrawn():
    class ZeroFirst:
        """Draws zero vectors ``zeros`` times, then from ``rng``."""

        def __init__(self, rng, zeros):
            self.rng, self.zeros = rng, zeros

        def standard_normal(self, n):
            if self.zeros:
                self.zeros -= 1
                return np.zeros(n)
            return self.rng.standard_normal(n)

    H = random_symmetric(np.random.default_rng(19), 12)
    stubbed = lanczos_min_eig(hv_of(H), 12, M=20.0, eps=0.1, delta=0.0,
                              rng=ZeroFirst(rng_for(20), zeros=2))
    plain = lanczos_min_eig(hv_of(H), 12, M=20.0, eps=0.1, delta=0.0, rng=rng_for(20))
    assert stubbed.lam == plain.lam and stubbed.iters == plain.iters == 12
    assert np.array_equal(stubbed.v_unit, plain.v_unit)


@pytest.mark.parametrize("failing", ["dstebz", "dstein"])
def test_ritz_solve_failure_raises_linalg_error(monkeypatch, failing):
    real = _lapack()

    class Stub:
        def dstebz(self, *args):
            *out, info = real.dstebz(*args)
            return (*out, 3 if failing == "dstebz" else info)

        def dstein(self, *args):
            y, info = real.dstein(*args)
            return y, -1 if failing == "dstein" else info

    monkeypatch.setattr(sols.eigen, "_lapack", Stub)
    code = 3 if failing == "dstebz" else -1
    with pytest.raises(np.linalg.LinAlgError, match=rf"tridiagonal eigensolve failed \(info={code}\)"):
        _ritz_min(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5]))


# --- bitwise equality with the matmul loop ---------------------------------------

def matmul_lanczos_min_eig(hv, n, M, eps, delta, rng):
    """The Lanczos loop as written with ``@``, fresh arrays and Python lists
    before it moved to ``ndarray.dot`` and in-place ufuncs. The rewrite does
    the same floating-point operations in the same order, so the two agree
    bit for bit. Returns ``(lam, v_unit, iters, converged_by)``."""
    from scipy.linalg.lapack import dstebz, dstein

    budget = lanczos_iteration_cap(n, M, eps, delta)
    scale = 0.0
    V = np.empty((budget, n))
    alphas, betas = [], []
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    while nv == 0.0:
        v = rng.standard_normal(n)
        nv = np.linalg.norm(v)
    v = v / nv
    k = 0
    while True:
        V[k] = v
        hvk = hv(v)
        alpha = float(v @ hvk)
        alphas.append(alpha)
        scale = max(scale, abs(alpha))
        k += 1
        if k == budget:
            break
        w = hvk - alpha * v
        if k > 1:
            w -= betas[-1] * V[k - 2]
        Vk = V[:k]
        w -= Vk.T @ (Vk @ w)
        beta = math.sqrt(float(w @ w))
        if beta <= 1e-13 * scale:
            break
        betas.append(beta)
        scale = max(scale, beta)
        v = w / beta
    if k == 1:
        lam, y = alphas[0], np.ones(1)
    else:
        m, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
        y, info = dstein(alphas, betas, w[:m], iblock, isplit)
        lam, y = float(w[0]), y[:, 0]
    v_ritz = y @ V[:k]
    nv = float(np.linalg.norm(v_ritz))
    return lam, v_ritz / nv, k, "breakdown" if k < budget else "full_n" if k >= n else "lanczos_cap"


def _bitwise_cases():
    """``(id, hv, n, M, eps, delta, seed)``."""
    for name, hv, n, U_H in bench_hessians():
        # The solver's own accuracy (a full-n budget) and a budget below n.
        for eps in (0.005, 5.0):
            yield f"{name}-eps{eps}", hv, n, U_H + 2.0, eps, 1e-6, 31
    rng = np.random.default_rng(18)
    for n in (1, 2, 5, 50, 100):
        for trial in range(3):
            H = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 5.0)))
            M = float(np.linalg.norm(H, 2)) + 1.0
            eps, delta = [(0.05, 0.0), (0.3, 0.1), (1e-3, 1e-6)][trial]
            yield f"random-n{n}-{trial}", hv_of(H), n, M, eps, delta, 40 + trial
    yield "minus-identity-breakdown", hv_of(-np.eye(6)), 6, 2.0, 0.1, 0.01, 7
    yield "budget-one", hv_of(random_symmetric(rng, 20)), 20, 10.0, 1e6, 0.1, 3
    yield "hv-returns-argument", lambda v: v, 8, 2.0, 0.1, 0.0, 5


BITWISE_CASES = list(_bitwise_cases())


@pytest.mark.parametrize(
    "hv, n, M, eps, delta, seed", [pytest.param(*c[1:], id=c[0]) for c in BITWISE_CASES]
)
def test_bitwise_equal_to_matmul_loop(hv, n, M, eps, delta, seed):
    lam, v_unit, iters, converged_by = matmul_lanczos_min_eig(
        hv, n, M, eps, delta, rng_for(seed)
    )
    est = lanczos_min_eig(hv, n, M=M, eps=eps, delta=delta, rng=rng_for(seed))
    assert type(est.lam) is float
    assert np.float64(est.lam).tobytes() == np.float64(lam).tobytes()
    assert est.v_unit.dtype == v_unit.dtype and est.v_unit.tobytes() == v_unit.tobytes()
    assert (est.iters, est.converged_by) == (iters, converged_by)


def test_bitwise_cases_reach_every_exit():
    exits = set()
    for _, hv, n, M, eps, delta, seed in BITWISE_CASES:
        est = lanczos_min_eig(hv, n, M=M, eps=eps, delta=delta, rng=rng_for(seed))
        budget = lanczos_iteration_cap(n, M, eps, delta)
        exits.add((est.converged_by, "budget" if est.iters == budget else "breakdown"))
        if est.iters == 1:
            exits.add("k=1")
    assert exits == {
        ("full_n", "budget"), ("lanczos_cap", "budget"), ("breakdown", "breakdown"), "k=1"
    }


# --- bitwise equality of the dense path with its numpy-function form ------------

def numpy_function_min_eigenpair_exact(H):
    """``min_eigenpair_exact`` written with ``np.max`` and ``np.linalg.norm``
    instead of ``ndarray.max`` and ``operators.norm``: the same reductions,
    so the two agree bit for bit."""
    H = np.asarray(H, dtype=float)
    scale = float(np.max(np.abs(H))) if H.size else 0.0
    if not math.isfinite(scale):
        raise NonFiniteError("non-finite entry in the dense Hessian")
    asym = float(np.max(np.abs(H - H.T))) if H.size else 0.0
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e}")
    w, V = np.linalg.eigh(H)
    v = V[:, 0]
    v = v / np.linalg.norm(v)
    return EigEstimate(lam=float(w[0]), v_unit=v, iters=0, converged_by="exact")


ENTRY_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310)


@st.composite
def symmetric_matrices(draw):
    """A random symmetric matrix with n in {1, 2, 10, 50, 100}, scaled down to
    subnormal entries or not, with signed zeros and subnormals placed in
    symmetric pairs."""
    n = draw(st.sampled_from((1, 2, 10, 50, 100)))
    scale = draw(st.sampled_from((1.0, 1e3, 1e-5, 1e-310, 0.0)))
    H = random_symmetric(rng_for(draw(st.integers(0, 2**32 - 1))), n, scale)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        H[i, j] = H[j, i] = draw(st.sampled_from(ENTRY_SPECIALS))
    return H


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(symmetric_matrices())
def test_exact_bitwise_equal_to_numpy_function_form(H):
    est, ref = min_eigenpair_exact(H), numpy_function_min_eigenpair_exact(H)
    assert type(est.lam) is float
    assert np.float64(est.lam).tobytes() == np.float64(ref.lam).tobytes()
    assert est.v_unit.dtype == ref.v_unit.dtype and est.v_unit.tobytes() == ref.v_unit.tobytes()
    assert (est.iters, est.converged_by) == (ref.iters, ref.converged_by)


@pytest.mark.parametrize("entry, error", [(np.nan, NonFiniteError), (np.inf, NonFiniteError),
                                          (1e-3, ValueError)])
def test_exact_rejects_what_the_numpy_function_form_rejects(entry, error):
    H = random_symmetric(rng_for(5), 10)
    H[2, 7] = entry  # an asymmetric entry; non-finite ones are caught first
    for solve in (min_eigenpair_exact, numpy_function_min_eigenpair_exact):
        with pytest.raises(error) as exc:
            solve(H)
        assert type(exc.value) is error

"""Synthetic problems with analytically certified smoothness constants.

Every problem declares (L_H, U_g, U_H, f_low) valid on the level set
of its canonical start point. The declarations come from closed-form
bounds over a coordinate box enclosing the level set, inflated by a safety
margin, and are re-checked by sampling at construction. Overestimates are
safe throughout: backtracking caps grow with the constants, and decrease
floors shrink, so both stay valid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import Array, Objective, ProblemConstants, banded_product, norm, pow_or_inf
from .steps import SolverConfig, StepKind

MARGIN = 1.1


class ConstantsError(RuntimeError):
    """Declared constants failed the sampling verifier."""


@dataclass(frozen=True)
class SuiteProblem:
    """An objective family member with certified constants and coverage intent.

    ``branch_coverage`` names the step kinds the problem is designed to
    trigger under ``coverage_config``; traces are inspected against it.
    ``x_star`` is a known global minimizer, where f equals
    ``constants.f_low``. Objectives carry per-instance counters, so each run
    must call ``make_objective`` for a fresh instance.
    """

    name: str
    dim: int
    x0: tuple[float, ...]
    constants: ProblemConstants
    x_star: tuple[float, ...]
    branch_coverage: frozenset
    coverage_config: SolverConfig
    _factory: object
    _coefficients: object  # x -> the coefficients of the Hessian at x
    _hessian_norm: object  # coefficients -> the 2-norm of their Hessian

    def make_objective(self) -> Objective:
        return self._factory()

    def start_point(self) -> Array:
        return np.asarray(self.x0, dtype=float)


# A bound that overflows is inf or nan, which _suite_problem rejects by name;
# a quotient by zero is dropped by the np.where that selects it.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _separable_quartic_constants(
    name: str, d: Array, beta: Array, c0: float, x0: Array
) -> tuple[tuple[float, float, float, float], Array]:
    """Closed-form level-set (L_H, U_g, U_H, f_low) of sum d_i x_i^2/2 + beta_i x_i^4/4 + c0,
    and a minimizer x_star: each double well d_i < 0 < beta_i at sqrt(-d_i / beta_i)."""
    f0 = float(0.5 * d @ x0**2 + 0.25 * beta @ x0**4 + c0)
    well = (d < 0.0) & (beta > 0.0)
    x_star = np.where(well, np.sqrt(-d / beta), 0.0)
    m = np.where(well, -(d**2) / (4.0 * beta), 0.0)
    f_low = c0 + float(m.sum())
    # Per-coordinate bound on x_i^2 over the level set: the other
    # coordinates contribute at least their own minima.
    c_i = np.maximum((f0 - c0) - (m.sum() - m), 0.0)
    u = np.where(beta > 0.0, (-d + np.sqrt(d**2 + 4.0 * beta * c_i)) / beta, 2.0 * c_i / d)
    u = np.maximum(u, x0**2)  # the start point itself lies in the set
    B = np.sqrt(u)
    U_H = float(np.max(np.maximum(np.abs(d), np.abs(d + 3.0 * beta * u))))
    L_H = 6.0 * float(np.max(beta * B))
    U_g = float(np.sqrt(np.sum((np.abs(d) * B + beta * B**3) ** 2)))
    if U_H <= 0.0 or U_g <= 0.0:
        raise ValueError(f"{name}: degenerate problem: zero curvature and gradient bounds")
    return (L_H, U_g, U_H, f_low), x_star


def _finite(name: str, label: str, a, n: int | None = None, expected: str = "") -> Array:
    """``a`` as a finite float array, of shape (n,) when ``n`` is given;
    otherwise a ValueError naming both lengths, or ``label`` at its first
    entry that is not finite."""
    a = np.asarray(a, dtype=float)
    if n is not None and a.shape != (n,):
        raise ValueError(f"{name}: {label} has shape {a.shape}, but {expected}")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        at = f" at index {bad[0]}" if a.ndim else ""
        raise ValueError(f"{name}: {label} must be finite, got {a.flat[bad[0]]}{at}")
    return a


def _suite_problem(
    name: str, x0: Array, x_star: Array, bounds, value, gradient,
    coefficients, product, dense, hessian_norm, branch_coverage,
    coverage_config: SolverConfig,
) -> SuiteProblem:
    """A verified suite problem whose Hessian at x is given by ``coefficients(x)``.

    ``bounds`` are the closed-form (L_H, U_g, U_H, f_low); the declared
    constants inflate the first three by ``MARGIN``. ``product(c, v)`` is the
    Hessian-vector product, ``dense(c)`` the dense Hessian and
    ``hessian_norm(c)`` its 2-norm, for the coefficients ``c`` of one point.
    The Hessian is linear in ``c``, entry by entry, which
    ``verify_constants`` relies on.

    Every product and the dense Hessian at one iterate share the iterate's
    coefficients, so each objective computes them once per point, in a
    one-slot memo keyed on the bytes of x, never its identity: a caller may
    change x in place. The memo runs inside the product itself, which is
    called once per Lanczos step and CG iteration.
    """
    L_H, U_g, U_H, f_low = bounds
    try:
        constants = ProblemConstants(MARGIN * L_H, MARGIN * U_g, MARGIN * U_H, f_low)
    except ValueError as exc:  # finite parameters whose bounds overflow
        raise ValueError(f"{name}: {exc}") from None

    def factory() -> Objective:
        key, coeffs = None, None  # the bytes of the last point, its coefficients

        def hessian_vector(x: Array, v, apply=product):
            """``apply(coefficients(x), v)``; the dense Hessian passes its own ``apply``."""
            nonlocal key, coeffs
            x = np.asarray(x, dtype=float)
            b = x.tobytes()
            if b != key:
                key, coeffs = b, coefficients(x)
            return apply(coeffs, v)

        def dense_hessian(x: Array) -> Array:
            return hessian_vector(x, None, lambda c, _v: dense(c))

        return Objective(
            x0.size, value, gradient, hessian_vector, dense_hessian,
            constants=constants, name=name,
        )

    problem = SuiteProblem(
        name=name,
        dim=x0.size,
        x0=tuple(float(v) for v in x0),
        constants=constants,
        x_star=tuple(float(v) for v in x_star),
        branch_coverage=frozenset(branch_coverage),
        coverage_config=coverage_config,
        _factory=factory,
        _coefficients=coefficients,
        _hessian_norm=hessian_norm,
    )
    verify_constants(problem)
    return problem


def separable_quartic(
    name: str,
    d,
    beta,
    c0: float,
    x0,
    branch_coverage,
    coverage_config: SolverConfig,
) -> SuiteProblem:
    """Family f(x) = sum_i (d_i x_i^2 / 2 + beta_i x_i^4 / 4) + c0.

    Covers convex quadratics (beta = 0), bounded indefinite saddles
    (d_i < 0 with a confining quartic), and the separable double-well with
    its saddle at the origin. ``beta`` is a scalar or one entry per
    coordinate.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or not d.size:
        raise ValueError(f"{name}: d has shape {d.shape}, but must be a nonempty 1-D array")
    n, expected = d.size, f"d has {d.size} entries"
    d = _finite(name, "d", d)
    beta = _finite(name, "beta", beta, n if np.ndim(beta) else None, expected) * np.ones_like(d)
    c0 = float(_finite(name, "c0", c0))
    x0 = _finite(name, "x0", x0, n, expected)
    if np.any((beta == 0.0) & (d <= 0.0)):
        raise ValueError(f"{name}: coordinates with beta = 0 need d > 0 to stay bounded")
    if np.any(beta < 0.0):
        raise ValueError(f"{name}: beta must be nonnegative")
    bounds, x_star = _separable_quartic_constants(name, d, beta, c0, x0)
    # The constant factors are computed once. numpy squares by one
    # multiplication but takes x**3 and x**4 by libm pow, entry by entry, at
    # ~10 times the cost for n = 50, so the value and gradient form x^4 and
    # x^3 from x * x by multiplication. That rounds twice where pow rounds
    # once: a quartic or cubic term may differ from pow's by an ulp or two,
    # while the quadratic terms keep the bits of x**2.
    half_d, quarter_beta, three_beta = 0.5 * d, 0.25 * beta, 3.0 * beta

    def value(x: Array) -> float:
        x2 = x * x
        return float(half_d.dot(x2) + quarter_beta.dot(x2 * x2) + c0)

    # The Hessian is diagonal: its coefficients at x are the curvatures
    # d + 3 beta x^2, and its 2-norm is their largest magnitude.
    return _suite_problem(
        name, x0, x_star, bounds, value, lambda x: d * x + beta * (x * x * x),
        lambda x: d + three_beta * x**2, np.multiply, np.diag,
        lambda c: float(np.abs(c).max()),
        branch_coverage, coverage_config,
    )


@np.errstate(over="ignore", invalid="ignore")  # as for the quartic bounds
def _rosenbrock_constants(n: int, a: float, x0: Array) -> tuple[float, float, float, float]:
    """Box-certified level-set (L_H, U_g, U_H, f_low) for the chained Rosenbrock function.

    On the level set every additive term is bounded by f(x0), which pins
    each coordinate into an interval; gradient and Hessian bounds follow
    from interval arithmetic, and the Hessian Lipschitz constant from the
    Frobenius norm of the third-derivative tensor over the box.
    """
    f0 = _rosenbrock_value(x0, a)
    s_b = math.sqrt(f0)
    r_b = math.sqrt(f0 / a)
    B = np.empty(n)
    B[: n - 1] = max(abs(1.0 - s_b), abs(1.0 + s_b))
    lo, hi = 1.0 - s_b, 1.0 + s_b
    sq_hi = max(lo * lo, hi * hi)
    sq_lo = 0.0 if lo <= 0.0 <= hi else min(lo * lo, hi * hi)
    B[n - 1] = max(abs(sq_lo - r_b), abs(sq_hi + r_b))

    g_bound = np.zeros(n)
    g_bound[: n - 1] += 4.0 * a * B[: n - 1] * r_b + 2.0 * s_b
    g_bound[1:] += 2.0 * a * r_b
    U_g = float(np.sqrt(np.sum(g_bound**2)))

    diag_bound = np.zeros(n)
    diag_bound[: n - 1] += 12.0 * a * B[: n - 1] ** 2 + 4.0 * a * B[1:] + 2.0
    diag_bound[1:] += 2.0 * a
    rowsum = diag_bound.copy()
    rowsum[: n - 1] += 4.0 * a * B[: n - 1]
    rowsum[1:] += 4.0 * a * B[: n - 1]
    U_H = float(np.max(rowsum))

    L_H = math.sqrt(float(np.sum((24.0 * a * B[: n - 1]) ** 2 + 3.0 * pow_or_inf(4.0 * a, 2))))
    return L_H, U_g, U_H, 0.0


def _rosenbrock_value(x: Array, a: float) -> float:
    r = x[1:] - x[:-1] ** 2
    return float(a * (r**2).sum() + ((1.0 - x[:-1]) ** 2).sum())


def _rosenbrock_gradient(x: Array, a: float) -> Array:
    g = np.zeros_like(x)
    r = x[1:] - x[:-1] ** 2
    g[:-1] = -4.0 * a * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 2.0 * a * r
    return g


def _rosenbrock_bands(x: Array, a: float) -> tuple[Array, Array]:
    """Diagonal and off-diagonal of the tridiagonal Rosenbrock Hessian."""
    diag = np.zeros_like(x)
    diag[:-1] = 12.0 * a * x[:-1] ** 2 - 4.0 * a * x[1:] + 2.0
    diag[1:] += 2.0 * a
    off = -4.0 * a * x[:-1]
    return diag, off


def _tridiagonal(bands: tuple[Array, Array]) -> Array:
    """The symmetric tridiagonal matrix ``(diag, off)`` as a fresh dense array."""
    diag, off = bands
    n = diag.size
    H = np.zeros((n, n))
    H.flat[:: n + 1] = diag
    H.flat[1 :: n + 1] = off
    H.flat[n :: n + 1] = off
    return H


def _tridiagonal_norm(bands: tuple[Array, Array]) -> float:
    """The 2-norm of the symmetric tridiagonal matrix ``(diag, off)``: its
    largest |eigenvalue|, by a dense ``eigvalsh``. The bands alone would give
    it in O(n) through LAPACK ``dstebz``, but the exact path loads no scipy."""
    return float(np.abs(np.linalg.eigvalsh(_tridiagonal(bands))).max())


def rosenbrock(
    name: str,
    n: int,
    x0,
    branch_coverage,
    coverage_config: SolverConfig,
    a: float = 100.0,
) -> SuiteProblem:
    """Chained Rosenbrock valley in n >= 2 dimensions with factor ``a``."""
    if n < 2:
        raise ValueError(f"{name}: a chain needs n >= 2, got n = {n}")
    if not 0.0 < a < math.inf:
        raise ValueError(f"{name}: a must be positive and finite, got {a}")
    x0 = _finite(name, "x0", x0, n, f"n = {n}")
    if np.all(x0 == 1.0):
        # f(x0) = 0: the level set is the single point x0.
        raise ValueError(f"{name}: the start point is the minimizer (1, ..., 1)")
    return _suite_problem(
        name, x0, np.ones(n), _rosenbrock_constants(n, a, x0),
        lambda x: _rosenbrock_value(x, a), lambda x: _rosenbrock_gradient(x, a),
        lambda x: _rosenbrock_bands(x, a), banded_product, _tridiagonal, _tridiagonal_norm,
        branch_coverage, coverage_config,
    )


def _minus(a, b):
    """``a - b`` entry by entry, for coefficients in one array or in a tuple of bands."""
    return tuple(map(np.subtract, a, b)) if isinstance(a, tuple) else a - b


def verify_constants(
    problem: SuiteProblem, n_points: int = 40, seed: int = 20240
) -> None:
    """Check the declared constants by sampling inside the level set.

    Points are generated by a random walk from the start point that only
    accepts moves staying in the level set, plus blends toward the known
    minimizer, so the check works in any dimension. Violations raise; the
    declared margins mean an honest declaration always passes.

    The walk's step does not scale with n, so in high dimension a step
    almost never stays in the level set: on a 2000-D double-well the walk
    accepts no move, and the checks run at x0 and the blends toward x_star
    only.

    Each norm is taken from the Hessian coefficients of a point, and only
    those are kept, never a matrix. A Hessian is linear in its coefficients
    entry by entry, so the Hessian difference of two points is the Hessian
    of their coefficient difference.
    """
    obj = problem.make_objective()
    x0 = problem.start_point()
    f0 = obj.value(x0)
    pc = problem.constants
    rng = np.random.Generator(np.random.Philox(seed))

    # Each sampled point with its f, kept from the sampling.
    points, values = [x0], [f0]
    x = x0.copy()
    scale = 0.15 * (1.0 + float(np.max(np.abs(x0))))
    for _ in range(4 * n_points):
        y = x + scale * rng.standard_normal(problem.dim)
        f_y = obj.value(y)
        if f_y <= f0:
            points.append(y)
            values.append(f_y)
            x = y
        if len(points) >= n_points:
            break
    x_star = np.asarray(problem.x_star)
    for t in (0.25, 0.5, 0.75, 1.0):
        y = x_star + t * (x0 - x_star)
        f_y = obj.value(y)
        if f_y <= f0:
            points.append(y)
            values.append(f_y)

    coeffs = [problem._coefficients(p) for p in points]
    for p, f_p, c in zip(points, values, coeffs):
        if f_p < pc.f_low - 1e-12:
            raise ConstantsError(f"{problem.name}: sampled f below declared f_low")
        gn = norm(obj.gradient(p))
        if gn > pc.U_g:
            raise ConstantsError(
                f"{problem.name}: sampled gradient norm {gn:.6g} exceeds U_g {pc.U_g:.6g}"
            )
        hn = problem._hessian_norm(c)
        if hn > pc.U_H:
            raise ConstantsError(
                f"{problem.name}: sampled Hessian norm {hn:.6g} exceeds U_H {pc.U_H:.6g}"
            )
    for i in range(len(points) - 1):
        dx = norm(points[i + 1] - points[i])
        if dx == 0.0:
            continue
        dh = problem._hessian_norm(_minus(coeffs[i + 1], coeffs[i]))
        if dh > pc.L_H * dx:
            raise ConstantsError(
                f"{problem.name}: sampled Hessian variation {dh / dx:.6g} exceeds "
                f"L_H {pc.L_H:.6g}"
            )


# Problem builders in suite order. A problem is built, and its constants
# verified, the first time it is looked up.
_BUILDERS = {
    "quad-convex-2d": functools.partial(
        separable_quartic,
        d=[1.0, 2.0],
        beta=0.0,
        c0=0.0,
        x0=[1.0, 1.0],
        branch_coverage=[StepKind.NEWTON],
        coverage_config=SolverConfig(eps_g=1e-6, eps_H=0.5),
    ),
    "quad-convex-10d": functools.partial(
        separable_quartic,
        d=np.logspace(0.0, 2.0, 10),
        beta=0.0,
        c0=0.0,
        x0=np.full(10, 0.8),
        branch_coverage=[StepKind.NEWTON],
        coverage_config=SolverConfig(eps_g=1e-6, eps_H=0.5),
    ),
    "quartic-saddle-2d": functools.partial(
        separable_quartic,
        d=[-1.0, -1.0],
        beta=1.0,
        c0=0.5,
        x0=[0.0, 0.0],
        branch_coverage=[StepKind.NEGATIVE_CURVATURE],
        coverage_config=SolverConfig(eps_g=1e-5, eps_H=0.1),
    ),
    "quartic-offset-2d": functools.partial(
        separable_quartic,
        d=[-1.0, -1.0],
        beta=1.0,
        c0=0.5,
        x0=[0.5, 0.4],
        branch_coverage=[StepKind.SCALED_NEG_CURV_GRADIENT, StepKind.NEWTON],
        coverage_config=SolverConfig(eps_g=1e-5, eps_H=0.1),
    ),
    "quartic-saddle-50d": functools.partial(
        separable_quartic,
        d=np.full(50, -1.0),
        beta=1.0,
        c0=12.5,
        x0=np.zeros(50),
        branch_coverage=[StepKind.NEGATIVE_CURVATURE],
        coverage_config=SolverConfig(eps_g=1e-4, eps_H=1e-2),
    ),
    "quartic-convex-4d": functools.partial(
        separable_quartic,
        d=np.ones(4),
        beta=1.0,
        c0=0.0,
        x0=np.full(4, 1.5),
        branch_coverage=[StepKind.NEWTON],
        coverage_config=SolverConfig(eps_g=1e-3, eps_H=0.5),
    ),
    "reg-newton-2d": functools.partial(
        separable_quartic,
        d=[1.0, -0.05],
        beta=[0.0, 0.05],
        c0=0.0125,
        x0=[1.0, 0.9],
        branch_coverage=[StepKind.REGULARIZED_NEWTON],
        coverage_config=SolverConfig(eps_g=1e-4, eps_H=0.5),
    ),
    "flat-1d": functools.partial(
        separable_quartic,
        d=[0.05],
        beta=0.0,
        c0=0.0,
        x0=[10.0],
        branch_coverage=[StepKind.NORMALIZED_GRADIENT],
        coverage_config=SolverConfig(eps_g=1e-3, eps_H=0.1),
    ),
    "rosenbrock-2d": functools.partial(
        rosenbrock,
        n=2,
        x0=[-1.2, 1.0],
        branch_coverage=[StepKind.NEWTON],
        coverage_config=SolverConfig(eps_g=1e-5, eps_H=1e-3),
    ),
    "rosenbrock-10d": functools.partial(
        rosenbrock,
        n=10,
        x0=[-1.2 if i % 2 == 0 else 1.0 for i in range(10)],
        branch_coverage=[StepKind.NEWTON],
        coverage_config=SolverConfig(eps_g=1e-5, eps_H=1e-2),
    ),
}


@functools.cache
def get_problem(name: str) -> SuiteProblem:
    """The suite problem ``name``, built and verified on first use."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}") from None
    return build(name)


def suite() -> list[SuiteProblem]:
    """The built-in problem set, in suite order; each is verified once."""
    return [get_problem(name) for name in _BUILDERS]


def problem_names() -> list[str]:
    return list(_BUILDERS)

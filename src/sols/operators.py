"""Matrix-free objective interface, evaluation counters, and derivative checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class DerivativeCheckError(RuntimeError):
    """Non-finite value or gradient at a finite-difference probe point."""


class NonFiniteError(ValueError):
    """An objective callback returned a non-finite value, gradient or product."""


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness and level-set constants declared by a problem.

    ``L_g`` and ``L_H`` are Lipschitz constants of the gradient and Hessian,
    ``U_g`` and ``U_H`` bound the gradient and Hessian norms on the level set
    of the canonical start point, and ``f_low`` bounds the objective from
    below on that level set. Constants are declared, never estimated: all
    cap and envelope checks are stated in terms of them, so estimation error
    must not leak into those checks.
    """

    L_g: float
    L_H: float
    U_g: float
    U_H: float
    f_low: float

    def __post_init__(self) -> None:
        if self.L_g < 0.0 or self.L_H < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")
        if self.U_g <= 0.0 or self.U_H <= 0.0:
            raise ValueError("U_g and U_H must be positive")
        if not np.isfinite(self.f_low):
            raise ValueError("f_low must be finite")


@dataclass
class EvalCounters:
    """Counts of objective, gradient, and Hessian-vector evaluations."""

    n_f: int = 0
    n_grad: int = 0
    n_hv: int = 0

    def snapshot(self) -> EvalCounters:
        return EvalCounters(self.n_f, self.n_grad, self.n_hv)

    def restore(self, other: EvalCounters) -> None:
        self.n_f = other.n_f
        self.n_grad = other.n_grad
        self.n_hv = other.n_hv

    @property
    def grad_plus_hv(self) -> int:
        return self.n_grad + self.n_hv


class Objective:
    """A smooth objective accessed through value / gradient / Hessian-vector calls.

    Evaluation counters live here, not in the solver loops, so that
    line-search probes and inner solver iterations are counted uniformly.
    Counters are per-instance: distinct runs must own distinct instances.
    A dense Hessian callable is optional; the exact solver path and the test
    oracles need it, the inexact path does not.
    """

    def __init__(
        self,
        dim: int,
        value,
        gradient,
        hessian_vector,
        dense_hessian=None,
        constants: ProblemConstants | None = None,
        name: str = "objective",
    ):
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self._value = value
        self._gradient = gradient
        self._hessian_vector = hessian_vector
        self._dense_hessian = dense_hessian
        self.constants = constants
        self.name = name
        self.counters = EvalCounters()

    @property
    def has_dense_hessian(self) -> bool:
        return self._dense_hessian is not None

    def value(self, x: Array) -> float:
        self.counters.n_f += 1
        return float(self._value(x))

    def gradient(self, x: Array) -> Array:
        self.counters.n_grad += 1
        return np.asarray(self._gradient(x), dtype=float)

    def hessian_vector(self, x: Array, v: Array) -> Array:
        self.counters.n_hv += 1
        return np.asarray(self._hessian_vector(x, v), dtype=float)

    def dense_hessian(self, x: Array) -> Array:
        if self._dense_hessian is None:
            raise ValueError(f"objective {self.name!r} does not provide a dense Hessian")
        return np.asarray(self._dense_hessian(x), dtype=float)


@dataclass(frozen=True)
class DerivativeReport:
    """Max relative finite-difference errors of the declared derivatives."""

    grad_max_rel_error: float
    hv_max_rel_error: float
    h: float


def default_fd_step(x: Array) -> float:
    # Cube root of machine epsilon balances truncation against roundoff
    # for central differences; scale by the iterate size.
    return float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.max(np.abs(x))))


def check_derivatives(
    obj: Objective,
    x: Array,
    h: float | None = None,
    directions: Array | None = None,
) -> DerivativeReport:
    """Validate gradient and Hessian-vector callables against central differences.

    The gradient is compared per component with a central difference of the
    value; the Hessian-vector product is compared with a central difference
    of the gradient along each column of ``directions`` (coordinate basis by
    default). Counters are restored afterwards, so the check never perturbs
    benchmark accounting.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = default_fd_step(x)
    if h <= 0.0:
        raise ValueError("finite-difference step h must be positive")
    if directions is None:
        directions = np.eye(obj.dim)

    saved = obj.counters.snapshot()
    try:
        g = obj.gradient(x)
        grad_err = 0.0
        for i in range(obj.dim):
            e = np.zeros(obj.dim)
            e[i] = h
            fp = obj.value(x + e)
            fm = obj.value(x - e)
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise DerivativeCheckError(
                    f"non-finite value at probe for coordinate {i}"
                )
            fd = (fp - fm) / (2.0 * h)
            grad_err = max(grad_err, abs(fd - g[i]) / max(1.0, abs(g[i])))

        hv_err = 0.0
        for v in np.asarray(directions, dtype=float).T:
            hv = obj.hessian_vector(x, v)
            gp = obj.gradient(x + h * v)
            gm = obj.gradient(x - h * v)
            if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
                raise DerivativeCheckError("non-finite gradient at probe point")
            fd = (gp - gm) / (2.0 * h)
            hv_err = max(
                hv_err,
                float(np.max(np.abs(fd - hv))) / max(1.0, float(np.max(np.abs(hv)))),
            )
    finally:
        obj.counters.restore(saved)

    return DerivativeReport(grad_max_rel_error=grad_err, hv_max_rel_error=hv_err, h=h)


def rayleigh_quotient(obj: Objective, x: Array, g: Array) -> float:
    """Curvature of the objective along ``g``: g'Hg / ||g||^2.

    Costs exactly one Hessian-vector product. The caller must not pass a
    zero vector; the zero-gradient case is routed to the second-order
    branch before any curvature evaluation.
    """
    g = np.asarray(g, dtype=float)
    gn2 = float(g @ g)
    if gn2 == 0.0:
        raise ValueError("rayleigh_quotient requires a nonzero vector")
    hg = obj.hessian_vector(x, g)
    return float(g @ hg) / gn2

"""Matrix-free objective interface, evaluation counters, the curvature ratio,
the float64 overflow rule and the symmetric tridiagonal product."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

Array = np.ndarray
FLOAT64 = np.dtype(float)


class NonFiniteError(ValueError):
    """An objective callback returned a non-finite value, gradient or product."""


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness and level-set constants declared by a problem.

    ``L_H`` is a Lipschitz constant of the Hessian, ``U_g`` and ``U_H``
    bound the gradient and Hessian norms on the level set of the canonical
    start point, and ``f_low`` bounds the objective from below on that level
    set. Constants are declared, never estimated: all cap and envelope
    checks are stated in terms of them, so estimation error must not leak
    into those checks.
    """

    L_H: float
    U_g: float
    U_H: float
    f_low: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.L_H < math.inf:
            raise ValueError(f"L_H must be nonnegative and finite, got {self.L_H}")
        if not (0.0 < self.U_g < math.inf and 0.0 < self.U_H < math.inf):
            raise ValueError(
                f"U_g and U_H must be positive and finite, got {self.U_g} and {self.U_H}"
            )
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

    A callback's result passes as it is when it already has the expected
    form: a Python ``float`` from ``value``, or a float64 ``ndarray`` of the
    expected shape from the others, which is then the callback's own array.
    Any other result is converted to float64, a ``value`` result to a Python
    ``float``; booleans, integers and other float widths convert. A result
    of the wrong shape raises a ValueError naming the callback and both
    shapes, and one that numpy reads as complex, string or object values
    (``None`` included) one naming the callback and the dtype.

    A gradient callback may return one buffer that it overwrites on each
    call: the solvers read everything they need from a gradient before they
    ask for the next one. Hessian-vector results are used before the next
    product, so the same holds for them.
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
        # bool is an int subclass, but True is no dimension.
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        self.dim = int(dim)
        self._value = value
        self._gradient = gradient
        self._hessian_vector = hessian_vector
        self._dense_hessian = dense_hessian
        self.constants = constants
        self.name = name
        self.counters = EvalCounters()

    # Each call below tests the expected form inline and calls ``_array``
    # only for a result that fails it: these run once per oracle call.

    def value(self, x: Array) -> float:
        self.counters.n_f += 1
        out = self._value(x)
        return out if type(out) is float else float(self._array(out, "value", ()))

    def gradient(self, x: Array) -> Array:
        self.counters.n_grad += 1
        out = self._gradient(x)
        if type(out) is Array and out.dtype is FLOAT64 and out.shape == (self.dim,):
            return out
        return self._array(out, "gradient", (self.dim,))

    def hessian_vector(self, x: Array, v: Array) -> Array:
        self.counters.n_hv += 1
        out = self._hessian_vector(x, v)
        if type(out) is Array and out.dtype is FLOAT64 and out.shape == (self.dim,):
            return out
        return self._array(out, "hessian_vector", (self.dim,))

    def require_dense_hessian(self) -> None:
        if self._dense_hessian is None:
            raise ValueError(f"objective {self.name!r} does not provide a dense Hessian")

    def dense_hessian(self, x: Array) -> Array:
        self.require_dense_hessian()
        out = self._dense_hessian(x)
        shape = (self.dim, self.dim)
        if type(out) is Array and out.dtype is FLOAT64 and out.shape == shape:
            return out
        return self._array(out, "dense_hessian", shape)

    def _array(self, out, callback: str, shape: tuple[int, ...]) -> Array:
        """A callback's result as a float64 array, or a ValueError unless it
        holds real numbers in ``shape``."""
        out = np.asarray(out)
        if out.dtype.kind not in "biuf":
            raise ValueError(
                f"objective {self.name!r}: {callback} returned {out.dtype} values, "
                "expected real numbers"
            )
        out = np.asarray(out, dtype=float)
        if out.shape != shape:
            raise ValueError(
                f"objective {self.name!r}: {callback} returned shape {out.shape}, "
                f"expected {shape}"
            )
        return out


def rayleigh_quotient(obj: Objective, x: Array, g: Array) -> float:
    """Curvature of the objective along ``g``: g'Hg / ||g||^2.

    Costs exactly one Hessian-vector product. The caller must not pass a
    zero vector; the zero-gradient case is routed to the second-order
    branch before any curvature evaluation.
    """
    g = np.asarray(g, dtype=float)
    gn2 = float(g.dot(g))
    if gn2 == 0.0:
        raise ValueError("rayleigh_quotient requires a nonzero vector")
    hg = obj.hessian_vector(x, g)
    return float(g.dot(hg)) / gn2


def pow_or_inf(base: float, p: float) -> float:
    """base**p, or +inf where it overflows: the true value is above every float."""
    try:
        return base**p
    except OverflowError:
        return math.inf


def norm(v: Array) -> float:
    """``float(np.linalg.norm(v))`` of a float vector, by the same operations
    without its dispatch: a strided vector is copied first, as numpy does."""
    v = v.ravel()
    return math.sqrt(float(v.dot(v)))


def banded_product(bands: tuple[Array, Array], v: Array) -> Array:
    """Product of the symmetric tridiagonal matrix ``(diag, off)`` with v, as a
    fresh array."""
    diag, off = bands
    out = diag * v
    # An add into a view taken once: ``out[:-1] += ...`` would also copy the
    # sum back onto the slice it was computed in.
    head, tail = out[:-1], out[1:]
    np.add(head, np.multiply(off, v[1:]), head)
    np.add(tail, np.multiply(off, v[:-1]), tail)
    return out

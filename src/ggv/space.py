"""Scalar action, norm values, and the gyrometric calculus.

A generalized gyrovector space couples a gyrocommutative gyrogroup ``(G, (+))``
with a scalar action ``(x)`` and an injection ``phi`` of the carrier into a
real normed space.  The signed norm values ``{+-|phi(a)|}`` form a
one-dimensional real linear space under model-supplied operations ``(+)'``
and ``(x)'``; crucially this linear structure need not be the usual one on
the real line, and its zero element need not be the real number ``0``.  The
bijection ``lin`` carries the norm-value line onto the reals, is additive and
homogeneous for the primed operations, and is order preserving on the
nonnegative part.

Distances come in two flavours:

* the gyrometric ``rho(a, b) = |phi(a (-) b)|``, a norm value, which may fail
  the metric axioms (its value at ``a == b`` is the norm of the unit, not
  necessarily ``0``);
* ``metric_distance = lin o rho``, which is always a genuine metric and is
  what every residual in this package is measured in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from .errors import DomainError, PreconditionError
from .gyrogroup import GyroGroupOps, GyroPoint

if TYPE_CHECKING:  # pragma: no cover
    from .models import ModelConfig

# An element of the norm-value set: a plain real carrying the transplanted
# one-dimensional linear structure of its NormValueSpace.
NormValue = float

# Largest linearized residual a check may report and still pass.
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class NormValueSpace:
    """The signed norm values of a model with their linear structure.

    ``contains`` decides membership in the norm-value set, ``lin`` is the
    linearizing bijection onto the reals and ``lin_inv`` its inverse.
    ``zero`` is the zero element of the primed structure, i.e. ``lin(zero) == 0``.
    """

    tag: str
    zero: NormValue
    contains: Callable[[NormValue], bool]
    nv_add: Callable[[NormValue, NormValue], NormValue]
    nv_smul: Callable[[float, NormValue], NormValue]
    lin: Callable[[NormValue], float]
    lin_inv: Callable[[float], NormValue]


@dataclass(frozen=True, eq=False)
class GgvModel:
    """A concrete generalized gyrovector space.

    Bundles the gyrogroup operations, the scalar action, the injection into
    the ambient normed space, and the norm-value line.  ``distance`` is the
    kernel of the linearized gyrometric: it must agree with
    ``lin o gyrometric`` (the suite cross-checks this), but may be formulated
    to avoid the cancellation that the composed route suffers near a ball
    boundary.

    ``ops(lib)`` returns the model's kernels in ``lib``'s form (see
    :func:`ggv.models._model`).  It is not a constructor argument, so a model
    built by hand or rebuilt with ``dataclasses.replace`` has none, and its
    own kernels are lifted wherever another form is needed.
    """

    config: "ModelConfig"
    group: GyroGroupOps
    otimes: Callable[[float, GyroPoint], GyroPoint]
    phi: Callable[[GyroPoint], tuple[float, ...]]
    ambient_norm: Callable[[tuple[float, ...]], float]
    nvs: NormValueSpace
    distance: Callable[[GyroPoint, GyroPoint], float]
    ops: Callable | None = field(default=None, init=False, repr=False)

    @property
    def tag(self) -> str:
        return self.group.tag

    @property
    def identity(self) -> GyroPoint:
        return self.group.identity


def _require_member(s: NormValueSpace, value: NormValue) -> NormValue:
    # Results are checked too: tanh saturates at the edge of the rapidity line.
    if not s.contains(value):
        raise DomainError(f"{value!r} is not in the norm-value set of {s.tag}")
    return value


def _finite_scalar(r: float) -> float:
    r = float(r)
    if not math.isfinite(r):
        raise DomainError(f"scalar {r!r} is not a finite real")
    return r


def _count(n: int, name: str = "n_samples") -> None:
    """Raise :class:`PreconditionError` unless the count ``n``, of samples or
    of a map's primitives, is an integer >= 1: a check over no samples would
    pass vacuously."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise PreconditionError(f"{name} must be >= 1 and an integer, got {n!r}")


def otimes(m: GgvModel, r: float, a: GyroPoint) -> GyroPoint:
    """Scalar action ``r (x) a``.

    ``1 (x) a == a`` and ``0 (x) a == e``; the action is additive and
    multiplicative in the scalar.
    """
    m.group.validate(a)
    return m.otimes(_finite_scalar(r), a)


def gnorm(m: GgvModel, a: GyroPoint) -> NormValue:
    """Norm value ``|phi(a)|`` of a carrier point.

    Equals ``m.nvs.zero`` exactly at the unit; beware that this zero element
    is the real number ``1`` in the pathological model.
    """
    m.group.validate(a)
    return _gnorm(m, a)


def _gnorm(m: GgvModel, a: GyroPoint) -> NormValue:
    # gnorm on a point known to be in the carrier, or on a block.
    return m.ambient_norm(m.phi(a))


def nv_add(s: NormValueSpace, A: NormValue, B: NormValue) -> NormValue:
    """Transplanted vector addition ``A (+)' B`` on the norm-value line."""
    _require_member(s, A)
    _require_member(s, B)
    return _require_member(s, s.nv_add(A, B))


def nv_smul(s: NormValueSpace, r: float, A: NormValue) -> NormValue:
    """Transplanted scalar multiplication ``r (x)' A`` on the norm-value line."""
    _require_member(s, A)
    return _require_member(s, s.nv_smul(_finite_scalar(r), A))


def linearize(s: NormValueSpace, A: NormValue) -> float:
    """Image of a norm value under the linearizing bijection onto the reals."""
    _require_member(s, A)
    return s.lin(A)


def delinearize(s: NormValueSpace, t: float) -> NormValue:
    """Preimage of a real under the linearizing bijection."""
    return _require_member(s, s.lin_inv(float(t)))


def nv_le_nonneg(s: NormValueSpace, A: NormValue, B: NormValue) -> bool:
    """Order comparison ``A <= B`` on the nonnegative part of the norm-value set.

    The order equivalence with ``lin`` is only guaranteed for nonnegative
    reals, so negative inputs are rejected rather than compared.
    """
    _require_member(s, A)
    _require_member(s, B)
    if A < 0.0 or B < 0.0:
        raise DomainError("order comparison is defined on the nonnegative part only")
    return A <= B


def gyrometric(m: GgvModel, a: GyroPoint, b: GyroPoint) -> NormValue:
    """Gyrometric ``rho(a, b) = |phi(a (-) b)|``, returned as a norm value."""
    m.group.validate(a)
    m.group.validate(b)
    return _gyrometric(m, a, b)


def _gyrometric(m: GgvModel, a: GyroPoint, b: GyroPoint) -> NormValue:
    # gyrometric on points known to be in the carrier, or on blocks.
    return _gnorm(m, m.group.add(a, m.group.inv(b)))


def gyromidpoint(m: GgvModel, a: GyroPoint, b: GyroPoint) -> GyroPoint:
    """Gyromidpoint ``P(a, b) = (1/2) (x) (a [+] b)``.

    Evaluated through the equivalent translated form
    ``a (+) (1/2) (x) ((-)a (+) b)``, whose intermediates stay at the
    rapidity of the inputs; the coaddition form doubles rapidity in the ball
    models and is kept as the independently checked route in the suite.
    The midpoint is equidistant from ``a`` and ``b`` in the gyrometric.
    """
    m.group.validate(a)
    m.group.validate(b)
    return _midpoint(m, a, b)


def _midpoint(m: GgvModel, a: GyroPoint, b: GyroPoint) -> GyroPoint:
    # gyromidpoint on points known to be in the carrier, or on blocks.
    g = m.group
    return g.add(a, m.otimes(0.5, g.add(g.inv(a), b)))


def metric_distance(m: GgvModel, a: GyroPoint, b: GyroPoint) -> float:
    """Linearized gyrometric ``lin(rho(a, b))``: a true metric on the carrier.

    This is the residual measure used throughout the verification suites.
    """
    m.group.validate(a)
    m.group.validate(b)
    return m.distance(a, b)


def worst_residual(worst: float, residual: float) -> float:
    """The larger of two residuals, a non-finite one counting as ``+inf``.

    ``max`` would drop a NaN residual and let its check pass, while ``+inf``
    fails every tolerance.
    """
    if not (math.isfinite(worst) and math.isfinite(residual)):
        return math.inf
    return residual if residual > worst else worst


def worst_rows(*columns: np.ndarray) -> np.ndarray:
    """``worst_residual`` row by row over residual columns: ``+inf`` on a row
    where any of them is non-finite."""
    worst = np.maximum.reduce(columns)
    return np.where(np.isfinite(columns).all(axis=0), worst, np.inf)


def worst_of(residuals: np.ndarray) -> float:
    """``worst_residual`` folded over a column of residuals, from ``0``."""
    if not np.isfinite(residuals).all():
        return math.inf
    return worst_residual(0.0, float(residuals.max())) if residuals.size else 0.0


class Report:
    """JSON form shared by the frozen report dataclasses.

    ``to_dict`` writes the class-level ``PROPERTY`` (when set) under
    ``property``, then each field under its own name, except ``passed``,
    which is written as ``pass``.  A point is written as its coordinates and
    a tuple as a list.
    """

    PROPERTY: ClassVar[str] = ""

    def to_dict(self) -> dict:
        out = {"property": self.PROPERTY} if self.PROPERTY else {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, GyroPoint):
                value = list(value.coords)
            elif isinstance(value, tuple):
                value = list(value)
            out["pass" if f.name == "passed" else f.name] = value
        return out

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import DomainError
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
    the ambient normed space, and the norm-value line.  ``distance`` is an
    optional stable kernel for the linearized gyrometric: it must agree with
    ``lin o gyrometric`` (the suite cross-checks this), but may be formulated
    to avoid the cancellation that the composed route suffers near a ball
    boundary.
    """

    config: "ModelConfig"
    group: GyroGroupOps
    otimes: Callable[[float, GyroPoint], GyroPoint]
    phi: Callable[[GyroPoint], tuple[float, ...]]
    ambient_norm: Callable[[tuple[float, ...]], float]
    nvs: NormValueSpace
    distance: Callable[[GyroPoint, GyroPoint], float] | None = None

    @property
    def tag(self) -> str:
        return self.group.tag

    @property
    def identity(self) -> GyroPoint:
        return self.group.identity


def _require_member(s: NormValueSpace, value: NormValue) -> None:
    if not s.contains(value):
        raise DomainError(f"{value!r} is not in the norm-value set of {s.tag}")


def otimes(m: GgvModel, r: float, a: GyroPoint) -> GyroPoint:
    """Scalar action ``r (x) a``.

    ``1 (x) a == a`` and ``0 (x) a == e``; the action is additive and
    multiplicative in the scalar.
    """
    m.group.validate(a)
    return m.otimes(float(r), a)


def gnorm(m: GgvModel, a: GyroPoint) -> NormValue:
    """Norm value ``|phi(a)|`` of a carrier point.

    Equals ``m.nvs.zero`` exactly at the unit; beware that this zero element
    is the real number ``1`` in the pathological model.
    """
    m.group.validate(a)
    return m.ambient_norm(m.phi(a))


def nv_add(s: NormValueSpace, A: NormValue, B: NormValue) -> NormValue:
    """Transplanted vector addition ``A (+)' B`` on the norm-value line."""
    _require_member(s, A)
    _require_member(s, B)
    return s.nv_add(A, B)


def nv_smul(s: NormValueSpace, r: float, A: NormValue) -> NormValue:
    """Transplanted scalar multiplication ``r (x)' A`` on the norm-value line."""
    _require_member(s, A)
    return s.nv_smul(float(r), A)


def linearize(s: NormValueSpace, A: NormValue) -> float:
    """Image of a norm value under the linearizing bijection onto the reals."""
    _require_member(s, A)
    return s.lin(A)


def delinearize(s: NormValueSpace, t: float) -> NormValue:
    """Preimage of a real under the linearizing bijection."""
    A = s.lin_inv(float(t))
    if not s.contains(A):
        # lin_inv is a bijection onto the norm-value set, so this can only
        # trigger on a mis-specified model.
        raise RuntimeError(f"lin_inv of {s.tag} left the norm-value set: {t!r} -> {A!r}")
    return A


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
    # gyrometric for points that package code sampled or computed.
    diff = m.group.add(a, m.group.inv(b))
    return m.ambient_norm(m.phi(diff))


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
    # gyromidpoint for points that package code sampled or computed.
    g = m.group
    return g.add(a, m.otimes(0.5, g.add(g.inv(a), b)))


def metric_distance(m: GgvModel, a: GyroPoint, b: GyroPoint) -> float:
    """Linearized gyrometric ``lin(rho(a, b))``: a true metric on the carrier.

    This is the residual measure used throughout the verification suites.
    """
    m.group.validate(a)
    m.group.validate(b)
    return _distance(m, a, b)


def _distance(m: GgvModel, a: GyroPoint, b: GyroPoint) -> float:
    # metric_distance for points that package code sampled or computed.
    if m.distance is not None:
        return m.distance(a, b)
    return m.nvs.lin(_gyrometric(m, a, b))


def worst_residual(worst: float, residual: float) -> float:
    """The larger of two residuals, a non-finite one counting as ``+inf``.

    ``max`` would drop a NaN residual and let its check pass, while ``+inf``
    fails every tolerance.
    """
    if not (math.isfinite(worst) and math.isfinite(residual)):
        return math.inf
    return residual if residual > worst else worst

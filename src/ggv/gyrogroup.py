"""Model-agnostic gyrogroup layer.

A gyrogroup is a group-like structure in which associativity is replaced by
the gyroassociative law: the failure of associativity is controlled by a
two-parameter family of automorphisms ``gyr[u, v]``, the gyrations.  Every
carrier implemented in this package is gyrocommutative, meaning
``a (+) b == gyr[a, b](b (+) a)``.

The functions here are written against :class:`GyroGroupOps`, a bundle of
callables supplied by a concrete model, so the algebraic layer never sees a
coordinate formula.  The laws the bundle must satisfy (left cancellation,
gyrocommutativity, the gyroautomorphism property, the left loop property, and
the composition identity ``gyr[u, v]a == (-)(u (+) v) (+) (u (+) (v (+) a))``)
are checked at scale by :mod:`ggv.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class GyroPoint:
    """Element of a gyrogroup carrier, tagged with the model it belongs to.

    ``coords`` is a tuple of floats: the single transplanted coordinate for
    the pathological line model, an ambient vector for everything else.
    """

    model_tag: str
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)


def _point(tag: str, coords: tuple[float, ...]) -> GyroPoint:
    """Package-private constructor for a tuple of floats that package code computed.

    Kernels and samplers build millions of points whose coordinates are
    already floats, so they skip the coercion in ``__post_init__``.  Filling
    the instance dict is the cheapest way past the frozen ``__setattr__``.
    """
    p = object.__new__(GyroPoint)
    fields = p.__dict__
    fields["model_tag"] = tag
    fields["coords"] = coords
    return p


@dataclass(frozen=True, eq=False)
class GyroGroupOps:
    """Operation bundle for one gyrogroup carrier.

    ``validate`` raises :class:`ggv.errors.DomainError` for points outside
    the carrier; the kernels ``add``, ``inv`` and ``gyr`` trust their inputs.
    """

    tag: str
    identity: GyroPoint
    add: Callable[[GyroPoint, GyroPoint], GyroPoint]
    inv: Callable[[GyroPoint], GyroPoint]
    gyr: Callable[[GyroPoint, GyroPoint, GyroPoint], GyroPoint]
    validate: Callable[[GyroPoint], None]


def oplus(m: GyroGroupOps, a: GyroPoint, b: GyroPoint) -> GyroPoint:
    """Gyrogroup sum ``a (+) b``."""
    m.validate(a)
    m.validate(b)
    return m.add(a, b)


def ominus(m: GyroGroupOps, a: GyroPoint) -> GyroPoint:
    """Gyrogroup inverse ``(-)a``, the unique solution of ``(-)a (+) a == e``."""
    m.validate(a)
    return m.inv(a)


def gyr_apply(m: GyroGroupOps, u: GyroPoint, v: GyroPoint, a: GyroPoint) -> GyroPoint:
    """Apply the gyration ``gyr[u, v]`` to ``a``.

    Models supply a closed form; :func:`gyr_via_composition` is the
    independent route used to cross-check it.
    """
    m.validate(u)
    m.validate(v)
    m.validate(a)
    return m.gyr(u, v, a)


def gyr_via_composition(m: GyroGroupOps, u: GyroPoint, v: GyroPoint, a: GyroPoint) -> GyroPoint:
    """Evaluate ``gyr[u, v]a`` as ``(-)(u (+) v) (+) (u (+) (v (+) a))``.

    This composition of three sums is the defining expression of the
    gyration and serves as the oracle for any closed form.
    """
    m.validate(u)
    m.validate(v)
    m.validate(a)
    return _gyr_via_composition(m, u, v, a)


def _gyr_via_composition(m: GyroGroupOps, u, v, a):
    # gyr_via_composition on points known to be in the carrier, or on blocks.
    return m.add(m.inv(m.add(u, v)), m.add(u, m.add(v, a)))


def coplus(m: GyroGroupOps, a: GyroPoint, b: GyroPoint) -> GyroPoint:
    """Coaddition ``a [+] b = a (+) gyr[a, (-)b]b``.

    Commutative exactly when the gyrogroup is gyrocommutative, which holds
    for every model shipped here.
    """
    m.validate(a)
    m.validate(b)
    return _coplus(m, a, b)


def _coplus(m: GyroGroupOps, a, b):
    # coplus on points known to be in the carrier, or on blocks.
    return m.add(a, m.gyr(a, m.inv(b), b))

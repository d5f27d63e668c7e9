"""Independent 50-digit reference for the four ggv models.

Every formula here is the textbook definition evaluated directly in mpmath,
without the cancellation-free regroupings, closed-form gyrations or stable
distance kernels of the package, and without importing ``ggv``:

* Einstein and Mobius addition in their usual rational forms;
* gyration by its defining composition ``(-)(u (+) v) (+) (u (+) (v (+) w))``;
* the ball scalar action ``s tanh(r artanh(|v|/s)) v/|v|``;
* distance ``lin(|(-)u (+) v|)``, which is ``s artanh(|(-)u (+) v|/s)`` on
  the balls, and the gyromidpoint ``(1/2) (x) (a [+] b)``;
* the pathological line as the additive reals transplanted through
  ``Phi(x) = exp(x)`` for ``x >= 0`` and ``-exp(-x)`` otherwise.
"""

from __future__ import annotations

from typing import Sequence

from mpmath import MPContext

DIGITS = 50

_mp = MPContext()
_mp.dps = DIGITS

Vector = tuple


def _vec(x: Sequence) -> Vector:
    return tuple(_mp.mpf(c) for c in x)


def _dot(u: Vector, v: Vector):
    return _mp.fsum(a * b for a, b in zip(u, v))


def _norm(u: Vector):
    return _mp.sqrt(_dot(u, u))


def _phi(x):
    return _mp.exp(x) if x >= 0 else -_mp.exp(-x)


def _phi_inv(a):
    if a >= 1:
        return _mp.log(a)
    if a < -1:
        return -_mp.log(-a)
    raise ValueError(f"{a} is outside (-inf, -1) union [1, inf)")


class Oracle:
    """Reference operations of one model, on coordinates given as floats or mpf.

    Results are tuples of 50-digit mpf values (plain mpf for distances).
    """

    def __init__(self, kind: str, s: float = 1.0):
        if kind not in ("normed", "einstein", "mobius", "pathological"):
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.s = _mp.mpf(s)

    def add(self, u: Sequence, v: Sequence) -> Vector:
        u, v = _vec(u), _vec(v)
        if self.kind == "normed":
            return tuple(a + b for a, b in zip(u, v))
        if self.kind == "pathological":
            return (_phi(_phi_inv(u[0]) + _phi_inv(v[0])),)
        s2 = self.s ** 2
        uv = _dot(u, v)
        if self.kind == "einstein":
            gamma_u = 1 / _mp.sqrt(1 - _dot(u, u) / s2)
            coeff = gamma_u / (s2 * (1 + gamma_u)) * uv
            return tuple((a + b / gamma_u + coeff * a) / (1 + uv / s2) for a, b in zip(u, v))
        u2, v2 = _dot(u, u), _dot(v, v)
        cu = 1 + 2 * uv / s2 + v2 / s2
        cv = 1 - u2 / s2
        den = 1 + 2 * uv / s2 + u2 * v2 / s2 ** 2
        return tuple((cu * a + cv * b) / den for a, b in zip(u, v))

    def inv(self, u: Sequence) -> Vector:
        u = _vec(u)
        if self.kind == "pathological":
            return (_phi(-_phi_inv(u[0])),)
        return tuple(-a for a in u)

    def gyr(self, u: Sequence, v: Sequence, w: Sequence) -> Vector:
        return self.add(self.inv(self.add(u, v)), self.add(u, self.add(v, w)))

    def otimes(self, r: float, v: Sequence) -> Vector:
        r, v = _mp.mpf(r), _vec(v)
        if self.kind == "normed":
            return tuple(r * a for a in v)
        if self.kind == "pathological":
            return (_phi(r * _phi_inv(v[0])),)
        n = _norm(v)
        if n == 0:
            return v
        t = self.s * _mp.tanh(r * _mp.atanh(n / self.s))
        return tuple(t * a / n for a in v)

    def lin(self, A):
        """Linearizing bijection of the norm-value line onto the reals."""
        if self.kind == "normed":
            return A
        if self.kind == "pathological":
            return _mp.log(A)
        return self.s * _mp.atanh(A / self.s)

    def distance(self, u: Sequence, v: Sequence):
        """Linearized gyrometric ``lin(|(-)u (+) v|)``."""
        w = self.add(self.inv(u), v)
        return self.lin(abs(w[0]) if self.kind == "pathological" else _norm(w))

    def coplus(self, a: Sequence, b: Sequence) -> Vector:
        return self.add(a, self.gyr(a, self.inv(b), b))

    def midpoint(self, a: Sequence, b: Sequence) -> Vector:
        return self.otimes(0.5, self.coplus(a, b))


def to_floats(x: Vector) -> tuple[float, ...]:
    return tuple(float(c) for c in x)

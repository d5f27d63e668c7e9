"""Concrete generalized gyrovector space models.

Four constructions are provided, selected by :class:`ModelConfig.kind`:

``normed``
    ``R^n`` with vector addition.  Gyrations are the identity, the norm-value
    line is the real line with its usual operations, and the linearization is
    the identity map.

``einstein``
    The open ball of radius ``s`` in ``R^n`` with relativistic velocity
    addition ``u (+) v = (u + v/gamma_u + (gamma_u/(s^2 (1+gamma_u))) <u,v> u)
    / (1 + <u,v>/s^2)``.

``mobius``
    The same ball with Mobius addition
    ``u (+) v = ((1 + 2<u,v>/s^2 + |v|^2/s^2) u + (1 - |u|^2/s^2) v) / (1 +
    2<u,v>/s^2 + |u|^2 |v|^2/s^4)``.

    Both ball models share the scalar action ``r (x) v = s tanh(r artanh(|v|/s))
    v/|v|`` and the norm-value line ``(-s, s)`` carrying the one-dimensional
    relativistic structure, linearized by the rapidity map ``s artanh(./s)``.
    The plain operations ``(A, B) -> A + B`` would violate the homogeneity
    axiom ``|phi(r (x) a)| == |r| (x)' |phi(a)|``, so the transplanted
    structure is forced.

``pathological``
    The set ``(-inf, -1) union [1, inf)`` with the additive group of the
    reals transplanted through the discontinuous bijection ``Phi`` (see
    :func:`path_Phi`).  The unit is ``1`` and the zero element of its
    norm-value line is the real number ``1``, which makes this model the
    stress test for any code tempted to assume that unit norms vanish.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .errors import BoundaryClampWarning, ConfigError, DomainError
from .gyrogroup import GyroGroupOps, GyroPoint, _point
from .space import GgvModel, NormValueSpace

KINDS = ("normed", "einstein", "mobius", "pathological")

# Relative distance from the ball boundary below which results are clamped
# back inside with a warning; gamma factors diverge at the boundary and
# nothing trustworthy lives beyond this shell.
BALL_EDGE = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    """Model selector: kind, ambient dimension, and ball radius.

    ``dim`` is forced to 1 for the pathological model; ``s`` is ignored
    outside the ball models.
    """

    kind: str
    dim: int = 2
    s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise ConfigError(f"dim must be a positive integer, got {self.dim!r}")
        s = self.s
        if not isinstance(s, (int, float)) or isinstance(s, bool) or not math.isfinite(s) or s <= 0:
            raise ConfigError(f"s must be a positive finite real, got {self.s!r}")
        object.__setattr__(self, "s", float(s))
        if self.kind == "pathological":
            object.__setattr__(self, "dim", 1)

    @property
    def tag(self) -> str:
        if self.kind == "pathological":
            return "pathological"
        if self.kind == "normed":
            return f"normed(dim={self.dim})"
        return f"{self.kind}(dim={self.dim},s={self.s:g})"

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config document must be an object, got {type(data).__name__}")
        unknown = set(data) - {"kind", "dim", "s"}
        if unknown:
            raise ConfigError(f"unexpected config keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config is missing the required key 'kind'")
        kwargs = dict(data)
        if "dim" in kwargs and isinstance(kwargs["dim"], float) and kwargs["dim"].is_integer():
            kwargs["dim"] = int(kwargs["dim"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "s": self.s}


# ---------------------------------------------------------------------------
# Pathological line model: auxiliary bijections.
# ---------------------------------------------------------------------------

def path_Phi(x: float) -> float:
    """Transplanting bijection of the reals onto ``(-inf, -1) union [1, inf)``.

    ``exp(x)`` for ``x >= 0`` and ``-exp(-x)`` for ``x < 0``; strictly
    increasing on each branch and globally.  For negative ``x`` within an ulp
    of zero the exact value ``-exp(-x)`` rounds to ``-1.0``, which the open
    carrier excludes, so the result is nudged to the nearest double below.
    """
    x = float(x)
    if x >= 0.0:
        return math.exp(x)
    value = -math.exp(-x)
    return value if value < -1.0 else math.nextafter(-1.0, -math.inf)


def path_Phi_inv(a: float) -> float:
    """Inverse of :func:`path_Phi`; defined on the carrier only."""
    a = float(a)
    if a >= 1.0:
        return math.log(a)
    if a < -1.0:
        return -math.log(-a)
    raise DomainError(f"{a!r} is outside (-inf, -1) union [1, inf)")


def _path_S(x: float) -> float:
    # Pinned bijection (-inf, 0) -> (-inf, -1]: negative integers are fixed,
    # everything else shifts down by one.  Discontinuous, but a bijection is
    # all that is required of it (in floating point ``x - 1`` is not
    # injective anyway).  A non-integer whose shift rounds onto an integer
    # (-1 for inputs within an ulp of zero, -3 for the double just above -2)
    # would land on that fixed point; keep it just below.
    if x.is_integer():
        return x
    value = x - 1.0
    return math.nextafter(value, -math.inf) if value.is_integer() else value


def _path_S_inv(y: float) -> float:
    if y.is_integer():
        return y
    return y + 1.0


def path_T(x: float) -> float:
    """Bijection of the reals onto the norm-value set ``(-inf, -1] union [1, inf)``.

    ``exp(x)`` on ``x >= 0``; on ``x < 0`` the pinned bijection onto
    ``(-inf, -1]`` that fixes negative integers and shifts every other value
    down by one.
    """
    x = float(x)
    if x >= 0.0:
        return math.exp(x)
    return _path_S(x)


def path_T_inv(A: float) -> float:
    """Inverse of :func:`path_T`; defined on the norm-value set only."""
    A = float(A)
    if A >= 1.0:
        return math.log(A)
    if A <= -1.0:
        return _path_S_inv(A)
    raise DomainError(f"{A!r} is outside (-inf, -1] union [1, inf)")


# ---------------------------------------------------------------------------
# Shared small-vector helpers (carriers have dimension <= a few).
# ---------------------------------------------------------------------------

def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(u, v))


def _norm(u: Sequence[float]) -> float:
    return math.sqrt(_dot(u, u))


def _check_point(p: GyroPoint, tag: str, dim: int) -> None:
    if not isinstance(p, GyroPoint):
        raise DomainError(f"expected a GyroPoint, got {type(p).__name__}")
    if p.model_tag != tag:
        raise DomainError(f"point of model {p.model_tag!r} fed to {tag!r}")
    if len(p.coords) != dim:
        raise DomainError(f"{tag}: expected dimension {dim}, got {len(p.coords)}")
    if not all(math.isfinite(c) for c in p.coords):
        raise DomainError(f"{tag}: non-finite coordinates {p.coords!r}")


def _clamp_ball(coords: tuple[float, ...], s: float) -> tuple[float, ...]:
    n = _norm(coords)
    limit = s * (1.0 - BALL_EDGE)
    if n >= limit:
        warnings.warn(
            f"ball point of norm {n!r} clamped back inside radius {s!r}",
            BoundaryClampWarning,
            stacklevel=3,
        )
        scale = limit / n
        return tuple(c * scale for c in coords)
    return coords


def _scale_in_ball(r: float, u: tuple[float, ...], s: float) -> tuple[float, ...]:
    # r (x) u = s tanh(r artanh(|u|/s)) u/|u|, with the removable singularity
    # at the origin returning the origin exactly.
    n = _norm(u)
    if n == 0.0:
        return u
    t = s * math.tanh(r * math.atanh(n / s))
    return tuple(t * x / n for x in u)


def _einstein_add(u: tuple[float, ...], v: tuple[float, ...], s: float) -> tuple[float, ...]:
    s2 = s * s
    uv = _dot(u, v) / s2
    u2 = _dot(u, u) / s2
    gamma_u = 1.0 / math.sqrt(1.0 - u2)
    coeff_u = 1.0 + (gamma_u / (1.0 + gamma_u)) * uv
    coeff_v = 1.0 / gamma_u
    den = 1.0 + uv
    return tuple((coeff_u * x + coeff_v * y) / den for x, y in zip(u, v))


def _mobius_add(u: tuple[float, ...], v: tuple[float, ...], c: float) -> tuple[float, ...]:
    # Exact regrouping of the usual rational form
    #   ((1 + 2c<u,v> + c|v|^2) u + (1 - c|u|^2) v) / (1 + 2c<u,v> + c^2|u|^2|v|^2)
    # in terms of e = u + v: numerator p_u e + c|e|^2 u, denominator
    # p_u p_v + c|e|^2 with p_x = 1 - c|x|^2.  Unlike the textbook grouping
    # this has no catastrophic cancellation when v approaches (-)u near the
    # boundary, where the gamma factors diverge.
    pu = 1.0 - c * _dot(u, u)
    pv = 1.0 - c * _dot(v, v)
    e = tuple(x + y for x, y in zip(u, v))
    ce2 = c * _dot(e, e)
    den = pu * pv + ce2
    return tuple((pu * ei + ce2 * ui) / den for ei, ui in zip(e, u))


def _mobius_distance(u: tuple[float, ...], v: tuple[float, ...], s: float) -> float:
    # Linearized Mobius distance s*artanh(|(-)u (+) v|/s) through the exact
    # cancellation-free decomposition
    #   1 - 2c<u,v> + c^2|u|^2|v|^2 = (1-c|u|^2)(1-c|v|^2) + c|u-v|^2,
    # which keeps full relative accuracy arbitrarily close to the boundary.
    c = 1.0 / (s * s)
    pu = 1.0 - c * _dot(u, u)
    pv = 1.0 - c * _dot(v, v)
    diff = tuple(x - y for x, y in zip(u, v))
    d2 = c * _dot(diff, diff)
    den = pu * pv + d2
    t = math.sqrt(d2 / den)
    one_minus_t2 = pu * pv / den
    # artanh(t) = log(1 + t) - log(1 - t^2)/2
    return s * (math.log1p(t) - 0.5 * math.log(one_minus_t2))


def _einstein_distance(u: tuple[float, ...], v: tuple[float, ...], s: float) -> float:
    # Linearized Einstein distance via the gamma identity
    #   gamma((-)u (+) v) = gamma(u) gamma(v) (1 - <u,v>/s^2).
    # With p = 1 - c|u|^2 and D = u - v the needed combinations decompose
    # exactly into cancellation-free forms:
    #   1 - c<u,v>              = p + c<u,D>,
    #   (1 - c<u,v>)^2 - p*p_v  = c^2<u,D>^2 + c*p*|D|^2,
    # so the result keeps absolute accuracy arbitrarily close to the boundary
    # and for arbitrarily close points.
    c = 1.0 / (s * s)
    pu = 1.0 - c * _dot(u, u)
    pv = 1.0 - c * _dot(v, v)
    diff = tuple(x - y for x, y in zip(u, v))
    ud = _dot(u, diff)
    d2 = _dot(diff, diff)
    q = pu + c * ud
    excess = c * c * ud * ud + c * pu * d2  # = q^2 - pu*pv = (|w|/s)^2 q^2
    x = math.sqrt(excess) / q
    g = pu * pv / (q * q)  # = 1/gamma(w)^2 = 1 - (|w|/s)^2
    # artanh(x) = log(1 + x) - log(1 - x^2)/2
    return s * (math.log1p(x) - 0.5 * math.log(g))


def _mobius_gyr(u: tuple[float, ...], v: tuple[float, ...], w: tuple[float, ...], c: float) -> tuple[float, ...]:
    # Closed form of the Mobius gyration: a linear rotation of the ambient
    # space fixing the orthogonal complement of span{u, v}.  The denominator
    # is the same as for the addition and uses the stable grouping.
    u2 = _dot(u, u)
    v2 = _dot(v, v)
    uv = _dot(u, v)
    uw = _dot(u, w)
    vw = _dot(v, w)
    a = -c * c * uw * v2 + c * vw + 2.0 * c * c * uv * vw
    b = -c * c * vw * u2 - c * uw
    e = tuple(x + y for x, y in zip(u, v))
    den = (1.0 - c * u2) * (1.0 - c * v2) + c * _dot(e, e)
    return tuple(wi + 2.0 * (a * ui + b * vi) / den for wi, ui, vi in zip(w, u, v))


# ---------------------------------------------------------------------------
# Norm-value lines.
# ---------------------------------------------------------------------------

def _euclidean_line() -> NormValueSpace:
    return NormValueSpace(
        tag="euclidean-line",
        zero=0.0,
        contains=lambda A: isinstance(A, (int, float)) and math.isfinite(A),
        nv_add=lambda A, B: A + B,
        nv_smul=lambda r, A: r * A,
        lin=lambda A: A,
        lin_inv=lambda t: t,
    )


def _rapidity_line(s: float) -> NormValueSpace:
    # The interval (-s, s) with one-dimensional relativistic addition,
    # linearized by the rapidity map s*artanh(./s).
    s2 = s * s

    def contains(A: float) -> bool:
        return isinstance(A, (int, float)) and math.isfinite(A) and -s < A < s

    return NormValueSpace(
        tag=f"rapidity-line(s={s:g})",
        zero=0.0,
        contains=contains,
        nv_add=lambda A, B: (A + B) / (1.0 + A * B / s2),
        nv_smul=lambda r, A: s * math.tanh(r * math.atanh(A / s)),
        lin=lambda A: s * math.atanh(A / s),
        lin_inv=lambda t: s * math.tanh(t / s),
    )


def _transplanted_line() -> NormValueSpace:
    def contains(A: float) -> bool:
        return isinstance(A, (int, float)) and math.isfinite(A) and (A >= 1.0 or A <= -1.0)

    return NormValueSpace(
        tag="transplanted-line",
        zero=1.0,
        contains=contains,
        nv_add=lambda A, B: path_T(path_T_inv(A) + path_T_inv(B)),
        nv_smul=lambda r, A: path_T(r * path_T_inv(A)),
        lin=path_T_inv,
        lin_inv=path_T,
    )


# ---------------------------------------------------------------------------
# Model factories.
# ---------------------------------------------------------------------------

def _normed_model(cfg: ModelConfig) -> GgvModel:
    tag, dim = cfg.tag, cfg.dim
    identity = GyroPoint(tag, (0.0,) * dim)

    def validate(p: GyroPoint) -> None:
        _check_point(p, tag, dim)

    def add(a: GyroPoint, b: GyroPoint) -> GyroPoint:
        return _point(tag, tuple(x + y for x, y in zip(a.coords, b.coords)))

    def inv(a: GyroPoint) -> GyroPoint:
        return _point(tag, tuple(-x for x in a.coords))

    def gyr(u: GyroPoint, v: GyroPoint, a: GyroPoint) -> GyroPoint:
        return a

    def smul(r: float, a: GyroPoint) -> GyroPoint:
        return _point(tag, tuple(r * x for x in a.coords))

    group = GyroGroupOps(tag, identity, add, inv, gyr, validate)
    return GgvModel(cfg, group, smul, lambda a: a.coords, _norm, _euclidean_line())


def _ball_model(cfg: ModelConfig) -> GgvModel:
    tag, dim, s = cfg.tag, cfg.dim, cfg.s
    c = 1.0 / (s * s)
    identity = GyroPoint(tag, (0.0,) * dim)

    def validate(p: GyroPoint) -> None:
        _check_point(p, tag, dim)
        n = _norm(p.coords)
        if n >= s:
            raise DomainError(f"{tag}: point of norm {n!r} is outside the open ball")

    if cfg.kind == "einstein":
        def raw_add(u: tuple, v: tuple) -> tuple:
            return _einstein_add(u, v, s)

        def raw_gyr(u: tuple, v: tuple, w: tuple) -> tuple:
            # Einstein and Mobius gyrations agree after halving the first two
            # arguments: the half map is a group isomorphism between the two
            # additions and gyrations are linear, so the radial scalings
            # cancel.  This keeps the closed form independent of the
            # composition-of-sums oracle.
            return _mobius_gyr(_scale_in_ball(0.5, u, s), _scale_in_ball(0.5, v, s), w, c)
    else:
        def raw_add(u: tuple, v: tuple) -> tuple:
            return _mobius_add(u, v, c)

        def raw_gyr(u: tuple, v: tuple, w: tuple) -> tuple:
            return _mobius_gyr(u, v, w, c)

    def add(a: GyroPoint, b: GyroPoint) -> GyroPoint:
        return _point(tag, _clamp_ball(raw_add(a.coords, b.coords), s))

    def inv(a: GyroPoint) -> GyroPoint:
        return _point(tag, tuple(-x for x in a.coords))

    def gyr(u: GyroPoint, v: GyroPoint, a: GyroPoint) -> GyroPoint:
        return _point(tag, _clamp_ball(raw_gyr(u.coords, v.coords, a.coords), s))

    def smul(r: float, a: GyroPoint) -> GyroPoint:
        return _point(tag, _clamp_ball(_scale_in_ball(r, a.coords, s), s))

    if cfg.kind == "einstein":
        def distance(a: GyroPoint, b: GyroPoint) -> float:
            return _einstein_distance(a.coords, b.coords, s)
    else:
        def distance(a: GyroPoint, b: GyroPoint) -> float:
            return _mobius_distance(a.coords, b.coords, s)

    group = GyroGroupOps(tag, identity, add, inv, gyr, validate)
    return GgvModel(cfg, group, smul, lambda a: a.coords, _norm, _rapidity_line(s), distance)


def _pathological_model(cfg: ModelConfig) -> GgvModel:
    tag = cfg.tag
    identity = GyroPoint(tag, (1.0,))

    def validate(p: GyroPoint) -> None:
        _check_point(p, tag, 1)
        a = p.coords[0]
        if not (a >= 1.0 or a < -1.0):
            raise DomainError(f"{tag}: {a!r} is outside (-inf, -1) union [1, inf)")

    def add(a: GyroPoint, b: GyroPoint) -> GyroPoint:
        return _point(tag, (path_Phi(path_Phi_inv(a.coords[0]) + path_Phi_inv(b.coords[0])),))

    def inv(a: GyroPoint) -> GyroPoint:
        return _point(tag, (path_Phi(-path_Phi_inv(a.coords[0])),))

    def gyr(u: GyroPoint, v: GyroPoint, a: GyroPoint) -> GyroPoint:
        # The transplanted group is commutative, so every gyration is the identity.
        return a

    def smul(r: float, a: GyroPoint) -> GyroPoint:
        return _point(tag, (path_Phi(r * path_Phi_inv(a.coords[0])),))

    def distance(a: GyroPoint, b: GyroPoint) -> float:
        # lin(rho(a, b)) collapses to the transplanted-coordinate gap
        return abs(path_Phi_inv(a.coords[0]) - path_Phi_inv(b.coords[0]))

    group = GyroGroupOps(tag, identity, add, inv, gyr, validate)
    return GgvModel(cfg, group, smul, lambda a: a.coords, lambda vec: abs(vec[0]),
                    _transplanted_line(), distance)


def make_model(cfg: ModelConfig) -> GgvModel:
    """Construct the model described by ``cfg``.

    Every returned model satisfies the full axiom suite of :mod:`ggv.verify`
    at the package tolerance.
    """
    if not isinstance(cfg, ModelConfig):
        raise ConfigError(f"expected a ModelConfig, got {type(cfg).__name__}")
    if cfg.kind == "normed":
        return _normed_model(cfg)
    if cfg.kind in ("einstein", "mobius"):
        return _ball_model(cfg)
    return _pathological_model(cfg)


def make_point(m: GgvModel, coords: Sequence[float]) -> GyroPoint:
    """Build and validate a carrier point of ``m`` from raw coordinates."""
    p = GyroPoint(m.tag, coords)
    m.group.validate(p)
    return p

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

A model holds its kernels as data: ``ops(lib)`` returns ``add``, ``inv``,
``gyr``, ``otimes``, ``distance``, ``phi`` and ``ambient_norm``, each written
once over coordinates, in the form of ``lib``: on coordinate tuples
(``_POINT``), on blocks of points (``_BLOCK``) or on coordinate tuples at 50
digits (``_mp()``).  The point kernels of the model (``group.add``,
``otimes`` and so on) read the coordinates of their arguments, run the
``_POINT`` form and build a point from the result (see :func:`_model`).
Both forms take their transcendental functions from NumPy's ufuncs, so every
row of a block rounds exactly as the point kernel rounds it.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
import weakref
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import repeat
from operator import add, mul, neg, sub, truediv
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryClampWarning, ConfigError, DomainError
from .gyrogroup import GyroGroupOps, GyroPoint, _point
from .space import GgvModel, NormValueSpace, nv_add, nv_smul

# Relative distance from the ball boundary below which results are clamped
# back inside with a warning; gamma factors diverge at the boundary and
# nothing trustworthy lives beyond this shell.
BALL_EDGE = 1e-12

# Admissible ball radii.  The ball formulas multiply by c^2 = s^-4, which
# must stay a normal double: beyond this range gyrations silently lose terms
# (s = 1e100) or overflow to NaN (s = 1e-100).
RADIUS_RANGE = (1e-75, 1e75)

# Largest argument whose exp is a finite double: the pathological bijections
# leave the doubles beyond it.
_LOG_MAX = math.log(sys.float_info.max)

# The transcendental functions of the double-precision forms: NumPy's ufuncs,
# on a column for blocks and on one float for points (see ``_POINT``).
_UFUNCS = {"tanh": np.tanh, "atanh": np.arctanh, "log": np.log, "log1p": np.log1p, "exp": np.exp}


def _on_float(ufunc: np.ufunc) -> Callable[[float], float]:
    """``ufunc`` on one float, returning a float: it rounds as the same value
    in a column does."""
    def on_float(x):
        return float(ufunc(x))

    return on_float


_exp, _log = _on_float(np.exp), _on_float(np.log)


@dataclass(frozen=True)
class ModelConfig:
    """Model selector: kind, ambient dimension, and ball radius.

    ``dim`` is an integer from 1 to ``MAX_DIM``, whatever the kind, and is
    forced to 1 for the pathological model; ``s`` is ignored outside the
    ball models.
    """

    # Largest ambient dimension: the carriers are small-vector spaces, and a
    # model holds its unit as a tuple of ``dim`` coordinates.
    MAX_DIM = 64

    kind: str
    dim: int = 2
    s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or not 1 <= self.dim <= self.MAX_DIM:
            raise ConfigError(f"dim must be an integer from 1 to {self.MAX_DIM}, got {self.dim!r}")
        s = self.s
        if not isinstance(s, (int, float)) or isinstance(s, bool) or not math.isfinite(s) or s <= 0:
            raise ConfigError(f"s must be a positive finite real, got {self.s!r}")
        low, high = RADIUS_RANGE
        if not low <= s <= high:
            raise ConfigError(f"s must lie in [{low:g}, {high:g}], got {self.s!r}")
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
        except ValueError as exc:  # a syntax error, or an integer too long to convert
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
    Raises :class:`DomainError` where ``exp`` would overflow a double.
    """
    x = float(x)
    if abs(x) > _LOG_MAX:
        raise DomainError(f"path_Phi({x!r}) overflows a double")
    if x >= 0.0:
        return _exp(x)
    value = -_exp(-x)
    return value if value < -1.0 else _BELOW_MINUS_ONE


def path_Phi_inv(a: float) -> float:
    """Inverse of :func:`path_Phi`; defined on the carrier only."""
    a = float(a)
    if a >= 1.0:
        return _log(a)
    if a < -1.0:
        return -_log(-a)
    raise DomainError(f"{a!r} is outside (-inf, -1) union [1, inf)")


# The double next below -1, where path_Phi puts what would round onto -1.
_BELOW_MINUS_ONE = math.nextafter(-1.0, -math.inf)


def _transplant(x, lib):
    # path_Phi in the form of the block and 50-digit libs: one exp of |x|,
    # which is exp(x) or exp(-x) exactly, then the sign and the nudge off -1.
    # A NaN passes the overflow check (x != x only for NaN) and lands on the
    # nudge, as in path_Phi.  Points keep path_Phi, which the tests hold this
    # form to: the doubling chain calls it once per step, and this form on
    # _POINT made ``defect --model pathological --seed 1597780226 --depth 2
    # --n-max 14`` 2.2x slower (CPython 3.11, Xeon; BENCH_20.json).
    lib.require((abs(x) <= _LOG_MAX) | (x != x), x, "path_Phi({!r}) overflows a double")
    e = lib.exp(abs(x))
    return lib.where(x >= 0.0, e, lib.where(-e < -1.0, -e, _BELOW_MINUS_ONE))


def _transplant_inv(a, lib):
    # path_Phi_inv in the form of the block and 50-digit libs: one log of
    # |a|, then the sign.
    lib.require((a >= 1.0) | (a < -1.0), a, "{!r} is outside (-inf, -1) union [1, inf)")
    t = lib.log(abs(a))
    return lib.where(a >= 1.0, t, -t)


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
    down by one.  Raises :class:`DomainError` where ``exp`` would overflow a
    double.
    """
    x = float(x)
    if x > _LOG_MAX:
        raise DomainError(f"path_T({x!r}) overflows a double")
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
#
# The coordinate formulas below serve points, whose coordinates are a tuple
# of floats, and blocks, a tuple of ``dim`` float64 columns with one row per
# point: ``+ - * /`` act elementwise on columns, and ``lib`` supplies the
# functions that differ (``_POINT`` for points, ``_BLOCK`` for blocks).
# ---------------------------------------------------------------------------

def _same(x):
    return x


def _columnwise(fn: Callable[..., float]) -> Callable:
    """``fn`` applied to each entry of a column, with any further arguments
    the same on every row; a scalar stays a scalar."""
    def each(x, *args):
        if isinstance(x, float):
            return fn(x, *args)
        return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), np.float64, len(x))

    return each


# A block of carrier points: ``dim`` float64 columns, one row per point.
Block = tuple[np.ndarray, ...]


def _row_wise(fn: Callable) -> Callable:
    """The block form of ``fn``, a function of coordinate tuples, evaluated row by row.

    A block argument is split into coordinate tuples, a column into its
    entries, and a scalar or a coordinate tuple (a translation's centre)
    repeats.  A vector-valued ``fn`` gives a tuple of columns, a real-valued
    one a column and a truth-valued one a column of bools.
    """
    def block(*args):
        rows = []
        for arg in args:
            if isinstance(arg, tuple) and isinstance(arg[0], np.ndarray):
                rows.append(list(zip(*(column.tolist() for column in arg))))
            elif isinstance(arg, np.ndarray):
                rows.append(arg.tolist())
            else:
                rows.append(repeat(arg))
        out = [fn(*row) for row in zip(*rows)]
        if isinstance(out[0], tuple):
            return tuple(np.array(column) for column in zip(*out))
        return np.array(out, dtype=bool if isinstance(out[0], bool) else np.float64)

    return block


def _lift(fn: Callable, tag: str, lib) -> Callable:
    """``fn``, a function of points of the model ``tag``, in ``lib``'s form.

    Coordinate tuples become points of ``tag`` and a point result becomes its
    coordinates; ``lib.rows`` runs that on each row of a block.
    """
    def lifted(*args):
        out = fn(*[_point(tag, arg) if isinstance(arg, tuple) else arg for arg in args])
        return out.coords if isinstance(out, GyroPoint) else out

    return lib.rows(lifted)


def _kernels(m: GgvModel, lib) -> SimpleNamespace:
    """The kernels of ``m`` in ``lib``'s form: ``m.ops(lib)``, or else, for a
    model without ``ops``, its own kernels lifted one by one (``ambient_norm``
    takes coordinates already)."""
    if m.ops is not None:
        return m.ops(lib)
    g, lift = m.group, partial(_lift, tag=m.tag, lib=lib)
    return SimpleNamespace(add=lift(g.add), inv=lift(g.inv), gyr=lift(g.gyr), otimes=lift(m.otimes),
                           distance=lift(m.distance), phi=lift(m.phi), ambient_norm=lib.rows(m.ambient_norm))


def _in_form(m: GgvModel, lib) -> GgvModel:
    """``m`` with each kernel replaced by its form in ``lib``, from ``_kernels(m, lib)``."""
    k = _kernels(m, lib)
    group = replace(m.group, add=k.add, inv=k.inv, gyr=k.gyr)
    return replace(m, group=group, otimes=k.otimes, distance=k.distance, phi=k.phi, ambient_norm=k.ambient_norm)


def _on_blocks(m: GgvModel) -> GgvModel:
    """``m`` in block form: ``_in_form(m, _BLOCK)`` and a norm-value line on columns.

    The functions of the norm-value line are mapped over the column entry by
    entry.  ``nv_add`` and ``nv_smul`` are their public forms mapped over the
    rows, membership checks included, because norm values drawn through
    ``lin_inv`` can leave the norm-value set; the first row that does raises
    the error a loop over the rows would raise.  The block form is built once
    per model object and dies with it; a model rebuilt with
    ``dataclasses.replace`` is another object and gets its own.
    """
    form = _BLOCK_FORMS.get(m)
    if form is None:
        nvs = m.nvs
        line = replace(nvs, nv_add=_row_wise(partial(nv_add, nvs)), nv_smul=_row_wise(partial(nv_smul, nvs)),
                       lin=_columnwise(nvs.lin), lin_inv=_columnwise(nvs.lin_inv))
        form = _BLOCK_FORMS[m] = replace(_in_form(m, _BLOCK), nvs=line)
    return form


# The block form of each model, keyed by the model object (``GgvModel``
# compares by identity).
_BLOCK_FORMS: weakref.WeakKeyDictionary[GgvModel, GgvModel] = weakref.WeakKeyDictionary()


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(map(mul, u, v))


def _norm(u: Sequence[float], lib) -> float:
    return lib.sqrt(_dot(u, u))


def _check_point(p: GyroPoint, tag: str, dim: int) -> None:
    if not isinstance(p, GyroPoint):
        raise DomainError(f"expected a GyroPoint, got {type(p).__name__}")
    if p.model_tag != tag:
        raise DomainError(f"point of model {p.model_tag!r} fed to {tag!r}")
    if len(p.coords) != dim:
        raise DomainError(f"{tag}: expected dimension {dim}, got {len(p.coords)}")
    if not all(map(math.isfinite, p.coords)):
        raise DomainError(f"{tag}: non-finite coordinates {p.coords!r}")


def _warn_clamp(n: float, s: float) -> None:
    # Called from a clamp, itself called from a kernel: the warning names the
    # line that called the kernel.
    warnings.warn(
        f"ball point of norm {n!r} clamped back inside radius {s!r}",
        BoundaryClampWarning,
        stacklevel=4,
    )


def _clamp_ball(coords: tuple[float, ...], s: float) -> tuple[float, ...]:
    n = _norm(coords, math)
    limit = s * (1.0 - BALL_EDGE)
    if n >= limit:
        _warn_clamp(n, s)
        return tuple(map(mul, coords, repeat(limit / n)))
    return coords


def _clamp_block(coords: tuple[np.ndarray, ...], s: float) -> tuple[np.ndarray, ...]:
    # _clamp_ball on each row, one warning per clamped row; the other rows
    # are scaled by exactly 1.
    n = _norm(coords, _BLOCK)
    limit = s * (1.0 - BALL_EDGE)
    clamped = n >= limit
    if not clamped.any():
        return coords
    for norm in n[clamped].tolist():
        _warn_clamp(norm, s)
    scale = limit / np.where(clamped, n, limit)
    return tuple(c * scale for c in coords)


def _scale(r, u, s: float, lib):
    # r (x) u = s tanh(r artanh(|u|/s)) u/|u|; ``r`` is a scalar or, on a
    # block, a column.  The removable singularity at the origin, and a point
    # whose squared norm underflows to 0, return ``u`` exactly: those rows
    # divide by 1, then keep ``u``.
    n = _norm(u, lib)
    origin = n == 0.0
    t = s * lib.tanh(r * lib.atanh(n / s))
    n = lib.where(origin, 1.0, n)
    return tuple(lib.where(origin, x, t * x / n) for x in u)


def _pick(condition: bool, x, y):
    return x if condition else y


def _require(ok: bool, x: float, message: str) -> None:
    if not ok:
        raise DomainError(message.format(x))


def _require_rows(ok: np.ndarray, x: np.ndarray, message: str) -> None:
    # _require on each row: the first row that fails raises its error.
    if not np.all(ok):
        raise DomainError(message.format(float(np.extract(np.logical_not(ok), x)[0])))


# What the formulas take as ``lib``: the square root and transcendental
# functions, ``where``, which picks between two values row by row, the
# boundary clamp, which warns once per clamped row, ``each``, which lifts a
# scalar function to the coordinate type, ``rows``, which lifts a function of
# coordinate tuples to the same, ``const``, which brings a constant the
# formulas close over (a radius, a centre) to the precision of the lib,
# ``orthonormal``, the same for the rows of an orthogonal matrix, and the
# pathological transplant ``Phi`` and its inverse; on points that is
# ``path_Phi`` itself, and the other libs write it once over their
# ``require``, which raises the domain error of the first row that fails a
# test.  Everything else, the ball scaling included, is written once over
# these.  NumPy's square root is correctly rounded, as libm's is.  The
# transcendental functions are NumPy's ufuncs in both forms, on the column
# for a block and on one float for a point, so that each row of a block
# rounds exactly like its point; their last ulp depends on the NumPy version
# and the SIMD loops it dispatches to, not on libm.  Outside its domain a
# ufunc returns a non-finite value with a ``RuntimeWarning`` where ``math``
# raised ``ValueError``, so the formulas keep every argument inside it.
_POINT = SimpleNamespace(sqrt=math.sqrt, **{name: _on_float(ufunc) for name, ufunc in _UFUNCS.items()},
                         where=_pick, clamp=_clamp_ball, each=_same, rows=_same, const=_same, orthonormal=_same,
                         Phi=path_Phi, Phi_inv=path_Phi_inv)
_BLOCK = SimpleNamespace(sqrt=np.sqrt, **_UFUNCS, where=np.where, clamp=_clamp_block, each=_columnwise,
                         rows=_row_wise, require=_require_rows, const=_same, orthonormal=_same)
_BLOCK.Phi, _BLOCK.Phi_inv = partial(_transplant, lib=_BLOCK), partial(_transplant_inv, lib=_BLOCK)

# Decimal digits of the lib in which failing rows are evaluated again.
MP_DIGITS = 50


def _unclamped(coords: tuple, s) -> tuple:
    return coords


@cache
def _mp() -> SimpleNamespace:
    """The formulas at ``MP_DIGITS`` digits, on coordinate tuples of mpmath reals.

    Built on first use, so that mpmath is imported only when a row needs it.
    Nothing is clamped, and every constant is promoted: a float a formula
    closes over would keep its step at double precision.  An orthogonal
    matrix is orthonormalized at this precision (Gram-Schmidt on its rows),
    so that a rotation is an isometry to the last digit.  The functions stay
    on the reals: an argument outside a function's domain (the square root
    of a negative, a point beyond the ball) raises :class:`DomainError`,
    where mpmath would go on in the complex plane.
    """
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = MP_DIGITS

    def real(name):
        f = getattr(ctx, name)

        def on_reals(x):
            y = f(x)
            if not isinstance(y, ctx.mpf):
                raise DomainError(f"{name}({x}) is not real")
            return y

        return on_reals

    def const(x):
        return tuple(map(ctx.mpf, x)) if isinstance(x, tuple) else ctx.mpf(x)

    def orthonormal(rows):
        basis = []
        for row in rows:
            v = const(row)
            for b in basis:
                overlap = _dot(b, v)
                v = tuple(x - overlap * y for x, y in zip(v, b))
            n = ctx.sqrt(_dot(v, v))
            basis.append(tuple(x / n for x in v))
        return tuple(basis)

    lib = SimpleNamespace(**{name: real(name) for name in ("sqrt", *_UFUNCS)},
                          where=_pick, clamp=_unclamped, each=_same, rows=_same, require=_require, const=const,
                          orthonormal=orthonormal)
    lib.Phi, lib.Phi_inv = partial(_transplant, lib=lib), partial(_transplant_inv, lib=lib)
    return lib


def _combine(a, x, b, y, den):
    # (a x + b y) / den, coordinate by coordinate.
    return tuple(map(truediv, map(add, map(mul, repeat(a), x), map(mul, repeat(b), y)), repeat(den)))


def _einstein_add(u: tuple[float, ...], v: tuple[float, ...], s: float, lib) -> tuple[float, ...]:
    s2 = s * s
    uv = _dot(u, v) / s2
    u2 = _dot(u, u) / s2
    gamma_u = 1.0 / lib.sqrt(1.0 - u2)
    coeff_u = 1.0 + (gamma_u / (1.0 + gamma_u)) * uv
    coeff_v = 1.0 / gamma_u
    return _combine(coeff_u, u, coeff_v, v, 1.0 + uv)


def _mobius_add(u: tuple[float, ...], v: tuple[float, ...], c: float) -> tuple[float, ...]:
    # Exact regrouping of the usual rational form
    #   ((1 + 2c<u,v> + c|v|^2) u + (1 - c|u|^2) v) / (1 + 2c<u,v> + c^2|u|^2|v|^2)
    # in terms of e = u + v: numerator p_u e + c|e|^2 u, denominator
    # p_u p_v + c|e|^2 with p_x = 1 - c|x|^2.  Unlike the textbook grouping
    # this has no catastrophic cancellation when v approaches (-)u near the
    # boundary, where the gamma factors diverge.
    pu = 1.0 - c * _dot(u, u)
    pv = 1.0 - c * _dot(v, v)
    e = tuple(map(add, u, v))
    ce2 = c * _dot(e, e)
    return _combine(pu, e, ce2, u, pu * pv + ce2)


def _mobius_distance(u: tuple[float, ...], v: tuple[float, ...], s: float, lib) -> float:
    # Linearized Mobius distance s*artanh(|(-)u (+) v|/s) through the exact
    # cancellation-free decomposition
    #   1 - 2c<u,v> + c^2|u|^2|v|^2 = (1-c|u|^2)(1-c|v|^2) + c|u-v|^2,
    # which keeps full relative accuracy arbitrarily close to the boundary.
    c = 1.0 / (s * s)
    pu = 1.0 - c * _dot(u, u)
    pv = 1.0 - c * _dot(v, v)
    diff = tuple(map(sub, u, v))
    d2 = c * _dot(diff, diff)
    den = pu * pv + d2
    t = lib.sqrt(d2 / den)
    one_minus_t2 = pu * pv / den
    # artanh(t) = log(1 + t) - log(1 - t^2)/2
    return s * (lib.log1p(t) - 0.5 * lib.log(one_minus_t2))


def _einstein_distance(u: tuple[float, ...], v: tuple[float, ...], s: float, lib) -> float:
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
    diff = tuple(map(sub, u, v))
    ud = _dot(u, diff)
    d2 = _dot(diff, diff)
    q = pu + c * ud
    excess = c * c * ud * ud + c * pu * d2  # = q^2 - pu*pv = (|w|/s)^2 q^2
    x = lib.sqrt(excess) / q
    g = pu * pv / (q * q)  # = 1/gamma(w)^2 = 1 - (|w|/s)^2
    # artanh(x) = log(1 + x) - log(1 - x^2)/2, which rounding can take
    # below 0 for points an ulp apart; a metric is not negative.  A NaN
    # passes through.
    d = s * (lib.log1p(x) - 0.5 * lib.log(g))
    return lib.where(d < 0.0, 0.0, d)


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
    e = tuple(map(add, u, v))
    den = (1.0 - c * u2) * (1.0 - c * v2) + c * _dot(e, e)
    turn = map(add, map(mul, repeat(a), u), map(mul, repeat(b), v))  # a u + b v
    return tuple(map(add, w, map(truediv, map(mul, repeat(2.0), turn), repeat(den))))


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

def _no_gyration(u, v, w):
    # Gyrations of a commutative group are the identity, on points as on blocks.
    return w


def _negate(a):
    # The inverse of the normed and ball models, on points as on blocks.
    return tuple(map(neg, a))


def _coordinates(a: GyroPoint) -> tuple[float, ...]:
    # The injection phi of every model.
    return a.coords


def _model(cfg: ModelConfig, identity: tuple[float, ...], validate: Callable[[GyroPoint], None],
           ops: Callable, ambient_norm: Callable, nvs: NormValueSpace) -> GgvModel:
    """The model of the formulas ``ops``, which it holds as data.

    ``ops(lib)`` returns the kernels ``oplus, inv, gyr, smul, distance``, each
    written once over coordinates, and ``ambient_norm(vec, lib)`` is the norm
    of the ambient space, written the same way.  The model's ``ops`` is
    ``kernels``: ``kernels(lib)`` returns them in ``lib``'s form as one
    namespace, with ``phi``, which is the coordinates themselves.
    ``kernels(_POINT)`` runs on coordinate tuples and ``kernels(_BLOCK)`` on
    blocks, whose columns are the coordinates.  Each point kernel reads the
    coordinates of its point arguments, runs the ``_POINT`` form and makes a
    point of the result.
    """
    tag = cfg.tag

    def kernels(lib) -> SimpleNamespace:
        add, inv, gyr, otimes, distance = ops(lib)
        return SimpleNamespace(add=add, inv=inv, gyr=gyr, otimes=otimes, distance=distance, phi=_same,
                               ambient_norm=partial(ambient_norm, lib=lib))

    point = kernels(_POINT)

    def add(a, b):
        return _point(tag, point.add(a.coords, b.coords))

    def inv(a):
        return _point(tag, point.inv(a.coords))

    def gyr(u, v, a):
        return _point(tag, point.gyr(u.coords, v.coords, a.coords))

    def smul(r, a):
        return _point(tag, point.otimes(r, a.coords))

    def distance(a, b):
        return point.distance(a.coords, b.coords)

    group = GyroGroupOps(tag, GyroPoint(tag, identity), add, inv, gyr, validate)
    m = GgvModel(cfg, group, smul, _coordinates, point.ambient_norm, nvs, distance)
    object.__setattr__(m, "ops", kernels)
    return m


def _normed_model(cfg: ModelConfig) -> GgvModel:
    tag, dim = cfg.tag, cfg.dim

    def validate(p: GyroPoint) -> None:
        _check_point(p, tag, dim)

    def ops(lib):
        def oplus(a, b):
            return tuple(map(add, a, b))

        def smul(r, a):
            return tuple(map(mul, repeat(r), a))

        def distance(a, b):
            # lin(rho(a, b)) = |a + (-b)|, and x + (-y) == x - y in IEEE arithmetic.
            return _norm(tuple(map(sub, a, b)), lib)

        return oplus, _negate, _no_gyration, smul, distance

    return _model(cfg, (0.0,) * dim, validate, ops, _norm, _euclidean_line())


def _ball_model(cfg: ModelConfig) -> GgvModel:
    tag, dim = cfg.tag, cfg.dim

    def validate(p: GyroPoint) -> None:
        _check_point(p, tag, dim)
        n = _norm(p.coords, math)
        if n >= cfg.s:
            raise DomainError(f"{tag}: point of norm {n!r} is outside the open ball")

    def ops(lib):
        clamp, s = lib.clamp, lib.const(cfg.s)
        c = 1.0 / (s * s)
        if cfg.kind == "einstein":
            def oplus(a, b):
                return clamp(_einstein_add(a, b, s, lib), s)

            def gyr(u, v, a):
                # Einstein and Mobius gyrations agree after halving the first
                # two arguments: the half map is a group isomorphism between
                # the two additions and gyrations are linear, so the radial
                # scalings cancel.  This keeps the closed form independent of
                # the composition-of-sums oracle.
                return clamp(_mobius_gyr(_scale(0.5, u, s, lib), _scale(0.5, v, s, lib), a, c), s)

            def distance(a, b):
                return _einstein_distance(a, b, s, lib)
        else:
            def oplus(a, b):
                return clamp(_mobius_add(a, b, c), s)

            def gyr(u, v, a):
                return clamp(_mobius_gyr(u, v, a, c), s)

            def distance(a, b):
                return _mobius_distance(a, b, s, lib)

        def smul(r, a):
            return clamp(_scale(r, a, s, lib), s)

        return oplus, _negate, gyr, smul, distance

    return _model(cfg, (0.0,) * dim, validate, ops, _norm, _rapidity_line(cfg.s))


def _pathological_model(cfg: ModelConfig) -> GgvModel:
    tag = cfg.tag

    def validate(p: GyroPoint) -> None:
        _check_point(p, tag, 1)
        a = p.coords[0]
        if not (a >= 1.0 or a < -1.0):
            raise DomainError(f"{tag}: {a!r} is outside (-inf, -1) union [1, inf)")

    def ops(lib):
        Phi, Phi_inv = lib.Phi, lib.Phi_inv

        def oplus(a, b):
            return (Phi(Phi_inv(a[0]) + Phi_inv(b[0])),)

        def inv(a):
            return (Phi(-Phi_inv(a[0])),)

        def smul(r, a):
            return (Phi(r * Phi_inv(a[0])),)

        def distance(a, b):
            # lin(rho(a, b)) collapses to the transplanted-coordinate gap
            return abs(Phi_inv(a[0]) - Phi_inv(b[0]))

        return oplus, inv, _no_gyration, smul, distance

    return _model(cfg, (1.0,), validate, ops, lambda vec, lib: abs(vec[0]), _transplanted_line())


# Each model kind and its factory.
_FACTORIES = {"normed": _normed_model, "einstein": _ball_model, "mobius": _ball_model,
              "pathological": _pathological_model}
KINDS = tuple(_FACTORIES)
BALL_KINDS = tuple(kind for kind, factory in _FACTORIES.items() if factory is _ball_model)


def make_model(cfg: ModelConfig) -> GgvModel:
    """Construct the model described by ``cfg``.

    Every returned model satisfies the full axiom suite of :mod:`ggv.verify`
    at the package tolerance.
    """
    if not isinstance(cfg, ModelConfig):
        raise ConfigError(f"expected a ModelConfig, got {type(cfg).__name__}")
    return _FACTORIES[cfg.kind](cfg)


def make_point(m: GgvModel, coords: Sequence[float]) -> GyroPoint:
    """Build and validate a carrier point of ``m`` from raw coordinates."""
    p = GyroPoint(m.tag, coords)
    m.group.validate(p)
    return p

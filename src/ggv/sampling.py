"""Seeded carrier samplers shared by the verification suites and the CLI.

A point is drawn by a fixed sequence of ``random.Random`` calls
(:func:`_draws`), then made from those draws by a formula written once over
a lib (see :mod:`ggv.models`): :func:`sample_point` and its family run it
on one point's draws, call by call, so that a seed draws the same points as
it always has.

:func:`sample_columns` draws ``n`` samples of a *layout*, a tuple of slots
(:class:`Point`, :class:`Pair`, :class:`Scalar`, :class:`Distinct`,
:class:`Const`) that says what one sample holds.  It takes one table of
uniforms from the stream, ``n`` rows of all the slots' uniforms side by side
(see :func:`_table`), and each slot makes its columns from its own columns
of the table, as NumPy columns: a ball point's direction from Box-Muller
pairs, then its radius, and a point of the other kinds, a scalar, from one
uniform per coordinate or value; points then pass through the formula of
:func:`sample_point`, on blocks.  A slot that rejects candidates (a point
away from the identity, a separated pair, a scalar kept apart from a number
or from the scalar before it) then redraws all of its rejected rows together
from a fresh table, round after round, until every row holds a candidate it
keeps (see :func:`_redrawn`).  A layout that rejects nothing draws the first
``k`` of ``n`` samples as it draws ``k`` samples.  The columns are
deterministic per seed, NumPy version and SIMD dispatch, but they are not
the points :func:`sample_point` draws from the same seed.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import accumulate, repeat
from operator import mul, sub, truediv
from typing import Callable

import numpy as np

from .errors import SamplingError
from .gyrogroup import GyroPoint, _point
from .models import _BLOCK, _POINT, BALL_KINDS, Block, _norm, _on_blocks
from .space import GgvModel, _gnorm

# Ball points are kept at Euclidean norm <= BALL_MARGIN * s: gamma factors
# diverge at the boundary and double precision dies with them.
BALL_MARGIN = 0.95
# Transplanted-coordinate range for the pathological line model.
LINE_RANGE = 5.0
# Coordinate range for the normed model.
NORMED_RANGE = 3.0
# Candidates a rejection sampler draws before it gives up: for one sample, or
# for a layout slot since it last kept one (see :func:`_redrawn`).
ATTEMPTS = 1000
# Why a point sampler can give up: its thresholds are absolute, while ball
# points scale with the radius.
_TOO_SMALL = "the radius is too small for the suite's separation thresholds"


def _draws(m: GgvModel, rng: random.Random) -> list[Callable[[], float]]:
    """The ``rng`` calls that draw one point of ``m``, in the order they are made.

    A ball point is a direction of ``dim`` standard Gaussians, then the
    uniform of its radius; a point of the other kinds is ``dim`` uniforms, one
    per coordinate, which :func:`_coords` maps onto the coordinate range.
    """
    if m.config.kind in BALL_KINDS:
        return [rng.gauss] * m.config.dim + [rng.random]
    return [rng.random] * m.config.dim


def _uniform(draws: list, lo: float, hi: float) -> list:
    # ``rng.uniform(lo, hi)`` of each ``rng.random()`` draw ``u`` in ``draws``,
    # floats or columns of them, as ``random.Random.uniform`` computes it.
    return [lo + (hi - lo) * u for u in draws]


def _coords(m: GgvModel, draws: list, margin: float, lib) -> tuple:
    """The coordinates of the point made from ``draws``, in ``lib``'s form.

    A ball point is a Gaussian direction, normalized (a zero direction
    becomes the first axis), at radius ``s * margin * u^(1/dim)`` for a
    uniform ``u``; the other kinds map their uniforms onto the coordinate
    range.
    """
    kind = m.config.kind
    if kind == "pathological":
        return (lib.Phi(*_uniform(draws, -LINE_RANGE, LINE_RANGE)),)
    if kind == "normed":
        return tuple(_uniform(draws, -NORMED_RANGE, NORMED_RANGE))
    direction, u = draws[:-1], draws[-1]
    n = _norm(direction, lib)
    # A zero direction is zero in every coordinate, so moving its first
    # coordinate to 1.0 makes it the first axis.
    zero = n == 0.0
    direction[0] = lib.where(zero, 1.0, direction[0])
    radius = m.config.s * margin * lib.each(pow)(u, 1.0 / len(direction))
    return tuple(map(truediv, map(mul, repeat(radius), direction), repeat(lib.where(zero, 1.0, n))))


def sample_point(m: GgvModel, rng: random.Random, margin: float = BALL_MARGIN) -> GyroPoint:
    """Draw a carrier point of ``m``; ball radii stay within ``margin * s``."""
    return _point(m.tag, _coords(m, [draw() for draw in _draws(m, rng)], margin, _POINT))


def _squared_separation(a, b, lib):
    # The squared Euclidean distance of two coordinate tuples, or of two blocks row by row.
    return sum(map(lib.each(pow), map(sub, a, b), repeat(2)))


def sample_point_away_from_identity(m: GgvModel, rng: random.Random, min_lin_norm: float = 1e-3) -> GyroPoint:
    """Draw a point whose linearized norm is at least ``min_lin_norm``."""
    for _ in range(ATTEMPTS):
        p = sample_point(m, rng)
        if m.nvs.lin(_gnorm(m, p)) >= min_lin_norm:
            return p
    raise SamplingError(Point(away=min_lin_norm).refusal(m))


def sample_separated_pair(m: GgvModel, rng: random.Random, min_coord_sep: float = 1e-3) -> tuple[GyroPoint, GyroPoint]:
    """Draw a pair separated by at least ``min_coord_sep`` in carrier coordinates."""
    for _ in range(ATTEMPTS):
        a = sample_point(m, rng)
        b = sample_point(m, rng)
        if math.sqrt(_squared_separation(a.coords, b.coords, _POINT)) >= min_coord_sep:
            return a, b
    raise SamplingError(Pair(min_coord_sep).refusal(m))


def sample_scalar(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> float:
    """Draw a scalar for the axiom checks.

    The range is deliberately moderate: repeated scalar action at the sampling
    margin must stay far enough from the ball boundary for double precision
    to hold the package tolerance.
    """
    return rng.uniform(lo, hi)


def sample_scalar_away_from(rng: random.Random, excluded: float, min_gap: float, lo: float = -2.0, hi: float = 2.0) -> float:
    """Draw a scalar at least ``min_gap`` away from ``excluded``."""
    for _ in range(ATTEMPTS):
        r = rng.uniform(lo, hi)
        if abs(r - excluded) >= min_gap:
            return r
    raise SamplingError(f"no scalar in [{lo:g}, {hi:g}] at least {min_gap:g} from {excluded!r} in {ATTEMPTS} draws")


# ---------------------------------------------------------------------------
# Samples as columns.
# ---------------------------------------------------------------------------

def _table(rng: random.Random, n: int, width: int) -> np.ndarray:
    """``width`` columns of ``n`` uniforms in ``[0, 1)``, as a ``(width, n)`` array.

    The table is ``rng.randbytes(8 * n * width)`` read row by row as
    little-endian 64-bit words, each word's top 53 bits scaled by ``2**-53``;
    so the first ``k`` rows of ``n`` are the table of ``k``.
    """
    words = np.frombuffer(rng.randbytes(8 * n * width), "<u8") >> np.uint64(11)
    return np.ascontiguousarray((words * 2.0 ** -53).reshape(n, width).T)


def _point_uniforms(m: GgvModel) -> int:
    # The uniforms of one point: a Box-Muller pair per two coordinates of a
    # ball direction and its radius, or one per coordinate.
    dim = m.config.dim
    return 2 * -(-dim // 2) + 1 if m.config.kind in BALL_KINDS else dim


def _block(m: GgvModel, u: np.ndarray, margin: float) -> Block:
    """The block of points made from the uniforms ``u``, one column of a
    table per uniform of a point (see :func:`_point_uniforms`).

    A ball direction is ``dim`` standard Gaussians, Box-Muller pairs
    ``sqrt(-2 log(1 - u1))`` times the cosine and the sine of ``2 pi u2``;
    then the points are made by :func:`_coords`, as :func:`sample_point`
    makes one.
    """
    if m.config.kind not in BALL_KINDS:
        return _coords(m, list(u), margin, _BLOCK)
    length = np.sqrt(-2.0 * np.log1p(-u[0:-1:2]))
    angle = 2.0 * math.pi * u[1:-1:2]
    gaussians = np.stack((length * np.cos(angle), length * np.sin(angle)), axis=1).reshape(-1, u.shape[1])
    return _coords(m, [*gaussians[:m.config.dim], u[-1]], margin, _BLOCK)


def _arrays(columns: list) -> list[np.ndarray]:
    # Every array of a slot's columns, a block's coordinates one by one.
    return [c for column in columns for c in (column if isinstance(column, tuple) else (column,))]


def _redrawn(rng: random.Random, columns: list, width: int, make: Callable, keeps: Callable,
             refusal: Callable[[int], str]) -> list:
    """``columns``, a slot's first candidates, with every rejected row redrawn.

    ``keeps(rows, *candidates)`` tells which candidates of the rows ``rows``
    (an index array, or a slice of every row) the slot keeps.  All rejected
    rows are redrawn together, candidates made by ``make`` from a fresh table
    of ``width`` uniforms per row, round after round, until every row holds
    a candidate it keeps.  The slot refuses with ``refusal(row)``, ``row``
    the first row it still rejects, once it has drawn ``ATTEMPTS``
    candidates since it last kept one, counted in whole rounds; a first pass
    that keeps nothing counts every row.
    """
    ok = keeps(slice(None), *columns)
    rejected, idle = np.flatnonzero(~ok), 0 if ok.any() else len(ok)
    while len(rejected):
        if idle >= ATTEMPTS:
            raise SamplingError(refusal(rejected[0]))
        k = len(rejected)
        candidates = make(_table(rng, k, width))
        ok = keeps(rejected, *candidates)
        for column, new in zip(_arrays(columns), _arrays(candidates)):
            column[rejected[ok]] = new[ok]
        rejected, idle = rejected[~ok], 0 if ok.any() else idle + k
    return columns


class _Points:
    """What the point slots share: their uniforms, the blocks made from them
    and the rounds of redraws of a slot that rejects candidates."""

    margin = BALL_MARGIN
    # The points of one candidate.
    width = 1
    rejects = False

    def uniforms(self, m: GgvModel) -> int:
        return self.width * _point_uniforms(m)

    def make(self, m: GgvModel, u: np.ndarray) -> list[Block]:
        # The candidates' blocks from their columns of uniforms.
        w = len(u) // self.width
        return [_block(m, u[j * w:(j + 1) * w], self.margin) for j in range(self.width)]

    def columns(self, m: GgvModel, rng: random.Random, u: np.ndarray) -> list[Block]:
        blocks = self.make(m, u)
        if not self.rejects:
            return blocks
        form = _on_blocks(m)
        return _redrawn(rng, blocks, self.uniforms(m), partial(self.make, m),
                        lambda rows, *candidate: self.accepts(form, *candidate), lambda row: self.refusal(m))


class Point(_Points):
    """A layout slot of one point within ``margin * s``; with ``away``, a point
    at that linearized norm or more, redrawn in rounds (see :func:`_redrawn`)
    and refused as :func:`sample_point_away_from_identity` refuses.  Its
    column is a block."""

    def __init__(self, margin: float = BALL_MARGIN, away: float | None = None) -> None:
        self.margin, self.away, self.rejects = margin, away, away is not None

    def accepts(self, form: GgvModel, a) -> np.ndarray:
        # Which rows of the block ``a`` are kept, with ``form`` the model on blocks.
        return form.nvs.lin(_gnorm(form, a)) >= self.away

    def refusal(self, m: GgvModel) -> str:
        return f"no point of {m.tag} at linearized norm >= {self.away:g} in {ATTEMPTS} draws: {_TOO_SMALL}"


class Pair(_Points):
    """A layout slot of two points at least ``sep`` apart in carrier
    coordinates, redrawn in rounds (see :func:`_redrawn`) and refused as
    :func:`sample_separated_pair` refuses.  Its columns are two blocks."""

    width, rejects = 2, True

    def __init__(self, sep: float) -> None:
        self.sep = sep

    def accepts(self, form: GgvModel, a, c) -> np.ndarray:
        return np.sqrt(_squared_separation(a, c, _BLOCK)) >= self.sep

    def refusal(self, m: GgvModel) -> str:
        return f"no pair of {m.tag} {self.sep:g} apart in coordinates in {ATTEMPTS} draws: {_TOO_SMALL}"


class Scalar:
    """A layout slot of a scalar ``lo + (hi - lo) u`` for a uniform ``u``;
    with ``gap`` and ``excluded``, a number or a column, one at least ``gap``
    from ``excluded``, redrawn in rounds (see :func:`_redrawn`) and refused
    as :func:`sample_scalar_away_from` refuses."""

    def __init__(self, lo: float = -2.0, hi: float = 2.0, gap: float | None = None,
                 excluded: float | np.ndarray | None = None) -> None:
        if (gap is None) != (excluded is None):
            raise TypeError("a scalar kept apart needs both its gap and what it is kept from")
        self.lo, self.hi, self.gap, self.excluded = lo, hi, gap, excluded

    def uniforms(self, m: GgvModel) -> int:
        return 1

    def make(self, u: np.ndarray) -> list[np.ndarray]:
        return _uniform(u, self.lo, self.hi)

    def columns(self, m: GgvModel, rng: random.Random, u: np.ndarray) -> list[np.ndarray]:
        values = self.make(u)
        if self.gap is None:
            return values
        excluded = np.broadcast_to(self.excluded, u.shape[1])
        return _redrawn(rng, values, 1, self.make, lambda rows, r: abs(r - excluded[rows]) >= self.gap,
                        lambda row: f"no scalar in [{self.lo:g}, {self.hi:g}] at least {self.gap:g} from "
                                    f"{float(excluded[row])!r} in {ATTEMPTS} draws")


class Distinct:
    """A layout slot of two scalars in ``[lo, hi]``: ``r``, then one at least
    ``gap`` from ``r``, kept as a :class:`Scalar` keeps it.  Its columns are
    the two scalars."""

    def __init__(self, gap: float, lo: float = -2.0, hi: float = 2.0) -> None:
        self.gap, self.lo, self.hi = gap, lo, hi

    def uniforms(self, m: GgvModel) -> int:
        return 2

    def columns(self, m: GgvModel, rng: random.Random, u: np.ndarray) -> list[np.ndarray]:
        (r,) = Scalar(self.lo, self.hi).make(u[:1])
        return [r, *Scalar(self.lo, self.hi, self.gap, r).columns(m, rng, u[1:])]


class Const:
    """A layout slot that draws nothing: ``value(m)``, a point or a number, on
    every row, as a block or a column."""

    def __init__(self, value: Callable[[GgvModel], object]) -> None:
        self.value = value

    def uniforms(self, m: GgvModel) -> int:
        return 0

    def columns(self, m: GgvModel, rng: random.Random, u: np.ndarray) -> list:
        value, n = self.value(m), u.shape[1]
        if isinstance(value, GyroPoint):
            return [tuple(np.full(n, x) for x in value.coords)]
        return [np.full(n, value)]


Slot = Point | Pair | Scalar | Distinct | Const


def sample_columns(m: GgvModel, rng: random.Random, n: int, layout: tuple[Slot, ...]) -> list:
    """The columns of ``n >= 1`` samples of ``layout``, slot after slot.

    One table of ``n`` rows of uniforms is drawn for the whole layout, each
    slot's columns of uniforms side by side in layout order (see
    :func:`_table`), and each slot makes its columns from its own: a point
    slot its blocks, a scalar its values.  Then each slot that rejects
    candidates redraws its rejected rows in rounds, in slot order (see
    :func:`_redrawn`).  So the first ``k`` rows of a layout that rejects
    nothing are its ``k`` samples from the same seed.
    """
    ends = [0, *accumulate(slot.uniforms(m) for slot in layout)]
    table = _table(rng, n, ends[-1])
    return [column for slot, start, end in zip(layout, ends, ends[1:])
            for column in slot.columns(m, rng, table[start:end])]

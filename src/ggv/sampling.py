"""Seeded carrier samplers shared by the verification suites and the CLI.

A point is drawn by a fixed sequence of ``random.Random`` calls
(:func:`_draws`), then made from those draws by a formula written once over
a lib (see :mod:`ggv.models`): :func:`sample_point` runs it on one point's
draws, and a block of points runs it on columns of draws, so that each row
rounds exactly as that point does.

:func:`sample_columns` draws ``n`` samples of a *layout*, a tuple of slots
(:class:`Point`, :class:`Pair`, :class:`Scalar`, :class:`Distinct`,
:class:`Const`) that says what one sample holds.  It compiles the layout
into one sample's list of ``rng`` calls, slot after slot, each returning one
float, runs that list once per sample, and makes each slot's columns from
its columns of draws: a point slot's blocks, a scalar's values.  So every
sample takes its first candidates in the ``rng`` calls of a loop that draws
each sample with the point and scalar samplers below, in the same order.  A
scalar that must keep a gap is redrawn at once, as
:func:`sample_scalar_away_from` does.  A point slot that rejects candidates
(a point away from the identity, a separated pair) tests its first
candidates on the block, then redraws all of its rejected rows together, in
row order, round after round, until every row holds a candidate it keeps.
Rows before its first rejected candidate are those of the loop; later rows
come from later positions of the stream, so they depend on ``n``.
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
# for a layout slot since it last kept one (see :meth:`_Points.redrawn`).
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
    # A zero direction is +0.0 in every coordinate (random.gauss never
    # returns -0.0), so moving its first coordinate to 1.0 makes it the axis.
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

class _Points:
    """What the point slots share: the draws of their points, the blocks made
    from them and the rounds of redraws of a slot that rejects candidates."""

    margin = BALL_MARGIN
    # The points of one candidate.
    width = 1

    def program(self, m: GgvModel, rng: random.Random) -> list[Callable[[], float]]:
        return _draws(m, rng) * self.width

    def points(self, m: GgvModel, draws: list) -> list[Block]:
        # The candidates' blocks from their columns of draws.
        k = len(draws) // self.width
        return [_coords(m, draws[j * k:(j + 1) * k], self.margin, _BLOCK) for j in range(self.width)]

    def columns(self, m: GgvModel, draws: list, n: int, program: list) -> list[Block]:
        blocks = self.points(m, draws)
        return self.redrawn(m, blocks, n, program) if self.rejects else blocks

    def redrawn(self, m: GgvModel, blocks: list[Block], n: int, program: list) -> list[Block]:
        """``blocks`` with every rejected row redrawn by ``program``, one
        candidate's ``rng`` calls: all rejected rows together, in row order,
        round after round, until every row holds a candidate it keeps.

        The slot refuses as its rejection sampler does once it has drawn
        ``ATTEMPTS`` candidates since it last kept one, counted in whole
        rounds; a first pass that keeps nothing counts every row.
        """
        form = _on_blocks(m)
        ok = self.accepts(form, *blocks)
        rejected, idle = np.flatnonzero(~ok), 0 if ok.any() else n
        while len(rejected):
            if idle >= ATTEMPTS:
                raise SamplingError(self.refusal(m))
            k = len(rejected)
            candidates = self.points(m, _by_slot([draw() for _ in range(k) for draw in program], k, [program])[0])
            ok = self.accepts(form, *candidates)
            for block, candidate in zip(blocks, candidates):
                for column, new in zip(block, candidate):
                    column[rejected[ok]] = new[ok]
            rejected, idle = rejected[~ok], 0 if ok.any() else idle + k
        return blocks


class Point(_Points):
    """A layout slot of one point within ``margin * s``, as :func:`sample_point`
    draws it; with ``away``, a point at that linearized norm or more, kept as
    :func:`sample_point_away_from_identity` keeps it and redrawn in rounds
    (see :meth:`_Points.redrawn`).  Its column is a block."""

    def __init__(self, margin: float = BALL_MARGIN, away: float | None = None) -> None:
        self.margin, self.away, self.rejects = margin, away, away is not None

    def accepts(self, form: GgvModel, a) -> np.ndarray:
        # Which rows of the block ``a`` are kept, with ``form`` the model on blocks.
        return form.nvs.lin(_gnorm(form, a)) >= self.away

    def refusal(self, m: GgvModel) -> str:
        return f"no point of {m.tag} at linearized norm >= {self.away:g} in {ATTEMPTS} draws: {_TOO_SMALL}"


class Pair(_Points):
    """A layout slot of two points at least ``sep`` apart in carrier
    coordinates, kept as :func:`sample_separated_pair` keeps them and redrawn
    in rounds (see :meth:`_Points.redrawn`).  Its columns are two blocks."""

    width, rejects = 2, True

    def __init__(self, sep: float) -> None:
        self.sep = sep

    def accepts(self, form: GgvModel, a, c) -> np.ndarray:
        return np.sqrt(_squared_separation(a, c, _BLOCK)) >= self.sep

    def refusal(self, m: GgvModel) -> str:
        return f"no pair of {m.tag} {self.sep:g} apart in coordinates in {ATTEMPTS} draws: {_TOO_SMALL}"


class Scalar:
    """A layout slot of a scalar ``rng.uniform(lo, hi)``; with ``gap`` and
    ``excluded``, the scalar of :func:`sample_scalar_away_from`, at least
    ``gap`` from the number ``excluded``."""

    def __init__(self, lo: float = -2.0, hi: float = 2.0, gap: float | None = None,
                 excluded: float | None = None) -> None:
        if (gap is None) != (excluded is None):
            raise TypeError("a scalar kept apart needs both its gap and what it is kept from")
        self.lo, self.hi, self.gap, self.excluded = lo, hi, gap, excluded

    def program(self, m: GgvModel, rng: random.Random) -> list[Callable[[], float]]:
        # A redraw is made at once, in the sample's own turn.
        if self.gap is None:
            return [rng.random]
        return [partial(sample_scalar_away_from, rng, self.excluded, self.gap, self.lo, self.hi)]

    def columns(self, m: GgvModel, draws: list, n: int, program: list) -> list[np.ndarray]:
        return _uniform(draws, self.lo, self.hi) if self.gap is None else draws


class Distinct:
    """A layout slot of two scalars: ``r``, the scalar of :func:`sample_scalar`
    in ``[lo, hi]``, then the scalar of :func:`sample_scalar_away_from`, at
    least ``gap`` from ``r``.  Its columns are the two scalars."""

    def __init__(self, gap: float, lo: float = -2.0, hi: float = 2.0) -> None:
        self.gap, self.lo, self.hi = gap, lo, hi

    def program(self, m: GgvModel, rng: random.Random) -> list[Callable[[], float]]:
        gap, lo, hi, r = self.gap, self.lo, self.hi, 0.0

        def first() -> float:
            nonlocal r
            r = sample_scalar(rng, lo, hi)
            return r

        return [first, lambda: sample_scalar_away_from(rng, r, gap, lo, hi)]

    def columns(self, m: GgvModel, draws: list, n: int, program: list) -> list[np.ndarray]:
        return draws


class Const:
    """A layout slot that draws nothing: ``value(m)``, a point or a number, on
    every row, as a block or a column."""

    def __init__(self, value: Callable[[GgvModel], object]) -> None:
        self.value = value

    def program(self, m: GgvModel, rng: random.Random) -> list:
        return []

    def columns(self, m: GgvModel, draws: list, n: int, program: list) -> list:
        value = self.value(m)
        if isinstance(value, GyroPoint):
            return [tuple(np.full(n, x) for x in value.coords)]
        return [np.full(n, value)]


Slot = Point | Pair | Scalar | Distinct | Const


def sample_columns(m: GgvModel, rng: random.Random, n: int, layout: tuple[Slot, ...]) -> list:
    """The columns of ``n >= 1`` samples of ``layout``, slot after slot.

    The layout is compiled into one sample's list of ``rng`` calls, slot
    after slot, each returning one float: a point's draws (see
    :func:`_draws`), a scalar's ``rng.random()``, a kept-apart scalar's
    whole redraw loop.  The list runs once per sample, in one pass over all
    samples, and each slot makes its columns from its own columns of draws:
    a point slot its blocks, a scalar its values.  So the first pass makes
    the ``rng`` calls of a loop that draws each sample slot by slot with the
    point and scalar samplers, taking each point's first candidate.  A slot
    that rejects candidates then redraws its rejected rows in rounds, in
    slot order (see :meth:`_Points.redrawn`); a layout without one draws
    row ``i`` bit for bit as the ``i``-th sample of that loop.
    """
    programs = [slot.program(m, rng) for slot in layout]
    program = [draw for slot_program in programs for draw in slot_program]
    slots = _by_slot([draw() for _ in range(n) for draw in program], n, programs)
    return [column for slot, draws, slot_program in zip(layout, slots, programs)
            for column in slot.columns(m, draws, n, slot_program)]


def _by_slot(draws: list[float], n: int, programs: list[list]) -> list[list[np.ndarray]]:
    # The draws of ``n`` successive samples made by ``programs``, one list of
    # columns per slot: a column per ``rng`` call of a sample.
    ends = [0, *accumulate(map(len, programs))]
    table = list(np.array(draws).reshape(n, ends[-1]).T)
    return [table[start:end] for start, end in zip(ends, ends[1:])]

"""Seeded carrier samplers shared by the verification suites and the CLI.

A point is drawn by a fixed sequence of ``random.Random`` calls, then made
from those draws by a formula written once over a lib (see
:mod:`ggv.models`): :func:`sample_point` runs it on one point's draws,
:func:`sample_block` on columns holding the draws of ``n`` points.  The block
sampler makes the same calls in the same order as ``n`` calls of the point
sampler, and each of its rows rounds exactly as that point does.

:func:`sample_columns` draws ``n`` samples of a *layout*, a tuple of slots
(:class:`Point`, :class:`Pair`, :class:`Scalar`, :class:`Const`) that says
what one sample holds.  It makes, sample after sample and slot after slot,
the ``rng`` calls of a loop that draws each sample with the point and scalar
samplers below, collects each point slot's draws into one flat list and
makes its points as one block.  A scalar slot that must keep a gap is redrawn at once, as
:func:`sample_scalar_away_from` does.  A point slot that rejects candidates
(a point away from the identity, a separated pair) is drawn speculatively,
a span of samples at a time: each takes its first candidate, and acceptance
is tested on the block.  At the first rejected row the stream is set back to
the state saved before the span and the accepted rows are drawn again; the
rejected sample and the next few are then drawn one at a time, candidate by
candidate, before speculation resumes.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import mul, sub, truediv
from typing import Callable

import numpy as np

from .errors import SamplingError
from .gyrogroup import GyroPoint, _point
from .models import _BLOCK, _POINT, Block, _in_form, _norm, _on_blocks
from .space import GgvModel, _gnorm

# Ball points are kept at Euclidean norm <= BALL_MARGIN * s: gamma factors
# diverge at the boundary and double precision dies with them.
BALL_MARGIN = 0.95
# Transplanted-coordinate range for the pathological line model.
LINE_RANGE = 5.0
# Coordinate range for the normed model.
NORMED_RANGE = 3.0
# Draws a rejection sampler makes before it gives up.
ATTEMPTS = 1000
# Why a point sampler can give up: its thresholds are absolute, while ball
# points scale with the radius.
_TOO_SMALL = "the radius is too small for the suite's separation thresholds"


def _draws(m: GgvModel, rng: random.Random, n: int = 1) -> list[float]:
    """The ``rng`` draws of ``n`` points of ``m``, point after point, in the
    order they are made."""
    kind, dim = m.config.kind, m.config.dim
    if kind == "pathological":
        return [rng.uniform(-LINE_RANGE, LINE_RANGE) for _ in range(n)]
    if kind == "normed":
        return [rng.uniform(-NORMED_RANGE, NORMED_RANGE) for _ in range(n * dim)]
    # A ball point: a direction of ``dim`` Gaussians, then the uniform of its radius.
    gauss, uniform = rng.gauss, rng.random
    return [gauss(0.0, 1.0) if j < dim else uniform() for _ in range(n) for j in range(dim + 1)]


def _coords(m: GgvModel, draws, margin: float, lib) -> tuple:
    """The coordinates of the point made from ``draws``, in ``lib``'s form.

    A ball point is a Gaussian direction, normalized (a zero direction
    becomes the first axis), at radius ``s * margin * u^(1/dim)`` for a
    uniform ``u``; the other kinds read their coordinates off the draws.
    """
    kind = m.config.kind
    if kind == "pathological":
        return (lib.Phi(draws[0]),)
    if kind == "normed":
        return tuple(draws)
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
    return _point(m.tag, _coords(m, _draws(m, rng), margin, _POINT))


def sample_block(m: GgvModel, rng: random.Random, n: int, margin: float = BALL_MARGIN) -> Block:
    """The coordinates of ``n >= 1`` successive :func:`sample_point` draws, as columns.

    The ``rng`` calls are made point by point, in the order of ``n`` calls of
    :func:`sample_point`; the formula that makes the points runs on columns,
    and row ``i`` is bit for bit the ``i``-th point.
    """
    return _block_of(m, _draws(m, rng, n), n, margin)


def _block_of(m: GgvModel, draws: list[float], n: int, margin: float) -> Block:
    # The block of the ``n`` points whose draws are ``draws``, point after point.
    return _coords(m, list(np.array(draws).reshape(n, -1).T), margin, _BLOCK)


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
    """What the point slots share: their draws, their blocks and the
    per-candidate loop of a slot that rejects candidates."""

    margin = BALL_MARGIN
    # The points of one candidate.
    width = 1

    def drawer(self, m: GgvModel, rng: random.Random, store: list, previous: list | None,
               form: GgvModel | None) -> Callable[[], None]:
        if form is not None and self.rejects:
            return lambda: self._draw_kept(m, form, rng, store)
        extend, width = store.extend, self.width
        return lambda: extend(_draws(m, rng, width))

    def columns(self, m: GgvModel, store: list, n: int) -> list[Block]:
        block = _block_of(m, store, self.width * n, self.margin)
        return [tuple(column[j::self.width] for column in block) for j in range(self.width)]

    def _draw_kept(self, m: GgvModel, form: GgvModel, rng: random.Random, store: list) -> None:
        # The loop of the rejection samplers for one sample, tested on
        # ``form``, the model ``m`` on coordinate tuples.
        for _ in range(ATTEMPTS):
            draws = _draws(m, rng, self.width)
            k = len(draws) // self.width
            if self.accepts(form, _POINT, *(_coords(m, draws[j * k:(j + 1) * k], self.margin, _POINT)
                                            for j in range(self.width))):
                store.extend(draws)
                return
        raise SamplingError(self.refusal(m))


class Point(_Points):
    """A layout slot of one point within ``margin * s``, as :func:`sample_point`
    draws it; with ``away``, the point of :func:`sample_point_away_from_identity`
    at that linearized norm.  Its column is a block."""

    def __init__(self, margin: float = BALL_MARGIN, away: float | None = None) -> None:
        self.margin, self.away, self.rejects = margin, away, away is not None

    def accepts(self, form: GgvModel, lib, a):
        # Whether a candidate is kept: one in coordinates with ``form`` the
        # model in ``lib``'s form, or a block of them row by row.
        return form.nvs.lin(_gnorm(form, a)) >= self.away

    def refusal(self, m: GgvModel) -> str:
        return f"no point of {m.tag} at linearized norm >= {self.away:g} in {ATTEMPTS} draws: {_TOO_SMALL}"


class Pair(_Points):
    """A layout slot of the two points of :func:`sample_separated_pair`, at
    least ``sep`` apart in carrier coordinates.  Its columns are two blocks."""

    width, rejects = 2, True

    def __init__(self, sep: float) -> None:
        self.sep = sep

    def accepts(self, form: GgvModel, lib, a, c):
        return lib.sqrt(_squared_separation(a, c, lib)) >= self.sep

    def refusal(self, m: GgvModel) -> str:
        return f"no pair of {m.tag} {self.sep:g} apart in coordinates in {ATTEMPTS} draws: {_TOO_SMALL}"


# What a :class:`Scalar` is kept apart from when it is the previous slot's scalar.
PREVIOUS = "previous"


class Scalar:
    """A layout slot of a scalar ``rng.uniform(lo, hi)``; with ``gap`` and
    ``excluded``, the scalar of :func:`sample_scalar_away_from`, at least
    ``gap`` from ``excluded``, a number or :data:`PREVIOUS`."""

    # A redraw is made at once, in the sample's own turn.
    rejects = False

    def __init__(self, lo: float = -2.0, hi: float = 2.0, gap: float | None = None,
                 excluded: float | str | None = None) -> None:
        if (gap is None) != (excluded is None):
            raise TypeError("a scalar kept apart needs both its gap and what it is kept from")
        self.lo, self.hi, self.gap, self.excluded = lo, hi, gap, excluded

    def drawer(self, m: GgvModel, rng: random.Random, store: list, previous: list | None,
               form: GgvModel | None) -> Callable[[], None]:
        append, lo, hi, gap, excluded = store.append, self.lo, self.hi, self.gap, self.excluded
        if gap is None:
            uniform = rng.uniform
            return lambda: append(uniform(lo, hi))
        if excluded == PREVIOUS:
            return lambda: append(sample_scalar_away_from(rng, previous[-1], gap, lo, hi))
        return lambda: append(sample_scalar_away_from(rng, excluded, gap, lo, hi))

    def columns(self, m: GgvModel, store: list, n: int) -> list[np.ndarray]:
        return [np.array(store)]


class Const:
    """A layout slot that draws nothing: ``value(m)``, a point or a number, on
    every row, as a block or a column."""

    rejects = False

    def __init__(self, value: Callable[[GgvModel], object]) -> None:
        self.value = value

    def drawer(self, m: GgvModel, rng: random.Random, store: list, previous: list | None,
               form: GgvModel | None) -> None:
        return None

    def columns(self, m: GgvModel, store: list, n: int) -> list:
        value = self.value(m)
        if isinstance(value, GyroPoint):
            return [tuple(np.full(n, x) for x in value.coords)]
        return [np.full(n, value)]


Slot = Point | Pair | Scalar | Const

# A layout that rejects candidates draws at most _SPAN samples speculatively
# between two checkpoints, and fewer than _MIN_SPAN one at a time.
_SPAN, _MIN_SPAN = 256, 32


def sample_columns(m: GgvModel, rng: random.Random, n: int, layout: tuple[Slot, ...]) -> list:
    """The columns of ``n >= 1`` samples of ``layout``, slot after slot.

    The ``rng`` calls are those of a loop that draws each sample slot by slot
    with the point and scalar samplers, in the same order.  Row ``i`` is bit
    for bit the ``i``-th sample of that loop.  A layout that rejects
    candidates draws spans of samples speculatively; the span restarts at
    one sample after a rejection and doubles after each span, and a span
    shorter than ``_MIN_SPAN`` is drawn one sample at a time, as the loop
    draws it.
    """
    stores: list[list] = [[] for _ in layout]
    rejecting = [i for i, slot in enumerate(layout) if slot.rejects]
    if not rejecting:
        _draw(stores, m, rng, n, layout)
        return _columns(m, layout, stores, n)
    on_points = on_blocks = None
    done, span = 0, _SPAN
    while done < n:
        rows, span = min(n - done, span), min(2 * span, _SPAN)
        marks = [len(store) for store in stores]
        if rows < _MIN_SPAN:
            on_points = on_points or _in_form(m, _POINT)
            _draw(stores, m, rng, rows, layout, on_points)
        else:
            on_blocks = on_blocks or _on_blocks(m)
            checkpoint = rng.getstate()
            _draw(stores, m, rng, rows, layout)
            tested = {i: layout[i].columns(m, stores[i][marks[i]:], rows) for i in rejecting}
            first = min(_first_false(layout[i].accepts(on_blocks, _BLOCK, *tested[i])) for i in rejecting)
            if first < rows:
                # Rewind and draw the accepted rows again; the rejected
                # sample starts a span drawn one sample at a time.
                rng.setstate(checkpoint)
                for store, mark in zip(stores, marks):
                    del store[mark:]
                _draw(stores, m, rng, first, layout)
                rows, span = first, 1
            elif rows == n:
                # One span and no rejection: the tested blocks are the columns.
                return [column for i, (slot, store) in enumerate(zip(layout, stores))
                        for column in tested.get(i) or slot.columns(m, store, n)]
        done += rows
    return _columns(m, layout, stores, n)


def _draw(stores: list, m: GgvModel, rng: random.Random, rows: int, layout: tuple[Slot, ...],
          form: GgvModel | None = None) -> None:
    """Append the draws of ``rows`` samples of ``layout`` to ``stores``, one
    list per slot.  A slot that rejects candidates takes its first one, or
    with ``form``, the model on coordinate tuples, draws them until one is
    kept."""
    drawers = [slot.drawer(m, rng, store, previous, form)
               for slot, store, previous in zip(layout, stores, [None] + stores)]
    drawers = [draw for draw in drawers if draw is not None]
    for _ in range(rows):
        for draw in drawers:
            draw()


def _columns(m: GgvModel, layout: tuple[Slot, ...], stores: list, n: int) -> list:
    # The columns of every slot, in order, from the draws of ``n`` samples.
    return [column for slot, store in zip(layout, stores) for column in slot.columns(m, store, n)]


def _first_false(ok: np.ndarray) -> int:
    # The index of the first False entry of ``ok``, or its length.
    rejected = np.flatnonzero(~ok)
    return int(rejected[0]) if len(rejected) else len(ok)

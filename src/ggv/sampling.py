"""Seeded carrier samplers shared by the verification suites and the CLI.

A point is drawn by a fixed sequence of ``random.Random`` calls, then made
from those draws by a formula written once over a lib (see
:mod:`ggv.models`): :func:`sample_point` runs it on one point's draws,
:func:`sample_block` on columns holding the draws of ``n`` points.  The block
sampler makes the same calls in the same order as ``n`` calls of the point
sampler, and each of its rows rounds exactly as that point does.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import mul, sub, truediv

import numpy as np

from .errors import SamplingError
from .gyrogroup import GyroPoint, _point
from .models import _BLOCK, _POINT, Block, _norm
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
    return _coords(m, list(np.array(_draws(m, rng, n)).reshape(n, -1).T), margin, _BLOCK)


def sample_point_away_from_identity(m: GgvModel, rng: random.Random, min_lin_norm: float = 1e-3) -> GyroPoint:
    """Draw a point whose linearized norm is at least ``min_lin_norm``."""
    for _ in range(ATTEMPTS):
        p = sample_point(m, rng)
        if m.nvs.lin(_gnorm(m, p)) >= min_lin_norm:
            return p
    raise SamplingError(
        f"no point of {m.tag} at linearized norm >= {min_lin_norm:g} in {ATTEMPTS} draws: {_TOO_SMALL}"
    )


def sample_separated_pair(m: GgvModel, rng: random.Random, min_coord_sep: float = 1e-3) -> tuple[GyroPoint, GyroPoint]:
    """Draw a pair separated by at least ``min_coord_sep`` in carrier coordinates."""
    for _ in range(ATTEMPTS):
        a = sample_point(m, rng)
        b = sample_point(m, rng)
        sep = math.sqrt(sum(map(pow, map(sub, a.coords, b.coords), repeat(2))))
        if sep >= min_coord_sep:
            return a, b
    raise SamplingError(
        f"no pair of {m.tag} {min_coord_sep:g} apart in coordinates in {ATTEMPTS} draws: {_TOO_SMALL}"
    )


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

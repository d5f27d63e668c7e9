"""Seeded carrier samplers shared by the verification suites and the CLI."""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import mul, sub

from .errors import SamplingError
from .gyrogroup import GyroPoint, _point
from .models import path_Phi
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


def sample_point(m: GgvModel, rng: random.Random, margin: float = BALL_MARGIN) -> GyroPoint:
    """Draw a carrier point of ``m``; ball radii stay within ``margin * s``."""
    kind = m.config.kind
    if kind == "pathological":
        return _point(m.tag, (path_Phi(rng.uniform(-LINE_RANGE, LINE_RANGE)),))
    dim = m.config.dim
    if kind == "normed":
        return _point(m.tag, tuple(rng.uniform(-NORMED_RANGE, NORMED_RANGE) for _ in range(dim)))
    direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    n = math.sqrt(sum(map(mul, direction, direction)))
    if n == 0.0:
        direction, n = [1.0] + [0.0] * (dim - 1), 1.0
    radius = m.config.s * margin * rng.random() ** (1.0 / dim)
    return _point(m.tag, tuple(radius * x / n for x in direction))


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

"""Seeded carrier samplers shared by the verification suites and the CLI."""

from __future__ import annotations

import math
import random

from .gyrogroup import GyroPoint, _point
from .space import GgvModel, gnorm

# Ball points are kept at Euclidean norm <= BALL_MARGIN * s: gamma factors
# diverge at the boundary and double precision dies with them.
BALL_MARGIN = 0.95
# Transplanted-coordinate range for the pathological line model.
LINE_RANGE = 5.0
# Coordinate range for the normed model.
NORMED_RANGE = 3.0


def sample_point(m: GgvModel, rng: random.Random, margin: float = BALL_MARGIN) -> GyroPoint:
    """Draw a carrier point of ``m``; ball radii stay within ``margin * s``."""
    kind = m.config.kind
    if kind == "pathological":
        from .models import path_Phi

        return _point(m.tag, (path_Phi(rng.uniform(-LINE_RANGE, LINE_RANGE)),))
    dim = m.config.dim
    if kind == "normed":
        return _point(m.tag, tuple(rng.uniform(-NORMED_RANGE, NORMED_RANGE) for _ in range(dim)))
    direction = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    n = math.sqrt(sum(x * x for x in direction))
    if n == 0.0:
        direction, n = [1.0] + [0.0] * (dim - 1), 1.0
    radius = m.config.s * margin * rng.random() ** (1.0 / dim)
    return _point(m.tag, tuple(radius * x / n for x in direction))


def sample_point_away_from_identity(
    m: GgvModel,
    rng: random.Random,
    min_lin_norm: float = 1e-3,
    margin: float = BALL_MARGIN,
) -> GyroPoint:
    """Draw a point whose linearized norm is at least ``min_lin_norm``."""
    for _ in range(1000):
        p = sample_point(m, rng, margin)
        if m.nvs.lin(gnorm(m, p)) >= min_lin_norm:
            return p
    raise RuntimeError(f"could not sample a point of {m.tag} away from the identity")


def sample_separated_pair(
    m: GgvModel,
    rng: random.Random,
    min_coord_sep: float = 1e-3,
    margin: float = BALL_MARGIN,
) -> tuple[GyroPoint, GyroPoint]:
    """Draw a pair separated by at least ``min_coord_sep`` in carrier coordinates."""
    for _ in range(1000):
        a = sample_point(m, rng, margin)
        b = sample_point(m, rng, margin)
        sep = math.sqrt(sum((x - y) ** 2 for x, y in zip(a.coords, b.coords)))
        if sep >= min_coord_sep:
            return a, b
    raise RuntimeError(f"could not sample a separated pair of {m.tag}")


def sample_scalar(rng: random.Random, lo: float = -2.0, hi: float = 2.0) -> float:
    """Draw a scalar for the axiom checks.

    The range is deliberately moderate: repeated scalar action at the sampling
    margin must stay far enough from the ball boundary for double precision
    to hold the package tolerance.
    """
    return rng.uniform(lo, hi)


def sample_scalar_away_from(rng: random.Random, excluded: float, min_gap: float, lo: float = -2.0, hi: float = 2.0) -> float:
    """Draw a scalar at least ``min_gap`` away from ``excluded``."""
    for _ in range(1000):
        r = rng.uniform(lo, hi)
        if abs(r - excluded) >= min_gap:
            return r
    raise RuntimeError("could not sample a separated scalar")

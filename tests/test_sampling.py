"""The samplers: the point sampler against plain ``random`` calls, columns
against a reference drawn with the public point and scalar samplers.

The reference of a layout that rejects nothing is a loop over samples; that
of a layout with a slot that rejects candidates draws every sample's first
candidates as the loop does, then redraws the rejected rows in rounds.
"""

import math
import random

import numpy as np
import pytest

from ggv import ModelConfig, gnorm, linearize, make_model, sampling
from ggv.errors import SamplingError
from ggv.gyrogroup import GyroPoint
from ggv.models import path_Phi
from ggv.sampling import (
    Pair,
    Point,
    Scalar,
    sample_columns,
    sample_point,
    sample_point_away_from_identity,
    sample_scalar,
    sample_scalar_away_from,
    sample_separated_pair,
)
from ggv.verify import GROUPS, SEPARATION

SAMPLED_CONFIGS = [ModelConfig(kind, dim=dim, s=2.5 if kind == "einstein" else 1.0)
                   for kind in ("normed", "einstein", "mobius") for dim in range(1, 6)] + [ModelConfig("pathological")]


def _plain_point(cfg, rng, margin):
    # One point drawn with plain ``random`` calls, as sample_point is documented to draw it.
    if cfg.kind == "normed":
        return tuple(rng.uniform(-3, 3) for _ in range(cfg.dim))
    if cfg.kind == "pathological":
        return (path_Phi(rng.uniform(-5, 5)),)
    direction = [rng.gauss(0.0, 1.0) for _ in range(cfg.dim)]
    u = rng.random()
    norm = math.sqrt(sum(x * x for x in direction))
    if norm == 0.0:
        direction, norm = [1.0] + direction[1:], 1.0
    radius = cfg.s * margin * u ** (1 / cfg.dim)
    return tuple(radius * x / norm for x in direction)


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
@pytest.mark.parametrize("cached_gauss", [False, True])
def test_a_point_is_drawn_by_its_documented_random_calls(cfg, cached_gauss):
    m = make_model(cfg)
    for margin in (0.95, 0.8, 0.6):
        sampled, plain = random.Random(f"{cfg.tag}:{margin}"), random.Random(f"{cfg.tag}:{margin}")
        if cached_gauss:  # an odd number of Gaussians leaves the next one cached
            sampled.gauss(0.0, 1.0)
            plain.gauss(0.0, 1.0)
        for _ in range(7):
            assert [x.hex() for x in sample_point(m, sampled, margin).coords] == [
                x.hex() for x in _plain_point(cfg, plain, margin)]
        assert sampled.getstate() == plain.getstate()


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
@pytest.mark.parametrize("cached_gauss", [False, True])
def test_a_block_is_a_loop_of_point_draws_bit_for_bit(cfg, cached_gauss):
    m = make_model(cfg)
    for margin in (0.95, 0.8, 0.6):
        for n in (1, 2, 3, 7):
            by_point, by_block = random.Random(f"{cfg.tag}:{margin}:{n}"), random.Random(f"{cfg.tag}:{margin}:{n}")
            if cached_gauss:  # an odd number of Gaussians leaves the next one cached
                by_point.gauss(0.0, 1.0)
                by_block.gauss(0.0, 1.0)
            points = [sample_point(m, by_point, margin).coords for _ in range(n)]
            (block,) = sample_columns(m, by_block, n, (Point(margin),))
            assert [[x.hex() for x in column.tolist()] for column in block] == [
                [p[j].hex() for p in points] for j in range(cfg.dim)]
            assert by_block.getstate() == by_point.getstate()


class _ZeroGaussians(random.Random):
    # A stream whose Gaussians are all zero: every ball direction is zero.
    def gauss(self, mu=0.0, sigma=1.0):
        super().gauss(mu, sigma)
        return 0.0


def test_a_zero_direction_becomes_the_first_axis_in_both_samplers():
    m = make_model(ModelConfig("mobius", dim=3))
    point = sample_point(m, _ZeroGaussians(5), 0.9).coords
    (block,) = sample_columns(m, _ZeroGaussians(5), 2, (Point(0.9),))
    assert point[0] > 0.0 and point[1:] == (0.0, 0.0)
    assert tuple(column[0] for column in block) == point


# ---------------------------------------------------------------------------
# Every check's sampler against a reference drawn by the point and scalar
# samplers: a loop over samples, and rounds of redraws for rejected rows.
# ---------------------------------------------------------------------------

def _one_at_a_time(sample):
    # The reference of a layout that rejects nothing: n draws of one sample.
    return lambda m, rng, n: _stacked([sample(m, rng) for _ in range(n)])


def _in_rounds(first, redraw, kept, at=0, then=lambda m, *row: row, log=None):
    # The reference of a layout with a slot that rejects candidates: every
    # sample's first candidates, slot by slot (``first``, with the rejecting
    # slot's candidate at index ``at``), then rounds of ``redraw`` for the
    # rows still rejected, in row order, until ``kept`` holds on every row.
    # ``then`` makes a sample from its row; ``log`` collects the rows that
    # each round, the first pass included, leaves rejected.
    def sample_n(m, rng, n):
        rows = [list(first(m, rng)) for _ in range(n)]
        rejected = [i for i, row in enumerate(rows) if not kept(m, row[at])]
        while rejected:
            if log is not None:
                log.append(rejected)
            for i in rejected:
                rows[i][at] = redraw(m, rng)
            rejected = [i for i in rejected if not kept(m, rows[i][at])]
        return _stacked([then(m, *row) for row in rows])

    return sample_n


def _stacked(rows):
    # Samples as columns: each input stacked into a block or a column.
    return [_stack(c) if isinstance(c[0], GyroPoint) else np.array(c) for c in zip(*rows)]


def _stack(points):
    # Points as a block: one column per coordinate.
    return tuple(np.array(column) for column in zip(*(p.coords for p in points)))


def _points(k, margin=0.95):
    return lambda m, rng: tuple(sample_point(m, rng, margin) for _ in range(k))


def _nv(m, rng):
    return m.nvs.lin_inv(rng.uniform(-3.0, 3.0))


def _point_and_scalar(m, rng):
    return sample_point(m, rng), sample_scalar(rng)


def _point_and_two_scalars(m, rng):
    return sample_point(m, rng, 0.8), sample_scalar(rng), sample_scalar(rng)


def _point_and_unit(m, rng):
    return sample_point(m, rng), m.identity


def _distinct_reals(m, rng):
    t1 = rng.uniform(0.0, 3.0)
    return t1, sample_scalar_away_from(rng, t1, 1e-6, 0.0, 3.0)


def _two_intervals(m, rng):
    lo_a = rng.uniform(0.0, 2.0)
    hi_a = lo_a + rng.uniform(1e-6, 1.0)
    lo_b = rng.uniform(0.0, 2.0)
    hi_b = lo_b + rng.uniform(1e-6, 1.0)
    return lo_a, hi_a, lo_b, hi_b


def _away(t):
    # The test of sample_point_away_from_identity.
    return lambda m, a: linearize(m.nvs, gnorm(m, a)) >= t


def _squared_apart(a, b):
    return sum((x - y) ** 2 for x, y in zip(a.coords, b.coords))


def _separated(sep):
    # The test of sample_separated_pair, summed as it sums.
    return lambda m, pair: math.sqrt(_squared_apart(*pair)) >= sep


def _pair(m, rng):
    return sample_point(m, rng), sample_point(m, rng)


def _point_and_nonzero(m, rng):
    return sample_point(m, rng), sample_scalar_away_from(rng, 0.0, 0.1)


def _point_and_distinct_scalars(m, rng):
    a, r = sample_point(m, rng), sample_scalar(rng)
    return a, r, sample_scalar_away_from(rng, r, 0.05)


def _pair_or_unit(m, pair, u):
    a, b = pair
    vacuous = False
    if u < 0.2:
        b = m.identity
        vacuous = _squared_apart(a, b) < SEPARATION ** 2
    return a, b, vacuous


def _point_and_ordered_scalars(m, rng):
    a, alpha = sample_point(m, rng), rng.uniform(0.0, 2.0)
    return a, alpha, sample_scalar_away_from(rng, alpha, 1e-4, 0.0, 2.0)


# One sample of every check, drawn by the point and scalar samplers in turn:
# the checks of points alone and the other checks whose samplers reject
# nothing; the arguments of ``_in_rounds`` for those that reject candidates.
POINTS_ONLY = {
    "GGV0": _points(3), "GGV1": _points(1), "GGV8": _points(2), "left_cancellation": _points(2),
    "gyrocommutativity": _points(2), "gyroautomorphism": _points(4), "left_loop": _points(3),
    "gyration_inversion": _points(3), "gyr_matches_composition": _points(3), "coaddition_commutes": _points(2),
    "gyrometric_invariance": _points(3), "gyrotriangle": _points(3), "midpoint_equidistant": _points(2),
    "midpoint_forms_agree": _points(2), "midpoint_symmetric": _points(2), "metric_self_zero": _points(1),
    "metric_nonnegative": _points(2), "metric_symmetric": _points(2), "metric_triangle": _points(3),
    "metric_matches_linearized_gyrometric": _points(2, 0.8),
}
MIXED = {
    "GGV2": _point_and_two_scalars, "GGV3": _point_and_two_scalars,
    "GGV5": lambda m, rng: (*_points(3)(m, rng), sample_scalar(rng)),
    "GGV6": lambda m, rng: (*_points(2)(m, rng), sample_scalar(rng), sample_scalar(rng)),
    "GGV7": _point_and_scalar, "negation_is_inverse": _point_and_scalar,
    "unit_laws": _point_and_unit, "zero_scalar_gives_unit": _point_and_unit,
    "unit_norm_is_zero": lambda m, rng: (m.identity,),
    "scalars_fix_unit": lambda m, rng: (sample_scalar(rng, -4.0, 4.0), m.identity),
    "linear_additive": lambda m, rng: (_nv(m, rng), _nv(m, rng)),
    "linear_homogeneous": lambda m, rng: (_nv(m, rng), sample_scalar(rng)),
    "linear_order": _distinct_reals, "order_sum_monotone": _two_intervals,
    "linearization_round_trip": lambda m, rng: (rng.uniform(-3.0, 3.0), sample_point(m, rng)),
    "zero_linearizes_to_zero": lambda m, rng: (m.nvs.zero,),
}
REJECTING = {
    "GGV4": dict(first=_point_and_nonzero, redraw=sample_point, kept=_away(SEPARATION)),
    "nonzero_scaling_keeps_nonunit": dict(first=_point_and_nonzero, redraw=sample_point, kept=_away(SEPARATION)),
    "nonunit_norm_positive": dict(first=lambda m, rng: (sample_point(m, rng),), redraw=sample_point,
                                  kept=_away(SEPARATION)),
    "scalar_norm_cancellation": dict(first=_point_and_distinct_scalars, redraw=sample_point, kept=_away(1e-2)),
    "phi_injective": dict(first=lambda m, rng: (_pair(m, rng),), redraw=_pair, kept=_separated(1e-9),
                          then=lambda m, pair: pair),
    "metric_separates": dict(first=lambda m, rng: (_pair(m, rng), rng.random()), redraw=_pair,
                             kept=_separated(SEPARATION), then=_pair_or_unit),
    "scaling_order_equivalence": dict(first=_point_and_ordered_scalars, redraw=sample_point, kept=_away(1e-2)),
}
REFERENCE = ({name: _one_at_a_time(sample) for name, sample in (POINTS_ONLY | MIXED).items()}
             | {name: _in_rounds(**rounds) for name, rounds in REJECTING.items()})
CHECKS = [check for group in GROUPS.values() for check in group]


def _bytes(columns):
    # Every column of a sample, a block's coordinates one by one, as dtype and bytes.
    return [(c.dtype.str, c.tobytes()) for column in columns
            for c in (column if isinstance(column, tuple) else (column,))]


def _same_draws(sample, reference, m, seed, n, cached_gauss):
    by_columns, by_reference = random.Random(seed), random.Random(seed)
    if cached_gauss:
        by_columns.gauss(0.0, 1.0)
        by_reference.gauss(0.0, 1.0)
    assert _bytes(sample(m, by_columns, n)) == _bytes(reference(m, by_reference, n))
    assert by_columns.getstate() == by_reference.getstate()


def test_the_reference_covers_every_check():
    assert sorted(REFERENCE) == sorted(name for name, _ in CHECKS)


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
@pytest.mark.parametrize("cached_gauss", [False, True])
def test_every_check_draws_its_loop_bit_for_bit(cfg, cached_gauss):
    # A cached Gaussian only changes the first draws, and a check of points
    # alone draws no scalar.  A layout that rejects candidates draws up to
    # 1,000 samples, the CLI default, against its reference in rounds; any
    # other sampler draws all of its samples in one pass, as the loop does.
    m = make_model(cfg)
    for name, check in CHECKS:
        if cached_gauss or name in POINTS_ONLY:
            counts = (1, 2, 7)
        else:
            counts = (1, 2, 7, 200, 1000) if name in REJECTING else (1, 2, 7, 200)
        for n in counts:
            _same_draws(check.sample, REFERENCE[name], m, f"{cfg.tag}:{name}:{n}", n, cached_gauss)


@pytest.mark.parametrize("cfg", [ModelConfig("pathological"), ModelConfig("normed", dim=2),
                                 ModelConfig("einstein", dim=1), ModelConfig("mobius", dim=3, s=0.5)],
                         ids=lambda cfg: cfg.tag)
def test_rejected_rows_are_replayed_bit_for_bit(cfg):
    # Thresholds at the median of the first candidates reject about half of
    # them: rejections at row 0 and back to back, redrawn in several rounds.
    m = make_model(cfg)
    rng = random.Random(0)
    away = float(np.median([linearize(m.nvs, gnorm(m, sample_point(m, rng))) for _ in range(201)]))
    apart = float(np.median([math.sqrt(_squared_apart(*_pair(m, rng))) for _ in range(201)]))
    # Each case: a layout and the arguments of its reference.
    cases = (
        ((Point(away=away), Scalar(gap=0.5, excluded=0.0)),
         dict(first=lambda m, rng: (sample_point(m, rng), sample_scalar_away_from(rng, 0.0, 0.5)),
              redraw=sample_point, kept=_away(away))),
        ((Scalar(), Pair(apart), Point(0.6)),
         dict(first=lambda m, rng: (sample_scalar(rng), _pair(m, rng), sample_point(m, rng, 0.6)),
              redraw=_pair, kept=_separated(apart), at=1, then=lambda m, r, pair, c: (r, *pair, c))),
    )
    for layout, rounds in cases:
        first_rejected = back_to_back = several_rounds = 0
        for seed in range(6):
            for n in (1, 2, 7, 40, 300):
                log = []
                _same_draws(lambda m, rng, n: sample_columns(m, rng, n, layout), _in_rounds(**rounds, log=log),
                            m, seed, n, False)
                if n == 300:
                    first_rejected += 0 in log[0]
                    back_to_back += any(j == i + 1 for i, j in zip(log[0], log[0][1:]))
                    several_rounds += len(log) > 2
        assert first_rejected and back_to_back and several_rounds


def test_rejections_of_the_pathological_suite_at_the_default_sample_count_replay():
    # About 0.2% of pathological points fall below the 1e-2 threshold: a few
    # rows of a 1,000-sample check are rejected and redrawn.
    m = make_model(ModelConfig("pathological"))
    table = dict(CHECKS)
    rejected = 0
    for name in ("scalar_norm_cancellation", "scaling_order_equivalence"):
        for seed in range(3):
            log = []
            _same_draws(table[name].sample, _in_rounds(**REJECTING[name], log=log), m, f"{seed}:{name}", 1000, False)
            rejected += len(log[0]) if log else 0
    assert rejected >= 3


REFUSING = [
    (Point(away=10.0), lambda m, rng: sample_point_away_from_identity(m, rng, 10.0)),
    (Pair(10.0), lambda m, rng: sample_separated_pair(m, rng, 10.0)),
]


@pytest.mark.parametrize("slot,refuse", REFUSING)
@pytest.mark.parametrize("n", [5, 40])
def test_a_slot_that_cannot_be_filled_refuses_as_its_sampler_does(slot, refuse, n):
    m = make_model(ModelConfig("mobius", dim=2))
    with pytest.raises(SamplingError) as expected:
        refuse(m, random.Random(3))
    with pytest.raises(SamplingError) as got:
        sample_columns(m, random.Random(3), n, (Scalar(), slot))
    assert str(got.value) == str(expected.value) and "in 1000 draws" in str(got.value)


class _CountingGaussians(random.Random):
    # Counts its Gaussians: a point of Mobius dim 2 takes two.
    gaussians = 0

    def gauss(self, mu=0.0, sigma=1.0):
        self.gaussians += 1
        return super().gauss(mu, sigma)


@pytest.mark.parametrize("slot,refuse", REFUSING, ids=["point", "pair"])
@pytest.mark.parametrize("n", [5, 300, 1000])
def test_a_slot_that_keeps_nothing_refuses_after_attempts_candidates_in_whole_rounds(slot, refuse, n):
    # The slot refuses once it has drawn ATTEMPTS candidates since it last
    # kept one, counted in whole rounds: never per row, which would cost n
    # times as many.
    m = make_model(ModelConfig("mobius", dim=2))
    with pytest.raises(SamplingError) as expected:
        refuse(m, random.Random(3))
    rng = _CountingGaussians(3)
    with pytest.raises(SamplingError) as got:
        sample_columns(m, rng, n, (slot,))
    assert str(got.value) == str(expected.value)
    assert sampling.ATTEMPTS <= rng.gaussians // (2 * slot.width) <= sampling.ATTEMPTS + n

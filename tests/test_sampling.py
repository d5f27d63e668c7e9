"""The samplers: the point sampler against plain ``random`` calls, columns
against their documented table of uniforms.

A layout's columns come from tables of ``randbytes`` uniforms: the first
candidates of every slot from one table, then each redraw round of a slot
that rejects candidates from a fresh table of the rows it still rejects.
The references below decode those tables in plain Python and make each
point with :func:`sample_point` from the draws the table gives it.
"""

import math
import random

import numpy as np
import pytest

from ggv import ModelConfig, gnorm, linearize, make_model, sampling
from ggv.errors import SamplingError
from ggv.gyrogroup import GyroPoint
from ggv.models import BALL_KINDS, path_Phi
from ggv.sampling import (
    Distinct,
    Pair,
    Point,
    Scalar,
    sample_columns,
    sample_point,
    sample_point_away_from_identity,
    sample_scalar_away_from,
    sample_separated_pair,
)
from ggv.verify import GROUPS

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


# ---------------------------------------------------------------------------
# Columns against their documented table.
# ---------------------------------------------------------------------------

class _Bytes:
    # An rng whose ``randbytes`` hands out the given bytes in turn.
    def __init__(self, raw):
        self.raw = raw

    def randbytes(self, n):
        out, self.raw = self.raw[:n], self.raw[n:]
        assert len(out) == n
        return out


class _Recording(random.Random):
    # Keeps every byte string ``randbytes`` returns: one per table drawn.
    def __init__(self, seed):
        super().__init__(seed)
        self.tables = []

    def randbytes(self, n):
        raw = super().randbytes(n)
        self.tables.append(raw)
        return raw


class _Fed:
    # The rng of sample_point that hands out the given Gaussians and uniforms.
    def __init__(self, gaussians, uniforms):
        self.gauss, self.random = iter(gaussians).__next__, iter(uniforms).__next__


def _uniforms(raw, width):
    # The documented table: 8-byte little-endian words, row by row, each
    # word's top 53 bits scaled by 2^-53.
    words = [int.from_bytes(raw[i:i + 8], "little") >> 11 for i in range(0, len(raw), 8)]
    return [[w * 2.0 ** -53 for w in words[i:i + width]] for i in range(0, len(words), width)]


def _reference_points(m, raw, margin):
    # The points of the table ``raw``, one row per point: a ball direction
    # from Box-Muller pairs on the table's columns, its radius the last
    # uniform, each point made by sample_point from the draws of its row.
    width = 2 * math.ceil(m.config.dim / 2) + 1 if m.config.kind in BALL_KINDS else m.config.dim
    rows = _uniforms(raw, width)
    if m.config.kind not in BALL_KINDS:
        return [sample_point(m, _Fed([], row)).coords for row in rows]
    u = np.array(rows).T
    length, angle = np.sqrt(-2.0 * np.log1p(-u[0:-1:2])), 2.0 * math.pi * u[1:-1:2]
    gaussians = [[] for _ in rows]
    for c, s in zip(length * np.cos(angle), length * np.sin(angle)):
        for row, x, y in zip(gaussians, c.tolist(), s.tolist()):
            row += [x, y]
    return [sample_point(m, _Fed(g, [row[-1]]), margin).coords for g, row in zip(gaussians, rows)]


def _rows(columns):
    # Samples as rows: a block's entry is a coordinate tuple, a column's a float.
    return [list(row) for row in zip(*(list(zip(*(c.tolist() for c in column))) if isinstance(column, tuple)
                                       else column.tolist() for column in columns))]


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
def test_a_block_is_its_table_made_into_points_by_sample_point(cfg):
    m = make_model(cfg)
    for margin in (0.95, 0.6):
        for n in (1, 2, 7, 40):
            rng = _Recording(f"{cfg.tag}:{margin}:{n}")
            (block,) = sample_columns(m, rng, n, (Point(margin),))
            (raw,) = rng.tables
            assert len(raw) == 8 * n * sampling._point_uniforms(m)
            assert [[x.hex() for x in p] for p in zip(*(c.tolist() for c in block))] == [
                [x.hex() for x in p] for p in _reference_points(m, raw, margin)]


def _word(u):
    # The 8 bytes of a table entry whose uniform is ``u``, a multiple of 2^-53.
    return (int(u * 2.0 ** 53) << 11).to_bytes(8, "little")


class _ZeroGaussians(random.Random):
    # A stream whose Gaussians are all zero: every ball direction is zero.
    def gauss(self, mu=0.0, sigma=1.0):
        super().gauss(mu, sigma)
        return 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_zero_direction_becomes_the_first_axis_in_both_samplers(dim):
    m = make_model(ModelConfig("mobius", dim=dim))
    point = sample_point(m, _ZeroGaussians(5), 0.9).coords
    assert point[0] > 0.0 and point[1:] == (0.0,) * (dim - 1)
    # Box-Muller pairs whose first uniform is 0 have length 0, whatever their
    # angle; the radius uniform is 0.5 on the first row, 0.25 on the second.
    pairs = (dim + 1) // 2
    rows = [(0.0, 0.75) * pairs + (0.5,), (0.0, 0.125) * pairs + (0.25,)]
    (block,) = sample_columns(m, _Bytes(b"".join(_word(u) for row in rows for u in row)), 2, (Point(0.9),))
    for p, (*_, u) in zip(zip(*(c.tolist() for c in block)), rows):
        assert p == (0.9 * u ** (1 / dim),) + (0.0,) * (dim - 1)


# The checks whose layouts hold a slot that rejects candidates.
REJECTING = {"GGV4", "nonzero_scaling_keeps_nonunit", "nonunit_norm_positive", "scalar_norm_cancellation",
             "phi_injective", "metric_separates", "scaling_order_equivalence", "linear_order"}
CHECKS = [check for group in GROUPS.values() for check in group]


def _bytes(columns):
    # Every column of a sample, a block's coordinates one by one, as dtype and bytes.
    return [(c.dtype.str, c.tobytes()) for column in columns
            for c in (column if isinstance(column, tuple) else (column,))]


def test_the_rejecting_checks_are_checks():
    assert REJECTING <= {name for name, _ in CHECKS}


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
def test_every_check_draws_the_same_columns_for_the_same_seed(cfg):
    m = make_model(cfg)
    for name, check in CHECKS:
        for n in (1, 7, 200):
            first, again = random.Random(f"{cfg.tag}:{name}:{n}"), random.Random(f"{cfg.tag}:{name}:{n}")
            assert _bytes(check.sample(m, first, n)) == _bytes(check.sample(m, again, n))
            assert first.getstate() == again.getstate()


@pytest.mark.parametrize("cfg", SAMPLED_CONFIGS, ids=lambda cfg: cfg.tag)
def test_the_first_rows_of_a_layout_that_rejects_nothing_are_its_shorter_draw(cfg):
    # The preservation record's pairs included: a shorter check's pairs are
    # a prefix of a longer one's.
    m = make_model(cfg)
    samplers = [(name, check.sample) for name, check in CHECKS if name not in REJECTING]
    samplers.append(("pairs", lambda m, rng, n: sample_columns(m, rng, n, (Point(0.9), Point(0.9)))))
    for name, sample in samplers:
        longer = _rows(sample(m, random.Random(f"{cfg.tag}:{name}"), 200))
        for k in (1, 7, 199):
            assert _rows(sample(m, random.Random(f"{cfg.tag}:{name}"), k)) == longer[:k], (name, k)


def _replayed(m, tables, n, first, phases):
    # The rows of a layout replayed from the tables it drew: its first
    # candidates from the first table, as the layout ``first`` (the same
    # slots, keeping every candidate) makes them; then, for each rejecting
    # slot in order, a phase (``at``, ``redraw``, ``kept``): the slot's
    # entries ``row[at]`` are kept where ``kept(row, entries)`` holds, and
    # the rejected rows are redrawn together, round after round, from the
    # next table as the layout ``redraw`` makes candidates.  Also returns,
    # per phase, the rows each round (the first pass included) left rejected.
    tables = iter(tables)
    rows = _rows(sample_columns(m, _Bytes(next(tables)), n, first))
    log = []
    for at, redraw, kept in phases:
        rejected, rounds = [i for i, row in enumerate(rows) if not kept(rows[i], row[at])], []
        while rejected:
            rounds.append(rejected)
            candidates = _rows(sample_columns(m, _Bytes(next(tables)), len(rejected), redraw))
            for i, candidate in zip(rejected, candidates):
                if kept(rows[i], candidate):
                    rows[i][at] = candidate
            rejected = [i for i, candidate in zip(rejected, candidates) if not kept(rows[i], candidate)]
        log.append(rounds)
    assert next(tables, None) is None
    return rows, log


def _away(m, t):
    # The test of sample_point_away_from_identity, on a slot's entries.
    return lambda row, entries: linearize(m.nvs, gnorm(m, GyroPoint(m.tag, entries[0]))) >= t


def _apart(sep):
    # The test of sample_separated_pair, summed as it sums.
    return lambda row, entries: math.sqrt(sum((x - y) * (x - y) for x, y in zip(*entries))) >= sep


@pytest.mark.parametrize("cfg", [ModelConfig("pathological"), ModelConfig("normed", dim=2),
                                 ModelConfig("einstein", dim=1), ModelConfig("mobius", dim=3, s=0.5)],
                         ids=lambda cfg: cfg.tag)
def test_rejected_rows_are_redrawn_together_in_rounds(cfg):
    # Thresholds at the median of the first candidates reject about half of
    # them, and the scalar gaps a quarter to a half: rejections at row 0 and
    # back to back, redrawn in several rounds.
    m = make_model(cfg)
    rng = random.Random(0)
    away = float(np.median([linearize(m.nvs, gnorm(m, sample_point(m, rng))) for _ in range(201)]))
    apart = float(np.median([math.dist(sample_point(m, rng).coords, sample_point(m, rng).coords)
                             for _ in range(201)]))
    # Each case: a layout, the same slots keeping every candidate, and its phases.
    cases = (
        ((Point(away=away), Scalar(gap=0.5, excluded=0.0)), (Point(), Scalar()),
         [(slice(0, 1), (Point(),), _away(m, away)),
          (slice(1, 2), (Scalar(),), lambda row, entries: abs(entries[0] - 0.0) >= 0.5)]),
        ((Scalar(), Pair(apart), Point(0.6)), (Scalar(), Point(), Point(), Point(0.6)),
         [(slice(1, 3), (Point(), Point()), _apart(apart))]),
        ((Point(0.8), Distinct(1.0, 0.0, 3.0)), (Point(0.8), Scalar(0.0, 3.0), Scalar(0.0, 3.0)),
         [(slice(2, 3), (Scalar(0.0, 3.0),), lambda row, entries: abs(entries[0] - row[1]) >= 1.0)]),
    )
    for layout, first, phases in cases:
        first_rejected = back_to_back = several_rounds = 0
        for seed in range(6):
            for n in (1, 2, 7, 40, 300):
                rng = _Recording(seed)
                got = _rows(sample_columns(m, rng, n, layout))
                expected, log = _replayed(m, rng.tables, n, first, phases)
                assert got == expected
                if n == 300:
                    for rounds in log:
                        first_rejected += 0 in rounds[0]
                        back_to_back += any(j == i + 1 for i, j in zip(rounds[0], rounds[0][1:]))
                        several_rounds += len(rounds) > 2
        assert first_rejected and back_to_back and several_rounds


def _ks(sample, cdf):
    # The Kolmogorov-Smirnov statistic of ``sample`` against ``cdf``.
    x = np.sort(sample)
    f, k = cdf(x), np.arange(1, len(x) + 1)
    return max(np.max(k / len(x) - f), np.max(f - (k - 1) / len(x)))


@pytest.mark.parametrize("cfg", [ModelConfig("mobius", dim=1), ModelConfig("mobius", dim=2),
                                 ModelConfig("einstein", dim=3, s=2.5), ModelConfig("mobius", dim=5, s=0.5)],
                         ids=lambda cfg: cfg.tag)
def test_ball_points_are_uniform_in_volume_and_symmetric_in_sign(cfg):
    # At a fixed seed, n = 20,000: 1.95/sqrt(n) is the 0.1% critical value of
    # the Kolmogorov-Smirnov statistic, and a sign fraction strays from 1/2
    # by more than 2/sqrt(n) (four standard deviations) about once in 16,000.
    m, n, margin = make_model(cfg), 20_000, 0.8
    (block,) = sample_columns(m, random.Random(f"{cfg.tag}:law"), n, (Point(margin),))
    x = np.array(block)
    radius = np.sqrt(np.sum(x * x, axis=0)) / (cfg.s * margin)
    # Uniform in volume: (|x| / (s margin))^dim is uniform on [0, 1].
    assert _ks(radius ** cfg.dim, lambda t: t) < 1.95 / math.sqrt(n)
    for column in x:
        assert abs(np.mean(column > 0.0) - 0.5) < 2.0 / math.sqrt(n)
    if cfg.dim == 2:  # the direction's angle is uniform
        assert _ks(np.arctan2(x[1], x[0]), lambda t: (t + math.pi) / (2 * math.pi)) < 1.95 / math.sqrt(n)
    if cfg.dim == 3:  # each coordinate of the direction is uniform on [-1, 1]
        for column in x / (radius * cfg.s * margin):
            assert _ks(column, lambda t: (t + 1) / 2) < 1.95 / math.sqrt(n)


KEPT_APART = [Scalar(gap=0.1, excluded=0.0), Scalar(-2.0, 2.0, gap=1.5, excluded=0.5), Distinct(0.05),
              Distinct(1e-4, 0.0, 2.0), Distinct(1e-6, 0.0, 3.0), Distinct(1.0, 0.0, 3.0), Distinct(1.9, -2.0, 2.0)]


@pytest.mark.parametrize("slot", KEPT_APART, ids=lambda slot: f"{type(slot).__name__}-{slot.gap:g}")
def test_every_kept_apart_scalar_keeps_its_gap(slot):
    m = make_model(ModelConfig("normed", dim=2))
    for seed in range(4):
        for n in (1, 7, 1000):
            columns = sample_columns(m, random.Random(seed), n, (slot,))
            r, x = columns if isinstance(slot, Distinct) else (np.full(n, slot.excluded), columns[0])
            assert np.all(np.abs(x - r) >= slot.gap)
            assert np.all((slot.lo <= x) & (x <= slot.hi)) and np.all((slot.lo <= r) & (r <= slot.hi))


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


def test_a_distinct_slot_that_cannot_be_filled_names_the_first_refusing_rows_value():
    # Every row is rejected, so row 0 refuses, with its first scalar as a float.
    m = make_model(ModelConfig("normed", dim=2))
    (r, _) = sample_columns(m, random.Random(3), 5, (Scalar(0.0, 1.0), Scalar(0.0, 1.0)))
    with pytest.raises(SamplingError) as expected:
        sample_scalar_away_from(random.Random(3), float(r[0]), 10.0, 0.0, 1.0)
    with pytest.raises(SamplingError) as got:
        sample_columns(m, random.Random(3), 5, (Distinct(10.0, 0.0, 1.0),))
    assert str(got.value) == str(expected.value) and f"from {float(r[0])!r} in 1000 draws" in str(got.value)


class _CountingBytes(random.Random):
    # Counts the bytes of its tables.
    drawn = 0

    def randbytes(self, n):
        self.drawn += n
        return super().randbytes(n)


@pytest.mark.parametrize("slot,refuse", REFUSING, ids=["point", "pair"])
@pytest.mark.parametrize("n", [5, 300, 1000])
def test_a_slot_that_keeps_nothing_refuses_after_attempts_candidates_in_whole_rounds(slot, refuse, n):
    # The slot refuses once it has drawn ATTEMPTS candidates since it last
    # kept one, counted in whole rounds: never per row, which would cost n
    # times as many.  A candidate is 8 bytes per uniform.
    m = make_model(ModelConfig("mobius", dim=2))
    with pytest.raises(SamplingError) as expected:
        refuse(m, random.Random(3))
    rng = _CountingBytes(3)
    with pytest.raises(SamplingError) as got:
        sample_columns(m, rng, n, (slot,))
    assert str(got.value) == str(expected.value)
    assert sampling.ATTEMPTS <= rng.drawn // (8 * slot.uniforms(m)) <= sampling.ATTEMPTS + n

"""Seeded property suites for the model axioms and supporting identities.

Every check draws random samples, evaluates one identity or implication, and
reports the worst linearized residual it saw.  Point identities are measured
with the distance kernel (:func:`ggv.space.metric_distance`), norm-value
identities with the absolute difference of linearized values, and order
implications count violations (so their residual is ``0.0`` or ``1.0``).

Each check of :data:`GROUPS` is a :class:`Check`, split in two: ``sample``
draws the inputs of all samples from the check's seeded stream, stacked row
by row, and ``evaluate`` computes their residuals at once on blocks (see
:func:`ggv.models._on_blocks`).  Every check declares the layout of one
sample, a tuple of slots (a point, a point away from the identity, a
separated pair, a scalar, a scalar kept apart from a number, two scalars
kept apart, the unit, the zero norm value), and
:func:`ggv.sampling.sample_columns` draws ``n`` samples of it from one
table of uniforms, each slot's columns made from its own columns of the
table, each point slot's points as one block.  A slot that rejects
candidates keeps its first candidates where it can and then redraws its
rejected rows together from a fresh table, round after round.  Norm values,
interval ends and the unit substituted into a pair are computed from the
drawn columns afterwards.  The evaluation calls the model kernels directly,
since its points were sampled in the carrier; the norm-value operations keep
their membership checks.
Every row rounds exactly as the same formula on points would, so a report
does not depend on how many samples share a block.  A one-sided check
returns its signed excess, which the reduction from ``0.0`` clips.  The
residuals are reduced with :func:`ggv.space.worst_of`, so a NaN or infinite
row fails its check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable

import numpy as np

from .gyrogroup import _coplus, _gyr_via_composition
from .gyrogroup import oplus  # noqa: F401  (perfbench/test_perfbench.py reads verify.oplus)
from .models import _BLOCK, _on_blocks, _row_wise
from .sampling import (
    BALL_MARGIN,
    Const,
    Distinct,
    Pair,
    Point,
    Scalar,
    _squared_separation,
    sample_columns,
)
from .space import (
    DEFAULT_TOLERANCE,
    GgvModel,
    Report,
    _count,
    _gnorm,
    _gyrometric,
    _midpoint,
    nv_le_nonneg,
    worst_of,
    worst_rows,
)

DEFAULT_SAMPLES = 1000

# Quantitative margins for the contrapositive checks: points this far from
# the identity (in linearized norm) must keep a norm distinguishable from
# the zero norm value by a comfortable factor over the tolerance.
SEPARATION = 1e-3
MIN_DISTINGUISHABLE = 1e-6

DrawFn = Callable[[GgvModel, random.Random], float]
# Draws the inputs of ``n`` samples: points as blocks, the rest as columns.
SampleFn = Callable[[GgvModel, random.Random, int], list]


@dataclass(frozen=True)
class VerificationReport(Report):
    """Pass/fail record for one property on one model."""

    property: str
    model: str
    seed: int
    samples: int
    max_residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class Check:
    """One check of the suite, split into drawing and evaluating its samples.

    ``sample(m, rng, n)`` draws the inputs of ``n`` samples: points, scalars,
    norm values and flags, stacked row by row, points as blocks and the rest
    as columns.  ``evaluate(b, *columns)`` takes them on the block form ``b``
    of the model and returns one residual per row.
    """

    sample: SampleFn
    evaluate: Callable[..., np.ndarray]

    def residuals(self, m: GgvModel, columns: list) -> np.ndarray:
        """The residuals of the sampled columns, evaluated in one pass."""
        return self.evaluate(_on_blocks(m), *columns)


def _layout(*slots, then: Callable | None = None) -> SampleFn:
    """A sampler of ``n`` samples, each laid out as ``slots`` (see
    :func:`ggv.sampling.sample_columns`), whose columns pass through
    ``then(m, *columns)`` when it is given."""
    if then is None:
        return lambda m, rng, n: sample_columns(m, rng, n, slots)
    return lambda m, rng, n: then(m, *sample_columns(m, rng, n, slots))


def _points(k: int, margin: float = BALL_MARGIN) -> SampleFn:
    """A sampler of ``k`` carrier points per sample, ``k`` point slots."""
    return _layout(*[Point(margin)] * k)


def _dn(b: GgvModel, A, B):
    return abs(b.nvs.lin(A) - b.nvs.lin(B))


_REAL = Scalar(-3.0, 3.0)


def _norm_values(m: GgvModel, *columns):
    # Members of the norm-value set, including its negative part, obtained by
    # pulling uniformly sampled reals back through the linearization.
    return [_BLOCK.each(m.nvs.lin_inv)(column) for column in columns]


def _violated(ok):
    # 0.0 on a row where the implication holds, 1.0 where it is violated.
    return np.where(ok, 0.0, 1.0)


# ---------------------------------------------------------------------------
# GGV axioms.
# ---------------------------------------------------------------------------

def _ggv0(b, u, v, a):
    return _dn(b, _gnorm(b, b.group.gyr(u, v, a)), _gnorm(b, a))


def _ggv1(b, a):
    return b.distance(b.otimes(1.0, a), a)


# Two stacked scalar actions can push ball points within an ulp of the
# boundary, where the conformal factor amplifies rounding noise; sample
# deeper so the residual reflects the identity and not the arithmetic.
_point_and_two_scalars = _layout(Point(0.8), Scalar(), Scalar())


def _ggv2(b, a, r1, r2):
    lhs = b.otimes(r1 + r2, a)
    rhs = b.group.add(b.otimes(r1, a), b.otimes(r2, a))
    return b.distance(lhs, rhs)


def _ggv3(b, a, r1, r2):
    return b.distance(b.otimes(r1 * r2, a), b.otimes(r1, b.otimes(r2, a)))


_nonunit_point_and_nonzero_scalar = _layout(Point(away=SEPARATION), Scalar(gap=0.1, excluded=0.0))


def _ggv4(b, a, r):
    lhs_vec = b.phi(b.otimes(abs(r), a))
    lhs_den = _gnorm(b, b.otimes(r, a))
    rhs_vec = b.phi(a)
    rhs_den = _gnorm(b, a)
    diff = tuple(x / lhs_den - y / rhs_den for x, y in zip(lhs_vec, rhs_vec))
    return b.ambient_norm(diff)


_three_points_and_scalar = _layout(Point(), Point(), Point(), Scalar())


def _ggv5(b, u, v, a, r):
    lhs = b.group.gyr(u, v, b.otimes(r, a))
    rhs = b.otimes(r, b.group.gyr(u, v, a))
    return b.distance(lhs, rhs)


_two_points_and_two_scalars = _layout(Point(), Point(), Scalar(), Scalar())


def _ggv6(b, v, a, r1, r2):
    return b.distance(b.group.gyr(b.otimes(r1, v), b.otimes(r2, v), a), a)


_point_and_scalar = _layout(Point(), Scalar())


def _ggv7(b, a, r):
    return _dn(b, _gnorm(b, b.otimes(r, a)), b.nvs.nv_smul(abs(r), _gnorm(b, a)))


def _ggv8(b, x, y):
    lhs = b.nvs.lin(_gnorm(b, b.group.add(x, y)))
    rhs = b.nvs.lin(b.nvs.nv_add(_gnorm(b, x), _gnorm(b, y)))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Gyrogroup laws.
# ---------------------------------------------------------------------------

_UNIT = Const(attrgetter("identity"))
_point_and_unit = _layout(Point(), _UNIT)


def _unit_laws(b, a, e):
    g = b.group
    return worst_rows(
        b.distance(g.add(e, a), a),
        b.distance(g.add(g.inv(a), a), e),
        b.distance(g.gyr(e, a, a), a),
    )


def _left_cancellation(b, x, y):
    g = b.group
    return b.distance(g.add(g.inv(x), g.add(x, y)), y)


def _gyrocommutativity(b, x, y):
    g = b.group
    return b.distance(g.add(x, y), g.gyr(x, y, g.add(y, x)))


def _gyroautomorphism(b, u, v, x, y):
    g = b.group
    lhs = g.gyr(u, v, g.add(x, y))
    rhs = g.add(g.gyr(u, v, x), g.gyr(u, v, y))
    return b.distance(lhs, rhs)


def _left_loop(b, u, v, a):
    g = b.group
    return b.distance(g.gyr(g.add(u, v), v, a), g.gyr(u, v, a))


def _gyration_inversion(b, u, v, a):
    g = b.group
    return b.distance(g.gyr(v, u, g.gyr(u, v, a)), a)


def _gyr_matches_composition(b, u, v, a):
    return b.distance(b.group.gyr(u, v, a), _gyr_via_composition(b.group, u, v, a))


def _coaddition_commutes(b, x, y):
    return b.distance(_coplus(b.group, x, y), _coplus(b.group, y, x))


# ---------------------------------------------------------------------------
# Unit and scalar facts.
# ---------------------------------------------------------------------------

_unit = _layout(_UNIT)


def _unit_norm_is_zero(b, e):
    return _dn(b, _gnorm(b, e), b.nvs.zero)


_wide_scalar_and_unit = _layout(Scalar(-4.0, 4.0), _UNIT)


def _scalars_fix_unit(b, r, e):
    return b.distance(b.otimes(r, e), e)


def _zero_scalar_gives_unit(b, a, e):
    return b.distance(b.otimes(0.0, a), e)


def _negation_is_inverse(b, a, alpha):
    return b.distance(b.group.inv(b.otimes(alpha, a)), b.otimes(-alpha, a))


def _nonzero_scaling_keeps_nonunit(b, a, r):
    # Contrapositive of "r (x) a == e implies r == 0 or a == e".
    return _violated(b.nvs.lin(_gnorm(b, b.otimes(r, a))) > MIN_DISTINGUISHABLE)


_nonunit_point = _layout(Point(away=SEPARATION))


def _nonunit_norm_positive(b, a):
    return _violated(abs(_gnorm(b, a)) > MIN_DISTINGUISHABLE)


_nonunit_point_and_distinct_scalars = _layout(Point(away=1e-2), Distinct(0.05))


def _scalar_norm_cancellation(b, a, r, s_):
    # r (x)' |phi(a)| == s (x)' |phi(a)| forces r == s when a != e.
    A = _gnorm(b, a)
    gap = _dn(b, b.nvs.nv_smul(r, A), b.nvs.nv_smul(s_, A))
    return _violated(gap > MIN_DISTINGUISHABLE)


_barely_separated_pair = _layout(Pair(1e-9))


def _phi_injective(b, x, y):
    diff = tuple(p - q for p, q in zip(b.phi(x), b.phi(y)))
    return _violated(b.ambient_norm(diff) > 0.0)


# ---------------------------------------------------------------------------
# Gyrometric, midpoint, metric.
# ---------------------------------------------------------------------------

def _gyrometric_invariance(b, x, y, z):
    g = b.group
    base = _gyrometric(b, y, z)
    return worst_rows(
        _dn(b, _gyrometric(b, g.add(x, y), g.add(x, z)), base),
        _dn(b, _gyrometric(b, g.inv(y), g.inv(z)), base),
        _dn(b, _gyrometric(b, z, y), base),
    )


def _gyrotriangle(b, x, y, z):
    lhs = b.nvs.lin(_gyrometric(b, x, y))
    rhs = b.nvs.lin(b.nvs.nv_add(_gyrometric(b, x, z), _gyrometric(b, z, y)))
    return lhs - rhs


def _midpoint_equidistant(b, x, y):
    p = _midpoint(b, x, y)
    half = b.nvs.nv_smul(0.5, _gyrometric(b, x, y))
    return worst_rows(_dn(b, _gyrometric(b, x, p), half), _dn(b, _gyrometric(b, y, p), half))


def _midpoint_forms_agree(b, x, y):
    via_coaddition = b.otimes(0.5, _coplus(b.group, x, y))
    return b.distance(_midpoint(b, x, y), via_coaddition)


def _midpoint_symmetric(b, x, y):
    return b.distance(_midpoint(b, x, y), _midpoint(b, y, x))


def _metric_self_zero(b, a):
    return abs(b.distance(a, a))


def _metric_nonnegative(b, x, y):
    return -b.distance(x, y)


def _metric_symmetric(b, x, y):
    return abs(b.distance(x, y) - b.distance(y, x))


def _metric_triangle(b, x, y, z):
    return b.distance(x, y) - b.distance(x, z) - b.distance(z, y)


def _pair_or_unit(m, a, b, u):
    # One pair in five is separated against the unit instead: its norm value
    # is the zero element of the norm-value line, but never at zero distance
    # from other points.
    unit = u < 0.2
    e = m.identity.coords
    b = tuple(np.where(unit, x, column) for x, column in zip(e, b))
    return a, b, unit & (_squared_separation(a, b, _BLOCK) < SEPARATION ** 2)


_separated_pair_or_unit = _layout(Pair(SEPARATION), Scalar(0.0, 1.0), then=_pair_or_unit)


def _metric_separates(b, x, y, vacuous):
    return _violated(vacuous | (b.distance(x, y) > MIN_DISTINGUISHABLE))


def _metric_matches_linearized_gyrometric(b, x, y):
    # The specialized distance kernel and the composed route lin(rho(a, b))
    # must agree where both are well conditioned.
    return abs(b.distance(x, y) - b.nvs.lin(_gyrometric(b, x, y)))


# ---------------------------------------------------------------------------
# Order machinery on the norm-value line.
# ---------------------------------------------------------------------------

_nonunit_point_and_ordered_scalars = _layout(Point(away=1e-2), Distinct(1e-4, 0.0, 2.0))


def _scaling_order_equivalence(b, a, alpha, beta):
    # 0 <= alpha < beta holds exactly when the scaled norm values of a
    # non-unit point are nonnegative and strictly ordered the same way.
    A = _gnorm(b, a)
    va = b.nvs.nv_smul(alpha, A)
    vb = b.nvs.nv_smul(beta, A)
    return _violated((va >= 0.0) & (vb >= 0.0) & ((alpha < beta) == (va < vb)))


_two_norm_values = _layout(_REAL, _REAL, then=_norm_values)


def _linear_additive(b, A, B):
    return abs(b.nvs.lin(b.nvs.nv_add(A, B)) - (b.nvs.lin(A) + b.nvs.lin(B)))


_norm_value_and_scalar = _layout(_REAL, Scalar(), then=lambda m, A, r: (*_norm_values(m, A), r))


def _linear_homogeneous(b, A, r):
    return abs(b.nvs.lin(b.nvs.nv_smul(r, A)) - r * b.nvs.lin(A))


_distinct_reals = _layout(Distinct(1e-6, 0.0, 3.0))


def _linear_order(b, t1, t2):
    # On the nonnegative part, A < B holds exactly when lin(A) < lin(B) with
    # both images nonnegative.
    A, B = b.nvs.lin_inv(t1), b.nvs.lin_inv(t2)
    fa, fb = b.nvs.lin(A), b.nvs.lin(B)
    ok = ((0.0 <= A) & (A < B)) == ((0.0 <= fa) & (fa < fb))
    ok &= ((0.0 <= B) & (B < A)) == ((0.0 <= fb) & (fb < fa))
    return _violated(ok & (_row_wise(partial(nv_le_nonneg, b.nvs))(A, B) == (fa <= fb)))


# Two intervals, each a low end and a width.
_two_intervals = _layout(Scalar(0.0, 2.0), Scalar(1e-6, 1.0), Scalar(0.0, 2.0), Scalar(1e-6, 1.0),
                         then=lambda m, lo_a, w_a, lo_b, w_b: (lo_a, lo_a + w_a, lo_b, lo_b + w_b))


def _order_sum_monotone(b, lo_a, hi_a, lo_b, hi_b):
    # 0 <= A < B and 0 <= A' < B' imply 0 <= A (+)' A' < B (+)' B'.
    lin_inv = b.nvs.lin_inv
    small = b.nvs.nv_add(lin_inv(lo_a), lin_inv(lo_b))
    big = b.nvs.nv_add(lin_inv(hi_a), lin_inv(hi_b))
    return _violated((small >= 0.0) & (small < big))


_real_and_point = _layout(_REAL, Point())


def _linearization_round_trip(b, t, a):
    lin, lin_inv = b.nvs.lin, b.nvs.lin_inv
    A = _gnorm(b, a)
    return worst_rows(abs(lin(lin_inv(t)) - t), _dn(b, lin_inv(lin(A)), A))


_zero = _layout(Const(attrgetter("nvs.zero")))


def _zero_linearizes_to_zero(b, zero):
    return abs(b.nvs.lin(zero))


# ---------------------------------------------------------------------------
# Suite assembly.
# ---------------------------------------------------------------------------

GROUPS: dict[str, tuple[tuple[str, Check], ...]] = {
    "axioms": (
        ("GGV0", Check(_points(3), _ggv0)),
        ("GGV1", Check(_points(1), _ggv1)),
        ("GGV2", Check(_point_and_two_scalars, _ggv2)),
        ("GGV3", Check(_point_and_two_scalars, _ggv3)),
        ("GGV4", Check(_nonunit_point_and_nonzero_scalar, _ggv4)),
        ("GGV5", Check(_three_points_and_scalar, _ggv5)),
        ("GGV6", Check(_two_points_and_two_scalars, _ggv6)),
        ("GGV7", Check(_point_and_scalar, _ggv7)),
        ("GGV8", Check(_points(2), _ggv8)),
    ),
    "gyrogroup": (
        ("unit_laws", Check(_point_and_unit, _unit_laws)),
        ("left_cancellation", Check(_points(2), _left_cancellation)),
        ("gyrocommutativity", Check(_points(2), _gyrocommutativity)),
        ("gyroautomorphism", Check(_points(4), _gyroautomorphism)),
        ("left_loop", Check(_points(3), _left_loop)),
        ("gyration_inversion", Check(_points(3), _gyration_inversion)),
        ("gyr_matches_composition", Check(_points(3), _gyr_matches_composition)),
        ("coaddition_commutes", Check(_points(2), _coaddition_commutes)),
    ),
    "scalars": (
        ("unit_norm_is_zero", Check(_unit, _unit_norm_is_zero)),
        ("scalars_fix_unit", Check(_wide_scalar_and_unit, _scalars_fix_unit)),
        ("zero_scalar_gives_unit", Check(_point_and_unit, _zero_scalar_gives_unit)),
        ("negation_is_inverse", Check(_point_and_scalar, _negation_is_inverse)),
        ("nonzero_scaling_keeps_nonunit", Check(_nonunit_point_and_nonzero_scalar, _nonzero_scaling_keeps_nonunit)),
        ("nonunit_norm_positive", Check(_nonunit_point, _nonunit_norm_positive)),
        ("scalar_norm_cancellation", Check(_nonunit_point_and_distinct_scalars, _scalar_norm_cancellation)),
        ("phi_injective", Check(_barely_separated_pair, _phi_injective)),
    ),
    "gyrometric": (
        ("gyrometric_invariance", Check(_points(3), _gyrometric_invariance)),
        ("gyrotriangle", Check(_points(3), _gyrotriangle)),
        ("midpoint_equidistant", Check(_points(2), _midpoint_equidistant)),
        ("midpoint_forms_agree", Check(_points(2), _midpoint_forms_agree)),
        ("midpoint_symmetric", Check(_points(2), _midpoint_symmetric)),
    ),
    "metric": (
        ("metric_self_zero", Check(_points(1), _metric_self_zero)),
        ("metric_nonnegative", Check(_points(2), _metric_nonnegative)),
        ("metric_symmetric", Check(_points(2), _metric_symmetric)),
        ("metric_triangle", Check(_points(3), _metric_triangle)),
        ("metric_separates", Check(_separated_pair_or_unit, _metric_separates)),
        ("metric_matches_linearized_gyrometric", Check(_points(2, 0.8), _metric_matches_linearized_gyrometric)),
    ),
    "order": (
        ("scaling_order_equivalence", Check(_nonunit_point_and_ordered_scalars, _scaling_order_equivalence)),
        ("linear_additive", Check(_two_norm_values, _linear_additive)),
        ("linear_homogeneous", Check(_norm_value_and_scalar, _linear_homogeneous)),
        ("linear_order", Check(_distinct_reals, _linear_order)),
        ("order_sum_monotone", Check(_two_intervals, _order_sum_monotone)),
        ("linearization_round_trip", Check(_real_and_point, _linearization_round_trip)),
        ("zero_linearizes_to_zero", Check(_zero, _zero_linearizes_to_zero)),
    ),
}


def run_check(
    m: GgvModel,
    name: str,
    draw: Check | DrawFn,
    seed: int,
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Run one named check for ``samples`` draws and report the worst residual.

    A :class:`Check` draws all its samples, then evaluates them in one pass
    and reduces them with ``worst_of``, so a NaN or infinite residual fails.
    Any other callable makes one draw per call, reduced with ``max``, which
    drops a NaN draw.
    """
    _count(samples)
    rng = random.Random(f"{seed}:{name}")
    if isinstance(draw, Check):
        worst = worst_of(draw.residuals(m, draw.sample(m, rng, samples)))
    else:
        worst = 0.0
        for _ in range(samples):
            worst = max(worst, draw(m, rng))
    return VerificationReport(name, m.tag, seed, samples, worst, tolerance, worst <= tolerance)


def run_group(
    m: GgvModel,
    group: str,
    seed: int,
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[VerificationReport]:
    """Run every check of one named group."""
    if group not in GROUPS:
        raise KeyError(f"unknown check group {group!r}; expected one of {sorted(GROUPS)}")
    return [run_check(m, name, draw, seed, samples, tolerance) for name, draw in GROUPS[group]]


def run_all(
    m: GgvModel,
    seed: int,
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[VerificationReport]:
    """Run the full suite: axioms, gyrogroup laws, scalar facts, distances, order."""
    reports: list[VerificationReport] = []
    for group in GROUPS:
        reports.extend(run_group(m, group, seed, samples, tolerance))
    return reports

"""Seeded property suites for the model axioms and supporting identities.

Every check draws random samples, evaluates one identity or implication, and
reports the worst linearized residual it saw.  Point identities are measured
with :func:`ggv.space.metric_distance`, norm-value identities with the
absolute difference of linearized values, and order implications count
violations (so their residual is ``0.0`` or ``1.0``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .gyrogroup import coplus, gyr_apply, gyr_via_composition, ominus, oplus
from .sampling import (
    sample_point,
    sample_point_away_from_identity,
    sample_scalar,
    sample_scalar_away_from,
    sample_separated_pair,
)
from .space import (
    DEFAULT_TOLERANCE,
    GgvModel,
    gnorm,
    gyrometric,
    gyromidpoint,
    metric_distance,
    nv_add,
    nv_le_nonneg,
    nv_smul,
    otimes,
    worst_residual,
)

DEFAULT_SAMPLES = 1000

# Quantitative margins for the contrapositive checks: points this far from
# the identity (in linearized norm) must keep a norm distinguishable from
# the zero norm value by a comfortable factor over the tolerance.
SEPARATION = 1e-3
MIN_DISTINGUISHABLE = 1e-6

DrawFn = Callable[[GgvModel, random.Random], float]


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record for one property on one model."""

    property: str
    model: str
    seed: int
    samples: int
    max_residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "model": self.model,
            "seed": self.seed,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _d(m: GgvModel, x, y) -> float:
    return metric_distance(m, x, y)


def _dn(m: GgvModel, A, B) -> float:
    return abs(m.nvs.lin(A) - m.nvs.lin(B))


def _sample_nv(m: GgvModel, rng: random.Random, lo: float = -3.0, hi: float = 3.0):
    # Members of the norm-value set, including its negative part, obtained by
    # pulling uniformly sampled reals back through the linearization.
    return m.nvs.lin_inv(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# GGV axioms.
# ---------------------------------------------------------------------------

def _ggv0(m, rng):
    u, v, a = (sample_point(m, rng) for _ in range(3))
    return _dn(m, gnorm(m, gyr_apply(m.group, u, v, a)), gnorm(m, a))


def _ggv1(m, rng):
    a = sample_point(m, rng)
    return _d(m, otimes(m, 1.0, a), a)


def _ggv2(m, rng):
    # Two stacked scalar actions can push ball points within an ulp of the
    # boundary, where the conformal factor amplifies rounding noise; sample
    # deeper so the residual reflects the identity and not the arithmetic.
    a = sample_point(m, rng, 0.8)
    r1, r2 = sample_scalar(rng), sample_scalar(rng)
    lhs = otimes(m, r1 + r2, a)
    rhs = oplus(m.group, otimes(m, r1, a), otimes(m, r2, a))
    return _d(m, lhs, rhs)


def _ggv3(m, rng):
    a = sample_point(m, rng, 0.8)
    r1, r2 = sample_scalar(rng), sample_scalar(rng)
    return _d(m, otimes(m, r1 * r2, a), otimes(m, r1, otimes(m, r2, a)))


def _ggv4(m, rng):
    a = sample_point_away_from_identity(m, rng, SEPARATION)
    r = sample_scalar_away_from(rng, 0.0, 0.1)
    scaled = otimes(m, abs(r), a)
    lhs_vec = m.phi(scaled)
    lhs_den = gnorm(m, otimes(m, r, a))
    rhs_vec = m.phi(a)
    rhs_den = gnorm(m, a)
    diff = tuple(x / lhs_den - y / rhs_den for x, y in zip(lhs_vec, rhs_vec))
    return m.ambient_norm(diff)


def _ggv5(m, rng):
    u, v, a = (sample_point(m, rng) for _ in range(3))
    r = sample_scalar(rng)
    lhs = gyr_apply(m.group, u, v, otimes(m, r, a))
    rhs = otimes(m, r, gyr_apply(m.group, u, v, a))
    return _d(m, lhs, rhs)


def _ggv6(m, rng):
    v, a = sample_point(m, rng), sample_point(m, rng)
    r1, r2 = sample_scalar(rng), sample_scalar(rng)
    return _d(m, gyr_apply(m.group, otimes(m, r1, v), otimes(m, r2, v), a), a)


def _ggv7(m, rng):
    a = sample_point(m, rng)
    r = sample_scalar(rng)
    return _dn(m, gnorm(m, otimes(m, r, a)), nv_smul(m.nvs, abs(r), gnorm(m, a)))


def _ggv8(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    lhs = m.nvs.lin(gnorm(m, oplus(m.group, a, b)))
    rhs = m.nvs.lin(nv_add(m.nvs, gnorm(m, a), gnorm(m, b)))
    return worst_residual(0.0, lhs - rhs)


# ---------------------------------------------------------------------------
# Gyrogroup laws.
# ---------------------------------------------------------------------------

def _unit_laws(m, rng):
    a = sample_point(m, rng)
    g = m.group
    res = _d(m, oplus(g, g.identity, a), a)
    res = worst_residual(res, _d(m, oplus(g, ominus(g, a), a), g.identity))
    return worst_residual(res, _d(m, gyr_apply(g, g.identity, a, a), a))


def _left_cancellation(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    g = m.group
    return _d(m, oplus(g, ominus(g, a), oplus(g, a, b)), b)


def _gyrocommutativity(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    g = m.group
    return _d(m, oplus(g, a, b), gyr_apply(g, a, b, oplus(g, b, a)))


def _gyroautomorphism(m, rng):
    u, v, a, b = (sample_point(m, rng) for _ in range(4))
    g = m.group
    lhs = gyr_apply(g, u, v, oplus(g, a, b))
    rhs = oplus(g, gyr_apply(g, u, v, a), gyr_apply(g, u, v, b))
    return _d(m, lhs, rhs)


def _left_loop(m, rng):
    u, v, a = (sample_point(m, rng) for _ in range(3))
    g = m.group
    return _d(m, gyr_apply(g, oplus(g, u, v), v, a), gyr_apply(g, u, v, a))


def _gyration_inversion(m, rng):
    u, v, a = (sample_point(m, rng) for _ in range(3))
    g = m.group
    return _d(m, gyr_apply(g, v, u, gyr_apply(g, u, v, a)), a)


def _gyr_matches_composition(m, rng):
    u, v, a = (sample_point(m, rng) for _ in range(3))
    g = m.group
    return _d(m, gyr_apply(g, u, v, a), gyr_via_composition(g, u, v, a))


def _coaddition_commutes(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    return _d(m, coplus(m.group, a, b), coplus(m.group, b, a))


# ---------------------------------------------------------------------------
# Unit and scalar facts.
# ---------------------------------------------------------------------------

def _unit_norm_is_zero(m, rng):
    return _dn(m, gnorm(m, m.identity), m.nvs.zero)


def _scalars_fix_unit(m, rng):
    return _d(m, otimes(m, sample_scalar(rng, -4.0, 4.0), m.identity), m.identity)


def _zero_scalar_gives_unit(m, rng):
    return _d(m, otimes(m, 0.0, sample_point(m, rng)), m.identity)


def _negation_is_inverse(m, rng):
    a = sample_point(m, rng)
    alpha = sample_scalar(rng)
    g = m.group
    return _d(m, ominus(g, otimes(m, alpha, a)), otimes(m, -alpha, a))


def _nonzero_scaling_keeps_nonunit(m, rng):
    # Contrapositive of "r (x) a == e implies r == 0 or a == e".
    a = sample_point_away_from_identity(m, rng, SEPARATION)
    r = sample_scalar_away_from(rng, 0.0, 0.1)
    lin_norm = m.nvs.lin(gnorm(m, otimes(m, r, a)))
    return 0.0 if lin_norm > MIN_DISTINGUISHABLE else 1.0


def _nonunit_norm_positive(m, rng):
    a = sample_point_away_from_identity(m, rng, SEPARATION)
    return 0.0 if abs(gnorm(m, a)) > MIN_DISTINGUISHABLE else 1.0


def _scalar_norm_cancellation(m, rng):
    # r (x)' |phi(a)| == s (x)' |phi(a)| forces r == s when a != e.
    a = sample_point_away_from_identity(m, rng, 1e-2)
    r = sample_scalar(rng)
    s_ = sample_scalar_away_from(rng, r, 0.05)
    A = gnorm(m, a)
    gap = _dn(m, nv_smul(m.nvs, r, A), nv_smul(m.nvs, s_, A))
    return 0.0 if gap > MIN_DISTINGUISHABLE else 1.0


def _phi_injective(m, rng):
    a, b = sample_separated_pair(m, rng, 1e-9)
    diff = tuple(x - y for x, y in zip(m.phi(a), m.phi(b)))
    return 0.0 if m.ambient_norm(diff) > 0.0 else 1.0


# ---------------------------------------------------------------------------
# Gyrometric, midpoint, metric.
# ---------------------------------------------------------------------------

def _gyrometric_invariance(m, rng):
    x, a, b = (sample_point(m, rng) for _ in range(3))
    g = m.group
    base = gyrometric(m, a, b)
    res = _dn(m, gyrometric(m, oplus(g, x, a), oplus(g, x, b)), base)
    res = worst_residual(res, _dn(m, gyrometric(m, ominus(g, a), ominus(g, b)), base))
    return worst_residual(res, _dn(m, gyrometric(m, b, a), base))


def _gyrotriangle(m, rng):
    a, b, c = (sample_point(m, rng) for _ in range(3))
    lhs = m.nvs.lin(gyrometric(m, a, b))
    rhs = m.nvs.lin(nv_add(m.nvs, gyrometric(m, a, c), gyrometric(m, c, b)))
    return worst_residual(0.0, lhs - rhs)


def _midpoint_equidistant(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    p = gyromidpoint(m, a, b)
    half = nv_smul(m.nvs, 0.5, gyrometric(m, a, b))
    return worst_residual(_dn(m, gyrometric(m, a, p), half), _dn(m, gyrometric(m, b, p), half))


def _midpoint_forms_agree(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    via_coaddition = otimes(m, 0.5, coplus(m.group, a, b))
    return _d(m, gyromidpoint(m, a, b), via_coaddition)


def _midpoint_symmetric(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    return _d(m, gyromidpoint(m, a, b), gyromidpoint(m, b, a))


def _metric_self_zero(m, rng):
    a = sample_point(m, rng)
    return abs(metric_distance(m, a, a))


def _metric_nonnegative(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    return worst_residual(0.0, -metric_distance(m, a, b))


def _metric_symmetric(m, rng):
    a, b = sample_point(m, rng), sample_point(m, rng)
    return abs(metric_distance(m, a, b) - metric_distance(m, b, a))


def _metric_triangle(m, rng):
    a, b, c = (sample_point(m, rng) for _ in range(3))
    return worst_residual(0.0, metric_distance(m, a, b) - metric_distance(m, a, c) - metric_distance(m, c, b))


def _metric_separates(m, rng):
    a, b = sample_separated_pair(m, rng, SEPARATION)
    if rng.random() < 0.2:
        # also separate against the unit: its norm value is the zero element
        # of the norm-value line, but never at zero distance from other points
        b = m.identity
        if sum((x - y) ** 2 for x, y in zip(a.coords, b.coords)) < SEPARATION ** 2:
            return 0.0
    return 0.0 if metric_distance(m, a, b) > MIN_DISTINGUISHABLE else 1.0


def _metric_matches_linearized_gyrometric(m, rng):
    # The specialized distance kernel and the composed route lin(rho(a, b))
    # must agree where both are well conditioned.
    a, b = sample_point(m, rng, 0.8), sample_point(m, rng, 0.8)
    return abs(metric_distance(m, a, b) - m.nvs.lin(gyrometric(m, a, b)))


# ---------------------------------------------------------------------------
# Order machinery on the norm-value line.
# ---------------------------------------------------------------------------

def _scaling_order_equivalence(m, rng):
    # 0 <= alpha < beta holds exactly when the scaled norm values of a
    # non-unit point are nonnegative and strictly ordered the same way.
    a = sample_point_away_from_identity(m, rng, 1e-2)
    alpha = rng.uniform(0.0, 2.0)
    beta = sample_scalar_away_from(rng, alpha, 1e-4, 0.0, 2.0)
    A = gnorm(m, a)
    va = nv_smul(m.nvs, alpha, A)
    vb = nv_smul(m.nvs, beta, A)
    ok = va >= 0.0 and vb >= 0.0 and ((alpha < beta) == (va < vb))
    return 0.0 if ok else 1.0


def _linear_additive(m, rng):
    A, B = _sample_nv(m, rng), _sample_nv(m, rng)
    return abs(m.nvs.lin(nv_add(m.nvs, A, B)) - (m.nvs.lin(A) + m.nvs.lin(B)))


def _linear_homogeneous(m, rng):
    A = _sample_nv(m, rng)
    r = sample_scalar(rng)
    return abs(m.nvs.lin(nv_smul(m.nvs, r, A)) - r * m.nvs.lin(A))


def _linear_order(m, rng):
    # On the nonnegative part, A < B holds exactly when lin(A) < lin(B) with
    # both images nonnegative.
    t1 = rng.uniform(0.0, 3.0)
    t2 = sample_scalar_away_from(rng, t1, 1e-6, 0.0, 3.0)
    A, B = m.nvs.lin_inv(t1), m.nvs.lin_inv(t2)
    fa, fb = m.nvs.lin(A), m.nvs.lin(B)
    ok = ((0.0 <= A < B) == (0.0 <= fa < fb)) and ((0.0 <= B < A) == (0.0 <= fb < fa))
    ok = ok and nv_le_nonneg(m.nvs, A, B) == (fa <= fb)
    return 0.0 if ok else 1.0


def _order_sum_monotone(m, rng):
    # 0 <= A < B and 0 <= A' < B' imply 0 <= A (+)' A' < B (+)' B'.
    lo_a = rng.uniform(0.0, 2.0)
    hi_a = lo_a + rng.uniform(1e-6, 1.0)
    lo_b = rng.uniform(0.0, 2.0)
    hi_b = lo_b + rng.uniform(1e-6, 1.0)
    A, B = m.nvs.lin_inv(lo_a), m.nvs.lin_inv(hi_a)
    A2, B2 = m.nvs.lin_inv(lo_b), m.nvs.lin_inv(hi_b)
    small = nv_add(m.nvs, A, A2)
    big = nv_add(m.nvs, B, B2)
    ok = small >= 0.0 and small < big
    return 0.0 if ok else 1.0


def _linearization_round_trip(m, rng):
    t = rng.uniform(-3.0, 3.0)
    res = abs(m.nvs.lin(m.nvs.lin_inv(t)) - t)
    A = gnorm(m, sample_point(m, rng))
    return worst_residual(res, _dn(m, m.nvs.lin_inv(m.nvs.lin(A)), A))


def _zero_linearizes_to_zero(m, rng):
    return abs(m.nvs.lin(m.nvs.zero))


# ---------------------------------------------------------------------------
# Suite assembly.
# ---------------------------------------------------------------------------

GROUPS: dict[str, tuple[tuple[str, DrawFn], ...]] = {
    "axioms": (
        ("GGV0", _ggv0),
        ("GGV1", _ggv1),
        ("GGV2", _ggv2),
        ("GGV3", _ggv3),
        ("GGV4", _ggv4),
        ("GGV5", _ggv5),
        ("GGV6", _ggv6),
        ("GGV7", _ggv7),
        ("GGV8", _ggv8),
    ),
    "gyrogroup": (
        ("unit_laws", _unit_laws),
        ("left_cancellation", _left_cancellation),
        ("gyrocommutativity", _gyrocommutativity),
        ("gyroautomorphism", _gyroautomorphism),
        ("left_loop", _left_loop),
        ("gyration_inversion", _gyration_inversion),
        ("gyr_matches_composition", _gyr_matches_composition),
        ("coaddition_commutes", _coaddition_commutes),
    ),
    "scalars": (
        ("unit_norm_is_zero", _unit_norm_is_zero),
        ("scalars_fix_unit", _scalars_fix_unit),
        ("zero_scalar_gives_unit", _zero_scalar_gives_unit),
        ("negation_is_inverse", _negation_is_inverse),
        ("nonzero_scaling_keeps_nonunit", _nonzero_scaling_keeps_nonunit),
        ("nonunit_norm_positive", _nonunit_norm_positive),
        ("scalar_norm_cancellation", _scalar_norm_cancellation),
        ("phi_injective", _phi_injective),
    ),
    "gyrometric": (
        ("gyrometric_invariance", _gyrometric_invariance),
        ("gyrotriangle", _gyrotriangle),
        ("midpoint_equidistant", _midpoint_equidistant),
        ("midpoint_forms_agree", _midpoint_forms_agree),
        ("midpoint_symmetric", _midpoint_symmetric),
    ),
    "metric": (
        ("metric_self_zero", _metric_self_zero),
        ("metric_nonnegative", _metric_nonnegative),
        ("metric_symmetric", _metric_symmetric),
        ("metric_triangle", _metric_triangle),
        ("metric_separates", _metric_separates),
        ("metric_matches_linearized_gyrometric", _metric_matches_linearized_gyrometric),
    ),
    "order": (
        ("scaling_order_equivalence", _scaling_order_equivalence),
        ("linear_additive", _linear_additive),
        ("linear_homogeneous", _linear_homogeneous),
        ("linear_order", _linear_order),
        ("order_sum_monotone", _order_sum_monotone),
        ("linearization_round_trip", _linearization_round_trip),
        ("zero_linearizes_to_zero", _zero_linearizes_to_zero),
    ),
}


def run_check(
    m: GgvModel,
    name: str,
    draw: DrawFn,
    seed: int,
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Run one named check for ``samples`` draws and report the worst residual."""
    rng = random.Random(f"{seed}:{name}")
    worst = 0.0
    # ``max`` still drops a draw that is NaN itself: perfbench/test_perfbench.py
    # asserts that, so switching to worst_residual waits for that test to change.
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

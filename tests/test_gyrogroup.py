"""Gyrogroup layer: identity laws, gyration laws, coaddition."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggv import (
    DomainError,
    GyroPoint,
    ModelConfig,
    coplus,
    gyr_apply,
    gyr_via_composition,
    make_model,
    make_point,
    metric_distance,
    ominus,
    oplus,
    otimes,
)
from ggv.sampling import sample_point

TOL = 1e-9


def box_point(m, raw):
    """Map a cube sample into the carrier of a ball or normed model."""
    dim = m.config.dim
    if m.config.kind == "normed":
        return make_point(m, [3.0 * x for x in raw])
    scale = 0.9 * m.config.s / math.sqrt(dim)
    return make_point(m, [scale * x for x in raw])


unit_interval = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
line_coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Frozen examples.
# ---------------------------------------------------------------------------

def test_pathological_addition_is_transplanted_product(patho):
    two, three = make_point(patho, [2.0]), make_point(patho, [3.0])
    assert oplus(patho.group, two, three).coords[0] == pytest.approx(6.0, abs=1e-12)


def test_pathological_inverse(patho):
    two = make_point(patho, [2.0])
    assert ominus(patho.group, two).coords[0] == pytest.approx(-2.0, abs=1e-12)


def test_pathological_gyration_is_identity(patho):
    rng = random.Random(3)
    for _ in range(50):
        u, v, a = (sample_point(patho, rng) for _ in range(3))
        assert gyr_apply(patho.group, u, v, a) == a


def test_einstein_one_dimensional_slice(einstein1):
    half = make_point(einstein1, [0.5])
    assert oplus(einstein1.group, half, half).coords[0] == pytest.approx(0.8, abs=1e-12)


def test_one_dimensional_slices_match_rational_oracle():
    rng = random.Random(11)
    for s in (1.0, 2.0):
        m_e = make_model(ModelConfig("einstein", dim=1, s=s))
        m_m = make_model(ModelConfig("mobius", dim=1, s=s))
        for _ in range(300):
            u = rng.uniform(-0.95 * s, 0.95 * s)
            v = rng.uniform(-0.95 * s, 0.95 * s)
            oracle = (u + v) / (1.0 + u * v / (s * s))
            got_e = oplus(m_e.group, make_point(m_e, [u]), make_point(m_e, [v])).coords[0]
            got_m = oplus(m_m.group, make_point(m_m, [u]), make_point(m_m, [v])).coords[0]
            assert got_e == pytest.approx(oracle, abs=1e-12)
            assert got_m == pytest.approx(oracle, abs=1e-12)


def test_normed_inverse_is_negation(normed2):
    p = make_point(normed2, [1.0, 2.0])
    assert ominus(normed2.group, p).coords == (-1.0, -2.0)


def test_normed_coaddition_is_vector_sum(normed2):
    a, b = make_point(normed2, [1.0, 2.0]), make_point(normed2, [3.0, 4.0])
    assert coplus(normed2.group, a, b).coords == (4.0, 6.0)


def test_einstein_coaddition_commutes(einstein2):
    a, b = make_point(einstein2, [0.3, 0.0]), make_point(einstein2, [0.0, 0.4])
    lhs = coplus(einstein2.group, a, b)
    rhs = coplus(einstein2.group, b, a)
    for x, y in zip(lhs.coords, rhs.coords):
        assert x == pytest.approx(y, abs=1e-12)


def test_einstein_gyration_preserves_norm(einstein2):
    u = make_point(einstein2, [0.5, 0.0])
    v = make_point(einstein2, [0.0, 0.5])
    a = make_point(einstein2, [0.1, 0.0])
    for result in (gyr_apply(einstein2.group, u, v, a), gyr_via_composition(einstein2.group, u, v, a)):
        assert math.hypot(*result.coords) == pytest.approx(0.1, abs=1e-12)


# ---------------------------------------------------------------------------
# Laws on every model.
# ---------------------------------------------------------------------------

def test_identity_laws(any_model):
    m = any_model
    rng = random.Random(7)
    e = m.group.identity
    for _ in range(100):
        a = sample_point(m, rng)
        assert metric_distance(m, oplus(m.group, e, a), a) <= TOL
        assert metric_distance(m, oplus(m.group, ominus(m.group, a), a), e) <= TOL
        assert metric_distance(m, gyr_apply(m.group, e, a, a), a) <= TOL
    assert ominus(m.group, e) == e or metric_distance(m, ominus(m.group, e), e) <= TOL


def test_coplus_with_identity(any_model):
    m = any_model
    rng = random.Random(9)
    for _ in range(100):
        a = sample_point(m, rng)
        assert metric_distance(m, coplus(m.group, a, m.group.identity), a) <= TOL


def test_gyr_matches_composition_sampled(any_model):
    m = any_model
    rng = random.Random(13)
    for _ in range(200):
        u, v, a = (sample_point(m, rng) for _ in range(3))
        closed = gyr_apply(m.group, u, v, a)
        brute = gyr_via_composition(m.group, u, v, a)
        assert metric_distance(m, closed, brute) <= TOL


# ---------------------------------------------------------------------------
# Property tests: pathological model through its transplanted coordinate.
# ---------------------------------------------------------------------------

@given(x=line_coord, y=line_coord, z=line_coord)
def test_pathological_group_laws(x, y, z):
    from ggv import path_Phi

    m = make_model(ModelConfig("pathological"))
    a, b, c = (make_point(m, [path_Phi(t)]) for t in (x, y, z))
    g = m.group
    # commutative and associative: the gyration really is trivial here
    assert metric_distance(m, oplus(g, a, b), oplus(g, b, a)) <= TOL
    assert metric_distance(m, oplus(g, oplus(g, a, b), c), oplus(g, a, oplus(g, b, c))) <= TOL
    assert metric_distance(m, oplus(g, ominus(g, a), oplus(g, a, b)), b) <= TOL


# ---------------------------------------------------------------------------
# Property tests: ball models via cube samples.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["einstein", "mobius"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ball_gyro_laws(kind, data):
    m = make_model(ModelConfig(kind, dim=2, s=1.0))
    g = m.group
    raw = [
        data.draw(st.tuples(unit_interval, unit_interval), label=name)
        for name in ("u", "v", "a", "b")
    ]
    u, v, a, b = (box_point(m, r) for r in raw)

    # left cancellation
    assert metric_distance(m, oplus(g, ominus(g, a), oplus(g, a, b)), b) <= TOL
    # gyrocommutativity
    assert metric_distance(m, oplus(g, a, b), gyr_apply(g, a, b, oplus(g, b, a))) <= TOL
    # gyroautomorphism
    lhs = gyr_apply(g, u, v, oplus(g, a, b))
    rhs = oplus(g, gyr_apply(g, u, v, a), gyr_apply(g, u, v, b))
    assert metric_distance(m, lhs, rhs) <= TOL
    # left loop
    assert metric_distance(m, gyr_apply(g, oplus(g, u, v), v, a), gyr_apply(g, u, v, a)) <= TOL
    # gyration inversion round trip
    assert metric_distance(m, gyr_apply(g, v, u, gyr_apply(g, u, v, a)), a) <= TOL


# ---------------------------------------------------------------------------
# Point construction.
# ---------------------------------------------------------------------------

def test_public_points_coerce_and_kernel_points_compare_equal(any_model):
    p = GyroPoint("normed(dim=2)", [1, 2])
    assert p.coords == (1.0, 2.0)
    assert all(type(c) is float for c in p.coords)
    m = any_model
    rng = random.Random(19)
    a, b = sample_point(m, rng), sample_point(m, rng)
    for q in (a, oplus(m.group, a, b), ominus(m.group, a), otimes(m, 0.5, a)):
        assert type(q.coords) is tuple and all(type(c) is float for c in q.coords)
        rebuilt = GyroPoint(q.model_tag, list(q.coords))
        assert rebuilt == q and hash(rebuilt) == hash(q)


# ---------------------------------------------------------------------------
# Domain errors.
# ---------------------------------------------------------------------------

def test_ball_rejects_points_outside(einstein2):
    inside = make_point(einstein2, [0.5, 0.0])
    outside = GyroPoint(einstein2.tag, (1.5, 0.0))
    with pytest.raises(DomainError):
        oplus(einstein2.group, inside, outside)


def test_pathological_rejects_gap_values(patho):
    with pytest.raises(DomainError):
        make_point(patho, [0.5])
    with pytest.raises(DomainError):
        make_point(patho, [-1.0])
    # the norm-value set includes -1, the carrier does not
    assert make_point(patho, [1.0]).coords == (1.0,)


def test_cross_model_points_are_rejected(einstein2, mobius2):
    p = make_point(einstein2, [0.1, 0.2])
    with pytest.raises(DomainError):
        ominus(mobius2.group, p)


def test_dimension_mismatch_is_rejected(normed2):
    with pytest.raises(DomainError):
        make_point(normed2, [1.0, 2.0, 3.0])


def test_nonfinite_coordinates_are_rejected(normed2):
    with pytest.raises(DomainError):
        make_point(normed2, [float("nan"), 0.0])


def test_scaling_far_past_the_boundary_clamps_with_warning(einstein2):
    from ggv import BoundaryClampWarning

    a = make_point(einstein2, [0.9, 0.0])
    with pytest.warns(BoundaryClampWarning):
        result = otimes(einstein2, 50.0, a)
    assert math.hypot(*result.coords) < einstein2.config.s

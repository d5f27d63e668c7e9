"""Scalar action, norm values, linearization, gyrometric, midpoint, metric."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggv import (
    DomainError,
    ModelConfig,
    delinearize,
    gnorm,
    gyrometric,
    gyromidpoint,
    linearize,
    make_model,
    make_point,
    metric_distance,
    nv_add,
    nv_le_nonneg,
    nv_smul,
    otimes,
)
from ggv.sampling import sample_point

TOL = 1e-9

scalars = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
lin_values = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Scalar action.
# ---------------------------------------------------------------------------

def test_pathological_scaling(patho):
    a = make_point(patho, [-2.0])
    assert otimes(patho, 2.0, a).coords[0] == pytest.approx(-4.0, abs=1e-12)


def test_einstein_half_scaling(einstein1):
    a = make_point(einstein1, [0.8])
    assert otimes(einstein1, 0.5, a).coords[0] == pytest.approx(0.5, abs=1e-12)


def test_one_scaling_is_identity(any_model):
    m = any_model
    rng = random.Random(5)
    for _ in range(50):
        a = sample_point(m, rng)
        assert metric_distance(m, otimes(m, 1.0, a), a) <= TOL


def test_zero_scaling_gives_identity(any_model):
    m = any_model
    rng = random.Random(6)
    for _ in range(50):
        a = sample_point(m, rng)
        assert metric_distance(m, otimes(m, 0.0, a), m.identity) <= TOL


# ---------------------------------------------------------------------------
# Norm values.
# ---------------------------------------------------------------------------

def test_pathological_norms(patho):
    assert gnorm(patho, patho.identity) == 1.0
    assert gnorm(patho, make_point(patho, [-2.0])) == 2.0


def test_normed_norm_of_origin(normed2):
    assert gnorm(normed2, normed2.identity) == 0.0


def test_pathological_norm_value_operations(patho):
    assert nv_add(patho.nvs, 2.0, 3.0) == pytest.approx(6.0, abs=1e-12)
    assert nv_smul(patho.nvs, 2.0, 3.0) == pytest.approx(9.0, abs=1e-12)
    # Integer arguments are norm values too, and results are floats: the
    # pinned shift fixes negative integers.
    results = [nv_add(patho.nvs, -2, -3), nv_smul(patho.nvs, 2, -3), linearize(patho.nvs, -6)]
    assert results == [-5.0, -6.0, -6.0]
    assert all(type(result) is float for result in results)


def test_normed_norm_value_operations_are_the_usual_ones(normed2):
    assert nv_add(normed2.nvs, 1.25, -0.5) == 0.75
    assert nv_smul(normed2.nvs, 3.0, -2.0) == -6.0


def test_ball_norm_value_addition_is_relativistic(einstein2):
    assert nv_add(einstein2.nvs, 0.5, 0.5) == pytest.approx(0.8, abs=1e-12)


def test_norm_value_membership_is_enforced(patho):
    with pytest.raises(DomainError):
        nv_add(patho.nvs, 0.5, 2.0)
    with pytest.raises(DomainError):
        nv_smul(patho.nvs, 2.0, 0.0)
    with pytest.raises(DomainError):
        nv_add(make_model(ModelConfig("einstein", dim=2, s=1.0)).nvs, 1.5, 0.0)


# ---------------------------------------------------------------------------
# Linearization.
# ---------------------------------------------------------------------------

def test_pathological_linearization(patho):
    assert linearize(patho.nvs, 6.0) == pytest.approx(1.791759469228055, abs=1e-12)
    assert linearize(patho.nvs, 1.0) == 0.0
    assert delinearize(patho.nvs, 0.0) == 1.0


def test_normed_linearization_is_identity(normed2):
    assert linearize(normed2.nvs, 1.75) == 1.75
    assert delinearize(normed2.nvs, -0.25) == -0.25


def test_linearize_rejects_non_members(patho):
    with pytest.raises(DomainError):
        linearize(patho.nvs, 0.25)


@pytest.mark.parametrize("kind", ["normed", "einstein", "mobius", "pathological"])
@settings(max_examples=100, deadline=None)
@given(t1=lin_values, t2=lin_values, r=scalars)
def test_linearization_is_linear_and_invertible(kind, t1, t2, r):
    m = make_model(ModelConfig(kind, dim=2, s=1.0))
    s = m.nvs
    A, B = delinearize(s, t1), delinearize(s, t2)
    # additivity and homogeneity transplant exactly through lin
    assert linearize(s, nv_add(s, A, B)) == pytest.approx(t1 + t2, abs=1e-9)
    assert linearize(s, nv_smul(s, r, A)) == pytest.approx(r * t1, abs=1e-9)
    # round trip
    assert linearize(s, delinearize(s, t1)) == pytest.approx(t1, abs=1e-12)


@pytest.mark.parametrize("kind", ["normed", "einstein", "mobius", "pathological"])
@settings(max_examples=100, deadline=None)
@given(t1=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       t2=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_order_equivalence_on_nonnegative_part(kind, t1, t2):
    m = make_model(ModelConfig(kind, dim=2, s=1.0))
    s = m.nvs
    A, B = delinearize(s, t1), delinearize(s, t2)
    fa, fb = linearize(s, A), linearize(s, B)
    assert (0.0 <= A < B) == (0.0 <= fa < fb)
    assert nv_le_nonneg(s, A, B) == (fa <= fb)


def test_nv_le_nonneg_examples(patho, normed2):
    assert nv_le_nonneg(patho.nvs, 1.0, 9.0) is True
    assert nv_le_nonneg(patho.nvs, 9.0, 9.0) is True
    assert nv_le_nonneg(normed2.nvs, 2.0, 3.0) is True
    with pytest.raises(DomainError):
        nv_le_nonneg(patho.nvs, -2.0, 9.0)


# ---------------------------------------------------------------------------
# Gyrometric and metric.
# ---------------------------------------------------------------------------

def test_gyrometric_examples(patho, normed2):
    two, three = make_point(patho, [2.0]), make_point(patho, [3.0])
    assert gyrometric(patho, two, three) == pytest.approx(1.5, abs=1e-12)
    a, b = make_point(normed2, [3.0, 0.0]), make_point(normed2, [1.0, 0.0])
    assert gyrometric(normed2, a, b) == pytest.approx(2.0, abs=1e-12)


def test_gyrometric_of_equal_points_is_zero_norm_value(any_model):
    m = any_model
    rng = random.Random(17)
    for _ in range(30):
        a = sample_point(m, rng)
        assert abs(gyrometric(m, a, a) - m.nvs.zero) <= 1e-9


def test_metric_examples(patho, normed2):
    two, three = make_point(patho, [2.0]), make_point(patho, [3.0])
    assert metric_distance(patho, two, three) == pytest.approx(0.4054651081081644, abs=1e-12)
    a, b = make_point(normed2, [0.0, 0.0]), make_point(normed2, [3.0, 4.0])
    assert metric_distance(normed2, a, b) == pytest.approx(5.0, abs=1e-12)


def test_metric_of_equal_points_vanishes(any_model):
    m = any_model
    rng = random.Random(19)
    for _ in range(30):
        a = sample_point(m, rng)
        assert abs(metric_distance(m, a, a)) <= 1e-12


# ---------------------------------------------------------------------------
# Gyromidpoint.
# ---------------------------------------------------------------------------

def test_midpoint_in_a_normed_line(normed1):
    a, b = make_point(normed1, [1.0]), make_point(normed1, [3.0])
    assert gyromidpoint(normed1, a, b).coords[0] == pytest.approx(2.0, abs=1e-12)


def test_midpoint_of_point_with_itself(any_model):
    m = any_model
    rng = random.Random(23)
    for _ in range(30):
        a = sample_point(m, rng)
        assert metric_distance(m, gyromidpoint(m, a, a), a) <= TOL


def test_einstein_midpoint_from_origin(einstein1):
    zero, a = make_point(einstein1, [0.0]), make_point(einstein1, [0.8])
    assert gyromidpoint(einstein1, zero, a).coords[0] == pytest.approx(0.5, abs=1e-12)


def test_midpoint_is_equidistant(any_model):
    m = any_model
    rng = random.Random(29)
    for _ in range(100):
        a, b = sample_point(m, rng), sample_point(m, rng)
        p = gyromidpoint(m, a, b)
        half = nv_smul(m.nvs, 0.5, gyrometric(m, a, b))
        assert abs(m.nvs.lin(gyrometric(m, a, p)) - m.nvs.lin(half)) <= TOL
        assert abs(m.nvs.lin(gyrometric(m, b, p)) - m.nvs.lin(half)) <= TOL

"""Model configuration, the pinned line bijections, and model-specific identities."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggv import (
    ConfigError,
    DomainError,
    ModelConfig,
    gnorm,
    make_model,
    make_point,
    oplus,
    otimes,
    path_Phi,
    path_Phi_inv,
    path_T,
    path_T_inv,
)

line_coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Configuration.
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig("klein")
    with pytest.raises(ConfigError):
        ModelConfig("einstein", dim=0)
    with pytest.raises(ConfigError):
        ModelConfig("einstein", s=-1.0)
    with pytest.raises(ConfigError):
        ModelConfig("einstein", s=float("inf"))


def test_pathological_forces_dimension_one():
    assert ModelConfig("pathological", dim=7).dim == 1


def test_config_json_round_trip():
    cfg = ModelConfig.from_json('{"kind": "mobius", "dim": 3, "s": 2.0}')
    assert cfg == ModelConfig("mobius", dim=3, s=2.0)
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_rejects_unknown_keys_and_bad_json():
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"kind": "normed", "radius": 2})
    with pytest.raises(ConfigError):
        ModelConfig.from_json("{not json")
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"dim": 2})


def test_make_model_requires_config():
    with pytest.raises(ConfigError):
        make_model("einstein")


# ---------------------------------------------------------------------------
# The pinned line bijections.
# ---------------------------------------------------------------------------

def test_phi_pinned_values():
    assert path_Phi(math.log(6.0)) == pytest.approx(6.0, abs=1e-12)
    assert path_Phi(0.0) == 1.0
    assert path_Phi(-math.log(2.0)) == pytest.approx(-2.0, abs=1e-12)


def test_phi_inverse_domain():
    with pytest.raises(DomainError):
        path_Phi_inv(0.5)
    with pytest.raises(DomainError):
        path_Phi_inv(-1.0)


@given(x=line_coord)
def test_phi_round_trip(x):
    assert path_Phi_inv(path_Phi(x)) == pytest.approx(x, abs=1e-9)


@given(x=line_coord, y=line_coord)
def test_phi_is_strictly_increasing(x, y):
    # separation keeps the statement meaningful in double precision
    if x < y - 1e-9:
        assert path_Phi(x) < path_Phi(y)


def test_T_pinned_values():
    assert path_T(math.log(9.0)) == pytest.approx(9.0, abs=1e-12)
    assert path_T(0.0) == 1.0
    # negative integers are fixed points of the negative branch
    assert path_T(-2.0) == -2.0
    assert path_T(-1.0) == -1.0
    # non-integers shift down by one
    assert path_T(-0.5) == -1.5


def test_T_keeps_non_integers_off_the_fixed_points():
    # x - 1 rounds onto a negative integer for these non-integers.
    for x in (-5e-324, -0.9999999999999999, -1.0000000000000002, -1.9999999999999998, -3.9999999999999996):
        assert not path_T(x).is_integer()
        assert path_T_inv(path_T(x)) == pytest.approx(x, abs=1e-12)


def test_T_ranges():
    for x in (0.0, 0.3, 1.7, 12.0):
        assert path_T(x) >= 1.0
    for x in (-0.1, -1.0, -2.5, -7.0):
        assert path_T(x) <= -1.0


@given(x=line_coord)
def test_T_round_trip(x):
    assert path_T_inv(path_T(x)) == pytest.approx(x, abs=1e-9)


@given(x=line_coord, y=line_coord)
def test_T_is_injective(x, y):
    if abs(x - y) > 1e-9:
        assert path_T(x) != path_T(y)


def test_T_inverse_domain():
    with pytest.raises(DomainError):
        path_T_inv(0.0)
    with pytest.raises(DomainError):
        path_T_inv(-0.5)
    assert path_T_inv(-1.0) == -1.0


# ---------------------------------------------------------------------------
# Pathological model identities.
# ---------------------------------------------------------------------------

def test_pathological_unit_and_unit_norm(patho):
    assert patho.identity.coords == (1.0,)
    assert gnorm(patho, patho.identity) == 1.0
    assert patho.nvs.zero == 1.0


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=-1.0, exclude_max=True),
    ),
    r=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_pathological_scaled_norm_is_a_power(a, r):
    m = make_model(ModelConfig("pathological"))
    got = gnorm(m, otimes(m, r, make_point(m, [a])))
    assert got == pytest.approx(abs(a) ** abs(r), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.floats(min_value=1.0, max_value=50.0),
                st.floats(min_value=-50.0, max_value=-1.0, exclude_max=True)),
    b=st.one_of(st.floats(min_value=1.0, max_value=50.0),
                st.floats(min_value=-50.0, max_value=-1.0, exclude_max=True)),
)
def test_pathological_sum_is_sandwiched(a, b):
    # |phi(a (+) b)| <= |phi(a)| (+)' |phi(b)| comes from the two-sided bound
    # -|ab| <= a (+) b <= |ab|.
    m = make_model(ModelConfig("pathological"))
    total = oplus(m.group, make_point(m, [a]), make_point(m, [b])).coords[0]
    cap = abs(a * b)
    assert -cap * (1 + 1e-12) <= total <= cap * (1 + 1e-12)
    if cap > 1.0:
        assert path_Phi(-math.log(abs(a)) - math.log(abs(b))) == pytest.approx(-cap, rel=1e-12)


# ---------------------------------------------------------------------------
# Ball models.
# ---------------------------------------------------------------------------

def test_scaling_is_monotone_along_a_ray(einstein2, mobius2):
    direction = [0.6, 0.8]
    for m in (einstein2, mobius2):
        a = make_point(m, [0.5 * x for x in direction])
        norms = [gnorm(m, otimes(m, r, a)) for r in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)]
        assert norms == sorted(norms)
        assert norms[0] == 0.0


def test_ball_radius_scales_the_carrier():
    m = make_model(ModelConfig("einstein", dim=2, s=2.0))
    p = make_point(m, [1.5, 0.0])
    assert gnorm(m, p) == 1.5
    with pytest.raises(DomainError):
        make_point(m, [2.0, 0.0])


def test_models_pass_a_quick_axiom_smoke():
    from ggv import run_group

    cases = (
        ModelConfig("normed", dim=3),
        ModelConfig("einstein", dim=8),
        ModelConfig("mobius", dim=8),
        ModelConfig("einstein", dim=3, s=2.0),
        ModelConfig("mobius", dim=2, s=0.5),
        ModelConfig("pathological"),
    )
    for cfg in cases:
        m = make_model(cfg)
        for report in run_group(m, "axioms", seed=42, samples=60):
            assert report.passed, (m.tag, report.property, report.max_residual)

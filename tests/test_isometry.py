"""Gyrometric-preserving maps: primitives, random compositions, experiments."""

import dataclasses
import math
import random

import pytest

import ggv.isometry
from ggv import (
    DomainError,
    GyroMap,
    GyroPoint,
    MapConstructionError,
    ModelConfig,
    PreconditionError,
    ambient_rotation,
    compose_maps,
    decompose_mazur_ulam,
    defect_experiment,
    gyromidpoint,
    identity_map,
    left_translation,
    make_model,
    make_point,
    map_preservation_residual,
    metric_distance,
    ominus,
    point_reflection,
    random_isometry,
    random_isometry_between,
    random_rotation_matrix,
    transport,
    verify_midpoint_preservation,
)
from ggv.isometry import CONSTRUCTION_PAIRS
from ggv.sampling import sample_point
from ggv.space import gyrometric, nv_smul

TOL = 1e-9


# ---------------------------------------------------------------------------
# Point reflections.
# ---------------------------------------------------------------------------

def test_reflection_in_a_normed_line(normed1):
    refl = point_reflection(normed1, make_point(normed1, [1.0]))
    assert refl.apply(make_point(normed1, [3.0])).coords[0] == pytest.approx(-1.0, abs=1e-12)


def test_reflection_at_identity_is_negation(any_model):
    m = any_model
    refl = point_reflection(m, m.identity)
    rng = random.Random(31)
    for _ in range(30):
        x = sample_point(m, rng)
        assert metric_distance(m, refl.apply(x), ominus(m.group, x)) <= TOL


def test_reflection_properties(any_model):
    m = any_model
    rng = random.Random(37)
    for _ in range(25):
        center = sample_point(m, rng, 0.7)
        refl = point_reflection(m, center)
        x, y = sample_point(m, rng, 0.8), sample_point(m, rng, 0.8)
        # involution
        assert metric_distance(m, refl.apply(refl.apply(x)), x) <= TOL
        # fixes its center
        assert metric_distance(m, refl.apply(center), center) <= TOL
        # preserves the gyrometric
        assert abs(
            m.nvs.lin(gyrometric(m, refl.apply(x), refl.apply(y))) - m.nvs.lin(gyrometric(m, x, y))
        ) <= TOL
        # doubles distances from the center
        doubled = nv_smul(m.nvs, 2.0, gyrometric(m, center, x))
        assert abs(m.nvs.lin(gyrometric(m, refl.apply(x), x)) - m.nvs.lin(doubled)) <= TOL


def test_reflection_at_a_midpoint_swaps_the_pair(any_model):
    m = any_model
    rng = random.Random(41)
    for _ in range(25):
        x, y = sample_point(m, rng, 0.8), sample_point(m, rng, 0.8)
        refl = point_reflection(m, gyromidpoint(m, x, y))
        assert metric_distance(m, refl.apply(x), y) <= TOL
        assert metric_distance(m, refl.apply(y), x) <= TOL


def test_reflection_moves_non_fixed_points(any_model):
    m = any_model
    rng = random.Random(43)
    center = sample_point(m, rng, 0.5)
    refl = point_reflection(m, center)
    for _ in range(25):
        x = sample_point(m, rng, 0.8)
        gap = metric_distance(m, x, center)
        if gap >= 1e-3:
            assert metric_distance(m, refl.apply(x), x) > 1e-6


# ---------------------------------------------------------------------------
# Left translations and rotations.
# ---------------------------------------------------------------------------

def test_translation_examples(patho, normed2):
    shift = left_translation(patho, make_point(patho, [2.0]))
    assert shift.apply(make_point(patho, [3.0])).coords[0] == pytest.approx(6.0, abs=1e-12)
    move = left_translation(normed2, make_point(normed2, [1.0, 0.0]))
    assert move.apply(make_point(normed2, [0.0, 0.0])).coords == (1.0, 0.0)


def test_translation_by_identity_is_identity(any_model):
    m = any_model
    shift = left_translation(m, m.identity)
    rng = random.Random(47)
    for _ in range(20):
        x = sample_point(m, rng)
        assert metric_distance(m, shift.apply(x), x) <= TOL


def test_translation_round_trip_and_preservation(any_model):
    m = any_model
    rng = random.Random(53)
    shift = left_translation(m, sample_point(m, rng, 0.7))
    for _ in range(25):
        x = sample_point(m, rng, 0.8)
        assert metric_distance(m, shift.inverse_apply(shift.apply(x)), x) <= TOL
    assert map_preservation_residual(shift, 100, seed=1) <= TOL


def test_rotation_matrices_are_special_orthogonal():
    rng = random.Random(59)
    for dim in (2, 3, 5, 8):
        rot = random_rotation_matrix(dim, rng)
        for i in range(dim):
            for j in range(dim):
                gram = sum(rot[k][i] * rot[k][j] for k in range(dim))
                assert gram == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_rotation_preserves_the_gyrometric(einstein2, mobius2):
    rng = random.Random(61)
    for m in (einstein2, mobius2):
        rot = ambient_rotation(m, random_rotation_matrix(2, rng))
        assert map_preservation_residual(rot, 150, seed=3) <= TOL
        x = sample_point(m, rng)
        assert metric_distance(m, rot.inverse_apply(rot.apply(x)), x) <= TOL


def test_rotation_is_a_ball_primitive_only(normed2, patho):
    eye = ((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(PreconditionError):
        ambient_rotation(normed2, eye)
    with pytest.raises(PreconditionError):
        ambient_rotation(patho, ((1.0,),))


def test_rotation_rejects_non_orthogonal_matrices(einstein2):
    with pytest.raises(PreconditionError):
        ambient_rotation(einstein2, ((1.0, 0.5), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# Random compositions.
# ---------------------------------------------------------------------------

def test_random_isometry_is_seed_deterministic(einstein2):
    first = random_isometry(einstein2, seed=42, depth=5)
    second = random_isometry(einstein2, seed=42, depth=5)
    assert first.recipe == second.recipe
    assert random_isometry(einstein2, seed=43, depth=5).recipe != first.recipe


def test_random_isometry_rejects_zero_depth(einstein2):
    with pytest.raises(PreconditionError):
        random_isometry(einstein2, seed=1, depth=0)


def test_random_isometry_with_forced_translations(any_model):
    m = any_model
    T = random_isometry(m, seed=5, depth=1, kinds=("left_translation",))
    assert [step["kind"] for step in T.recipe] == ["left_translation"]


def test_random_isometry_respects_the_model_palette(patho):
    with pytest.raises(PreconditionError):
        random_isometry(patho, seed=5, depth=2, kinds=("ambient_rotation",))


def test_generated_maps_preserve_the_gyrometric(any_model):
    m = any_model
    for seed in (0, 1, 2):
        T = random_isometry(m, seed=seed, depth=4)
        assert map_preservation_residual(T, 200, seed=seed) <= TOL


def test_compose_maps_inverts_in_reverse_order(einstein2):
    rng = random.Random(67)
    chain = compose_maps([
        left_translation(einstein2, sample_point(einstein2, rng, 0.6)),
        point_reflection(einstein2, sample_point(einstein2, rng, 0.6)),
        ambient_rotation(einstein2, random_rotation_matrix(2, rng)),
    ])
    for _ in range(20):
        x = sample_point(einstein2, rng, 0.8)
        assert metric_distance(einstein2, chain.inverse_apply(chain.apply(x)), x) <= TOL


def test_compose_maps_rejects_mismatched_chains(einstein2, mobius2):
    with pytest.raises(PreconditionError):
        compose_maps([identity_map(einstein2), identity_map(mobius2)])
    with pytest.raises(PreconditionError):
        compose_maps([])


def _counting_validate(m):
    """``m`` with a validate that counts its calls, and the count."""
    calls = []
    validate = m.group.validate

    def counted(p):
        calls.append(p)
        validate(p)

    return dataclasses.replace(m, group=dataclasses.replace(m.group, validate=counted)), calls


def test_a_deep_composition_validates_once_per_call(einstein2):
    m, calls = _counting_validate(einstein2)
    rng = random.Random(101)
    chain = compose_maps([
        left_translation(m, sample_point(m, rng, 0.5)),
        point_reflection(m, sample_point(m, rng, 0.5)),
        ambient_rotation(m, random_rotation_matrix(2, rng)),
        identity_map(m),
        point_reflection(m, sample_point(m, rng, 0.5)),
        compose_maps([left_translation(m, sample_point(m, rng, 0.5)), identity_map(m)]),
    ])
    assert len(chain.recipe) == 7
    x = sample_point(m, rng, 0.8)
    calls.clear()
    y = chain.apply(x)
    assert calls == [x]
    calls.clear()
    assert metric_distance(einstein2, chain.inverse_apply(y), x) <= TOL
    assert calls == [y]


def test_a_composition_rejects_points_outside_the_carrier(einstein2, patho):
    rng = random.Random(103)
    chain = random_isometry(einstein2, seed=9, depth=6)
    for bad in (GyroPoint(einstein2.tag, (1.5, 0.0)), GyroPoint(einstein2.tag, (math.nan, 0.0)),
                make_point(patho, [2.0]), sample_point(einstein2, rng).coords):
        with pytest.raises(DomainError):
            chain.apply(bad)
        with pytest.raises(DomainError):
            chain.inverse_apply(bad)


def test_a_recorded_preservation_check_is_reused_only_when_it_settles_the_check(mobius2, monkeypatch):
    T = random_isometry(mobius2, seed=4, depth=5)
    seed, residual = T.preservation
    assert seed == 4
    assert residual == map_preservation_residual(T, CONSTRUCTION_PAIRS, seed=4)
    calls = []
    measure = ggv.isometry.map_preservation_residual

    def counted(T, n_pairs, seed):
        calls.append((n_pairs, seed))
        return measure(T, n_pairs, seed)

    monkeypatch.setattr(ggv.isometry, "map_preservation_residual", counted)
    require = ggv.isometry.require_gyrometric_preserving
    require(T, n_pairs=100, seed=4)
    require(T, n_pairs=CONSTRUCTION_PAIRS, seed=4, tolerance=residual)
    assert calls == []
    require(T, n_pairs=CONSTRUCTION_PAIRS + 1, seed=4)
    require(T, n_pairs=100, seed=5)
    assert residual > 0.0
    with pytest.raises(PreconditionError):
        require(T, n_pairs=CONSTRUCTION_PAIRS, seed=4, tolerance=residual / 2)
    assert calls == [(CONSTRUCTION_PAIRS + 1, 4), (100, 5), (CONSTRUCTION_PAIRS, 4)]
    # A rebuilt map carries no record, whichever field was replaced.
    for rebuilt in (dataclasses.replace(T, apply=lambda x: T.apply(x)),
                    dataclasses.replace(T, codomain_model=make_model(ModelConfig("mobius", 2)))):
        assert rebuilt.preservation is None
        calls.clear()
        require(rebuilt, n_pairs=100, seed=4)
        assert calls == [(100, 4)]
    with pytest.raises(ValueError):
        dataclasses.replace(T, preservation=(4, 0.0))


def test_nan_images_fail_the_preservation_check(normed2):
    nan_group = dataclasses.replace(
        normed2.group, add=lambda a, b: GyroPoint(normed2.tag, (math.nan, math.nan))
    )
    broken = dataclasses.replace(normed2, group=nan_group)
    shift = left_translation(broken, make_point(broken, [1.0, 0.0]))
    assert math.isnan(shift.apply(make_point(broken, [0.0, 1.0])).coords[0])
    assert map_preservation_residual(shift, 20, seed=0) == math.inf
    with pytest.raises(PreconditionError):
        verify_midpoint_preservation(shift, 20, seed=0)
    with pytest.raises(MapConstructionError):
        random_isometry(broken, seed=0, depth=2, kinds=("left_translation",))
    # Images of a user-built map are validated, so NaN ones are rejected.
    nan_map = GyroMap(normed2, normed2, lambda x: GyroPoint(normed2.tag, (math.nan, 0.0)),
                      lambda y: y, ({"kind": "nan"},))
    with pytest.raises(DomainError):
        map_preservation_residual(nan_map, 20, seed=0)


# ---------------------------------------------------------------------------
# Midpoint preservation.
# ---------------------------------------------------------------------------

def test_identity_preserves_midpoints_exactly(any_model):
    report = verify_midpoint_preservation(identity_map(any_model), 50, seed=7)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_translations_preserve_midpoints(normed2):
    rng = random.Random(71)
    shift = left_translation(normed2, sample_point(normed2, rng))
    report = verify_midpoint_preservation(shift, 100, seed=9)
    assert report.max_residual <= 1e-12


def test_random_isometries_preserve_midpoints(any_model):
    T = random_isometry(any_model, seed=42, depth=5)
    report = verify_midpoint_preservation(T, 100, seed=42)
    assert report.passed, report.max_residual


def test_midpoint_preservation_rejects_non_isometries(normed2):
    squash = GyroMap(
        domain_model=normed2,
        codomain_model=normed2,
        apply=lambda x: GyroPoint(normed2.tag, tuple(0.5 * c for c in x.coords)),
        inverse_apply=lambda y: GyroPoint(normed2.tag, tuple(2.0 * c for c in y.coords)),
        recipe=({"kind": "squash"},),
    )
    with pytest.raises(PreconditionError):
        verify_midpoint_preservation(squash, 20, seed=3)


# ---------------------------------------------------------------------------
# Decomposition.
# ---------------------------------------------------------------------------

def test_translation_decomposes_to_the_identity(any_model):
    m = any_model
    rng = random.Random(73)
    c = sample_point(m, rng, 0.7)
    report = decompose_mazur_ulam(left_translation(m, c), 40, seed=11)
    assert report.passed
    assert metric_distance(m, report.translation_part, c) <= 1e-12
    assert report.additivity_residual <= 1e-12


def test_reflection_at_identity_decomposes_to_negation(any_model):
    m = any_model
    report = decompose_mazur_ulam(point_reflection(m, m.identity), 40, seed=13)
    assert report.passed
    assert metric_distance(m, report.translation_part, m.identity) <= TOL


def test_random_map_decomposition(any_model):
    T = random_isometry(any_model, seed=7, depth=4)
    report = decompose_mazur_ulam(T, 40, seed=7)
    assert report.passed, report.to_dict()
    assert report.dyadic_residual <= report.homogeneity_residual + 1e-15


# ---------------------------------------------------------------------------
# Defect experiment.
# ---------------------------------------------------------------------------

def test_identity_has_zero_defect(any_model):
    m = any_model
    rng = random.Random(79)
    x1, x2 = sample_point(m, rng, 0.7), sample_point(m, rng, 0.7)
    trace = defect_experiment(identity_map(m), x1, x2, n_max=4)
    assert trace.passed
    assert trace.defect <= 1e-12
    assert all(it <= 1e-9 for it in trace.iterates)


def test_random_map_defect(any_model):
    m = any_model
    T = random_isometry(m, seed=3, depth=3)
    rng = random.Random(83)
    x1, x2 = sample_point(m, rng, 0.7), sample_point(m, rng, 0.7)
    trace = defect_experiment(T, x1, x2, n_max=6)
    assert trace.passed, trace.to_dict()
    assert trace.defect <= TOL
    assert trace.fixed_point_residual <= TOL
    assert len(trace.iterates) == 7
    assert all(it <= trace.bound + TOL for it in trace.iterates)


def test_defect_bound_is_the_doubled_half_distance(normed2):
    # In a normed plane the bound is the full distance between the arguments.
    x1, x2 = make_point(normed2, [1.0, 0.0]), make_point(normed2, [0.0, 1.0])
    trace = defect_experiment(identity_map(normed2), x1, x2, n_max=2)
    assert trace.bound == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_defect_iterate_count_is_guarded(einstein2):
    rng = random.Random(89)
    x1, x2 = sample_point(einstein2, rng), sample_point(einstein2, rng)
    with pytest.raises(PreconditionError):
        defect_experiment(identity_map(einstein2), x1, x2, n_max=21)
    with pytest.raises(PreconditionError):
        defect_experiment(identity_map(einstein2), x1, x2, n_max=-1)


# ---------------------------------------------------------------------------
# Maps between distinct instances.
# ---------------------------------------------------------------------------

def test_transport_requires_identical_parameters():
    a = make_model(ModelConfig("einstein", dim=2, s=1.0))
    b = make_model(ModelConfig("einstein", dim=2, s=2.0))
    with pytest.raises(PreconditionError):
        transport(a, b)


def test_cross_instance_maps_satisfy_the_experiments():
    domain = make_model(ModelConfig("mobius", dim=2, s=1.0))
    codomain = make_model(ModelConfig("mobius", dim=2, s=1.0))
    assert domain is not codomain
    T = random_isometry_between(domain, codomain, seed=17, depth=4)
    assert T.domain_model is domain
    assert T.codomain_model is codomain
    midpoint = verify_midpoint_preservation(T, 60, seed=17)
    assert midpoint.passed, midpoint.max_residual
    decomposition = decompose_mazur_ulam(T, 30, seed=17)
    assert decomposition.passed, decomposition.to_dict()
    rng = random.Random(97)
    x1, x2 = sample_point(domain, rng, 0.7), sample_point(domain, rng, 0.7)
    trace = defect_experiment(T, x1, x2, n_max=5)
    assert trace.passed, trace.to_dict()


def test_construction_error_reports_diagnostics(einstein2):
    # An absurdly tight tolerance forces the construction check to fail.
    with pytest.raises(MapConstructionError):
        random_isometry(einstein2, seed=23, depth=6, tolerance=1e-18)

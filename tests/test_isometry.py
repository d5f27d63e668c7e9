"""Gyrometric-preserving maps: primitives, random compositions, experiments."""

import dataclasses
import json
import math
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import load_tool

import ggv.isometry
from ggv import (
    BoundaryClampWarning,
    DefectTrace,
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
from ggv.cli import main
from ggv.isometry import CONSTRUCTION_PAIRS, _doubling_map, _exact_forms, _form, _sample_pairs
from ggv.models import _POINT, _in_form, _mp
from ggv.sampling import sample_point
from ggv.space import DEFAULT_TOLERANCE, gyrometric, nv_smul, worst_residual
from ggv.verify import GROUPS, run_check

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
    # Non-finite entries too: every comparison with NaN is false.
    for bad in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError):
            ambient_rotation(einstein2, ((1.0, bad), (0.0, 1.0)))
        with pytest.raises(PreconditionError):
            ambient_rotation(einstein2, ((bad, 0.0), (0.0, 1.0)))


def test_rotation_accepts_any_orthogonal_matrix(einstein2):
    # Both ball additions are equivariant under reflections as well.
    flip = ambient_rotation(einstein2, ((1.0, 0.0), (0.0, -1.0)))
    assert map_preservation_residual(flip, 100, seed=1) <= TOL
    assert flip.apply(make_point(einstein2, [0.3, 0.2])).coords == (0.3, -0.2)


# ---------------------------------------------------------------------------
# Random compositions.
# ---------------------------------------------------------------------------

def test_random_isometry_is_seed_deterministic(einstein2):
    first = random_isometry(einstein2, seed=42, depth=5)
    second = random_isometry(einstein2, seed=42, depth=5)
    assert first.recipe == second.recipe
    assert random_isometry(einstein2, seed=43, depth=5).recipe != first.recipe


def test_random_isometry_rejects_zero_depth(einstein2):
    # A depth is a count, so a bool or a float is refused as well.
    for depth in (0, -1, 2.5, True, "2"):
        with pytest.raises(PreconditionError, match="depth"):
            random_isometry(einstein2, seed=1, depth=depth)
    domain, codomain = make_model(ModelConfig("mobius", dim=2)), make_model(ModelConfig("mobius", dim=2))
    for depth in (1, 2.5, True):
        with pytest.raises(PreconditionError, match="depth"):
            random_isometry_between(domain, codomain, seed=1, depth=depth)


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


def test_a_composition_is_the_flat_chain_of_its_steps(mobius2):
    first = random_isometry(mobius2, seed=3, depth=4)
    second = compose_maps([random_isometry(mobius2, seed=5, depth=2), identity_map(mobius2)])
    user_map = GyroMap(mobius2, mobius2, first.apply, first.inverse_apply, ({"kind": "user"},))
    assert (len(first.steps), len(second.steps), user_map.steps) == (4, 3, ())
    chain = compose_maps([first, second, user_map])
    assert len(chain.steps) == 4 + 3 + 1
    assert chain.steps[:7] == first.steps + second.steps
    assert chain.recipe == first.recipe + second.recipe + user_map.recipe
    assert chain.recipe == tuple(entry for step in chain.steps for entry in step.recipe)


def test_a_replaced_direction_is_the_one_the_experiments_run(einstein2):
    T = random_isometry(einstein2, seed=8, depth=3)
    calls = []

    def counting(fn):
        def counted(x):
            calls.append(x)
            return fn(x)

        return counted

    residual = map_preservation_residual(T, 40, seed=2)
    assert map_preservation_residual(dataclasses.replace(T, apply=counting(T.apply)), 40, seed=2) == residual
    assert len(calls) == 2 * 40
    rng = random.Random(23)
    x1, x2 = sample_point(einstein2, rng, 0.7), sample_point(einstein2, rng, 0.7)
    expected = defect_experiment(T, x1, x2, n_max=3).to_dict()
    calls.clear()
    rebuilt = dataclasses.replace(T, inverse_apply=counting(T.inverse_apply))
    assert defect_experiment(rebuilt, x1, x2, n_max=3).to_dict() == expected
    # One inverse image per application of S: 2^3 iterates, then x1 and x2.
    assert len(calls) == 2 ** 3 + 2


def test_a_kernel_swapped_in_with_replace_is_the_one_evaluated(einstein2):
    # A model rebuilt with replace holds no ops, so its block form runs the
    # kernel it holds, once per row.
    calls = []

    def counted(a, b):
        calls.append(a)
        return einstein2.distance(a, b)

    m = dataclasses.replace(einstein2, distance=counted)
    assert einstein2.ops is not None and m.ops is None
    ggv1 = dict(GROUPS["axioms"])["GGV1"]
    assert run_check(m, "GGV1", ggv1, seed=4, samples=30) == run_check(einstein2, "GGV1", ggv1, seed=4, samples=30)
    assert len(calls) == 30
    calls.clear()
    center = [0.3, -0.2]
    expected = map_preservation_residual(left_translation(einstein2, make_point(einstein2, center)), 25, seed=1)
    assert map_preservation_residual(left_translation(m, make_point(m, center)), 25, seed=1) == expected
    # Source and image distances: one call per pair each.
    assert len(calls) == 2 * 25


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


def test_the_pairs_of_a_shorter_preservation_check_are_a_prefix_of_the_recorded_ones(any_model):
    # The record of a map's construction settles every check with the same
    # seed and at most CONSTRUCTION_PAIRS pairs only because those pairs are
    # the first rows of the recorded ones.
    def pair_bytes(blocks, rows):
        return [column[:rows].tobytes() for block in blocks for column in block]

    counts = (1, 2, 7, 31, 32, 33, 100, 199, CONSTRUCTION_PAIRS)
    for seed in (0, 3):
        recorded = _sample_pairs(any_model, random.Random(f"{seed}:preservation"), 0.9, CONSTRUCTION_PAIRS)
        for k in counts:
            shorter = _sample_pairs(any_model, random.Random(f"{seed}:preservation"), 0.9, k)
            assert pair_bytes(shorter, k) == pair_bytes(recorded, k)
        T = random_isometry(any_model, seed=seed, depth=4)
        assert T.preservation[0] == seed
        for k in counts:
            assert map_preservation_residual(T, k, seed) <= T.preservation[1]


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
        random_isometry(broken, seed=0, depth=2)
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
    for n_max in (True, False, 2.0):
        with pytest.raises(PreconditionError):
            defect_experiment(identity_map(einstein2), x1, x2, n_max=n_max)


def _defect_request(kind, dim, seed):
    """The map and points of ``ggv defect --model kind --dim dim --seed seed --depth 2``."""
    m = make_model(ModelConfig(kind, dim=dim))
    rng = random.Random(f"{seed}:defect-points")
    return random_isometry(m, seed, depth=2), sample_point(m, rng, 0.7), sample_point(m, rng, 0.7)


def _naive_defect_trace(T, x1, x2, n_max):
    """The defect trace of ``T`` with ``S`` applied all ``2^n_max`` times, on points."""
    m = T.domain_model
    p = gyromidpoint(m, x1, x2)
    p_image = gyromidpoint(m, T.apply(x1), T.apply(x2))
    refl_p, refl_p_image = point_reflection(m, p), point_reflection(m, p_image)

    def S(x):
        return refl_p.apply(T.inverse_apply(refl_p_image.apply(T.apply(x))))

    iterates, current, applied = [], p, 0
    for n in range(n_max + 1):
        while applied < 2 ** n:
            current, applied = S(current), applied + 1
        iterates.append(metric_distance(m, current, p))
    defect = metric_distance(m, T.apply(p), p_image)
    bound = 2.0 * metric_distance(m, x1, p)
    residual = worst_residual(metric_distance(m, S(x1), x1), metric_distance(m, S(x2), x2))
    passed = (defect <= DEFAULT_TOLERANCE and residual <= DEFAULT_TOLERANCE
              and all(it <= bound + DEFAULT_TOLERANCE for it in iterates))
    return DefectTrace(defect, tuple(iterates), bound, residual, passed, DEFAULT_TOLERANCE)


# Where each orbit closes depends on the last ulp of the transcendental
# functions; the comments give it for NumPy 2.4.6 with AVX-512 loops.
@pytest.mark.parametrize("kind, dim, seed", [
    ("pathological", 1, 0),  # p is a fixed point of S
    ("mobius", 2, 1034930103),  # S^3782(p) is a fixed point of S
    ("einstein", 2, 996517196),  # S^13(p) is a fixed point of S
    ("einstein", 2, 49),  # S^4(p) starts a 2-cycle, which runs to the end
    ("mobius", 3, 1),  # no iterate up to 2^13 is fixed
])
def test_the_defect_chain_stops_at_a_fixed_point_with_the_naive_trace(kind, dim, seed):
    T, x1, x2 = _defect_request(kind, dim, seed)
    expected = _naive_defect_trace(T, x1, x2, 13).to_dict()
    assert defect_experiment(T, x1, x2, 13).to_dict() == expected


def test_a_fixed_orbit_applies_s_only_until_it_is_fixed():
    # p is a fixed point of S: one application finds it, then S runs on x1
    # and x2 for the fixed-point residual; 2^12 iterates are recorded.
    T, x1, x2 = _defect_request("pathological", 1, 0)
    calls = []

    def counted(x):
        calls.append(x)
        return T.inverse_apply(x)

    trace = defect_experiment(dataclasses.replace(T, inverse_apply=counted), x1, x2, n_max=12)
    assert trace.to_dict() == defect_experiment(T, x1, x2, n_max=12).to_dict()
    assert len(trace.iterates) == 13
    assert len(calls) == 1 + 2


def test_the_defect_validates_its_points_and_both_midpoints_once_each(normed2):
    # The midpoint of (1e308, 0) and (-1e308, 0) overflows to (-inf, 0): the
    # centre of refl_p is off the carrier, and the chain does not start.
    validated = []

    def validate(p):
        validated.append(p.coords)
        normed2.group.validate(p)

    m = dataclasses.replace(normed2, group=dataclasses.replace(normed2.group, validate=validate))
    x1, x2 = make_point(normed2, [1e308, 0.0]), make_point(normed2, [-1e308, 0.0])
    with pytest.raises(DomainError, match=re.escape("normed(dim=2): non-finite coordinates (-inf, 0.0)")):
        defect_experiment(identity_map(m), x1, x2, n_max=2)
    assert validated == [x1.coords, x2.coords, (-math.inf, 0.0)]
    validated.clear()
    y1, y2 = make_point(normed2, [1.0, 0.0]), make_point(normed2, [0.0, 3.0])
    defect_experiment(identity_map(m), y1, y2, n_max=2)
    assert validated == [y1.coords, y2.coords, (0.5, 1.5), (0.5, 1.5)]


def test_the_doubling_map_at_50_digits_agrees_with_double(any_model):
    # Every kind has exact forms.  The midpoints p and p' and S at x1, x2 and
    # p, from the same double inputs, agree to the last few ulps.
    m, lib = any_model, _mp()
    for seed in (3, 5):
        T = random_isometry(m, seed=seed, depth=4)
        rng = random.Random(seed)
        a1, a2 = sample_point(m, rng, 0.7).coords, sample_point(m, rng, 0.7).coords
        double = _doubling_map(_in_form(m, _POINT), _in_form(m, _POINT), *_form(T, _POINT), a1, a2)
        exact = _doubling_map(_in_form(m, lib), _in_form(m, lib), *_form(T, lib), lib.const(a1), lib.const(a2))
        pairs = [(double[0], exact[0]), (double[1], exact[1])]
        pairs += [(double[2](x), exact[2](lib.const(x))) for x in (a1, a2, double[0])]
        for near, far in pairs:
            assert m.distance(GyroPoint(m.tag, near), GyroPoint(m.tag, tuple(map(float, far)))) <= 1e-12


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


def test_a_cross_instance_map_is_verified_once(monkeypatch):
    calls = []
    measure = ggv.isometry.map_preservation_residual

    def counted(T, n_pairs, seed):
        calls.append((n_pairs, seed))
        return measure(T, n_pairs, seed)

    monkeypatch.setattr(ggv.isometry, "map_preservation_residual", counted)
    domain = make_model(ModelConfig("einstein", dim=2, s=1.0))
    codomain = make_model(ModelConfig("einstein", dim=2, s=1.0))
    T = random_isometry_between(domain, codomain, seed=17, depth=5)
    assert calls == [(CONSTRUCTION_PAIRS, 17)]
    assert T.preservation[0] == 17
    assert len(T.recipe) == 6  # two in the domain, the transport, three in the codomain


def test_report_dicts_keep_their_keys(einstein2):
    T = random_isometry(einstein2, seed=5, depth=2)
    rng = random.Random(5)
    x1, x2 = sample_point(einstein2, rng, 0.7), sample_point(einstein2, rng, 0.7)
    check = run_check(einstein2, "GGV1", dict(GROUPS["axioms"])["GGV1"], seed=5, samples=3)
    midpoint = verify_midpoint_preservation(T, 3, seed=5)
    decomposition = decompose_mazur_ulam(T, 3, seed=5)
    trace = defect_experiment(T, x1, x2, n_max=2)
    assert set(check.to_dict()) == {
        "property", "model", "seed", "samples", "max_residual", "tolerance", "pass"}
    assert midpoint.to_dict()["property"] == "midpoint_preservation"
    assert set(midpoint.to_dict()) == {"property", "samples", "max_residual", "pass", "seed", "tolerance"}
    assert decomposition.to_dict()["property"] == "translation_isomorphism_decomposition"
    assert set(decomposition.to_dict()) == {
        "property", "translation_part", "additivity_residual", "homogeneity_residual",
        "isometry_residual", "dyadic_residual", "coaddition_residual", "pass", "samples",
        "seed", "tolerance"}
    assert decomposition.to_dict()["translation_part"] == list(decomposition.translation_part.coords)
    assert trace.to_dict()["property"] == "midpoint_defect"
    assert set(trace.to_dict()) == {
        "property", "defect", "iterates", "bound", "fixed_point_residual", "pass", "tolerance"}
    assert trace.to_dict()["iterates"] == list(trace.iterates)


def test_construction_error_reports_diagnostics(einstein2):
    # An absurdly tight tolerance forces the construction check to fail.
    with pytest.raises(MapConstructionError):
        random_isometry(einstein2, seed=23, depth=6, tolerance=1e-18)


# ---------------------------------------------------------------------------
# Block evaluation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [
    ModelConfig("normed", dim=3), ModelConfig("einstein", dim=3), ModelConfig("mobius", dim=2, s=2.5),
    ModelConfig("pathological"),
], ids=lambda cfg: cfg.tag)
def test_block_experiments_match_the_row_wise_lift(cfg):
    m = make_model(cfg)
    lifted = dataclasses.replace(m)
    for seed in (0, 5):
        T = random_isometry(m, seed=seed, depth=6)
        T_lifted = random_isometry(lifted, seed=seed, depth=6)
        assert len(T.steps) == len(T_lifted.steps) == 6 and m.ops is not None and lifted.ops is None
        assert T.recipe == T_lifted.recipe
        assert T.preservation == T_lifted.preservation
        assert (map_preservation_residual(T, 150, seed + 1)
                == map_preservation_residual(T_lifted, 150, seed + 1))
        for experiment in (verify_midpoint_preservation, decompose_mazur_ulam):
            assert experiment(T, 60, seed).to_dict() == experiment(T_lifted, 60, seed).to_dict()


def test_the_defect_chain_matches_its_lift(any_model):
    m = any_model
    lifted = dataclasses.replace(m)
    rng = random.Random(17)
    x1, x2 = sample_point(m, rng, 0.7), sample_point(m, rng, 0.7)
    expected = defect_experiment(random_isometry(m, seed=6, depth=3), x1, x2, n_max=6).to_dict()
    T_lifted = random_isometry(lifted, seed=6, depth=3)
    stripped = dataclasses.replace(T_lifted)
    assert stripped.steps == () and len(T_lifted.steps) == 3
    for T in (T_lifted, stripped, compose_maps([identity_map(lifted), stripped, identity_map(lifted)])):
        assert defect_experiment(T, x1, x2, n_max=6).to_dict() == expected


def test_the_images_of_a_user_map_are_validated_on_coordinates(einstein2):
    # The identity on the ball of radius 0.95, off the carrier beyond it.
    def escape(x):
        return x if math.hypot(*x.coords) < 0.95 else GyroPoint(x.model_tag, (2.0, 0.0))

    user_map = GyroMap(einstein2, einstein2, escape, escape, ({"kind": "escape"},))
    rng = random.Random(19)
    shift = left_translation(einstein2, sample_point(einstein2, rng, 0.2))
    chain = compose_maps([identity_map(einstein2), user_map, identity_map(einstein2)])
    inside, outside = make_point(einstein2, [0.5, 0.0]), make_point(einstein2, [0.0, 0.97])
    assert chain.apply(inside) == inside
    for T in (chain, compose_maps([shift, user_map])):
        with pytest.raises(DomainError):
            T.apply(outside)
        with pytest.raises(DomainError):
            T.inverse_apply(outside)
    # Sampled pairs stay within 0.9 of the center, so the map passes its
    # preservation check and fails on the images of the defect's points.
    for T in (user_map, chain):
        assert map_preservation_residual(T, 100, seed=0) == 0.0
        with pytest.raises(DomainError):
            defect_experiment(T, outside, make_point(einstein2, [0.0, -0.97]), n_max=2)


def test_block_experiments_clamp_like_the_row_wise_lift(mobius2):
    # Translating by a point at the ball's edge pushes images onto the
    # boundary shell, where every kernel clamps.
    edge = make_point(mobius2, [1.0 - 1e-13, 0.0])
    results = []
    for m in (mobius2, dataclasses.replace(mobius2)):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", BoundaryClampWarning)
            residual = map_preservation_residual(left_translation(m, edge), 50, seed=2)
        assert all(w.category is BoundaryClampWarning for w in record)
        results.append((residual, [str(w.message) for w in record]))
    assert len(results[0][1]) > 0
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Rows over tolerance, evaluated again at 50 digits.
# ---------------------------------------------------------------------------

# The near-boundary requests of the compare corpus: rounding in double alone
# put each over the tolerance.
@pytest.mark.parametrize("kind,dim,seed", load_tool("compare_reports").NEAR_BOUNDARY_MAPS)
def test_correct_maps_near_the_boundary_pass(kind, dim, seed, capsys):
    argv = ["verify-mazur-ulam", "--model", kind, "--dim", str(dim), "--seed", str(seed), "--maps", "2",
            "--samples", "100", "--max-depth", "6"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(r["decomposition"]["pass"] and r["midpoint"]["pass"] for r in report["results"])


def _with_ops(m, name, wrong):
    """``m`` whose kernel ``name`` is ``wrong(k, lib)`` in the form of every
    lib, ``k`` being the model's own kernels; its point kernels stay right."""
    broken = dataclasses.replace(m)

    def ops(lib):
        k = m.ops(lib)
        return SimpleNamespace(**{**vars(k), name: wrong(k, lib)})

    object.__setattr__(broken, "ops", ops)
    return broken


def _off_axis(k, lib):
    # A scalar action pushed along the first axis: rotations no longer commute with it.
    def otimes(r, a):
        out = k.otimes(r, a)
        return (out[0] + 1e-6 * r, *out[1:])

    return otimes


def _scaled_add(k, lib):
    # Addition scaled by 3/2 and clamped: in double its rows stay in the ball,
    # at 50 digits, where nothing is clamped, many leave it.
    def add(a, b):
        return lib.clamp(tuple(1.5 * x for x in k.add(a, b)), lib.const(1.0))

    return add


def _nan_on_the_right(k, lib):
    # NaN on the rows whose image lies right of the second axis.
    def otimes(r, a):
        out = k.otimes(r, a)
        return (lib.where(out[0] > 0.0, math.nan, out[0]), *out[1:])

    return otimes


def test_a_broken_model_still_fails_at_50_digits(mobius2):
    T = random_isometry(_with_ops(mobius2, "otimes", _off_axis), 4, depth=4)
    assert _exact_forms(T) is not None
    midpoint = verify_midpoint_preservation(T, 50, 0)
    decomposition = decompose_mazur_ulam(T, 50, 0)
    assert not midpoint.passed and midpoint.max_residual > 1e-7
    assert not decomposition.passed and decomposition.homogeneity_residual > 1e-7


@pytest.mark.parametrize("kind", ["einstein", "mobius"])
def test_a_row_that_leaves_the_ball_at_50_digits_fails(kind):
    # A rotation does not add, so the scaled addition passes its construction;
    # the decomposition adds, and at 50 digits the square root or logarithm
    # of a point beyond the boundary is not real.
    m = _with_ops(make_model(ModelConfig(kind, dim=2)), "add", _scaled_add)
    T = ambient_rotation(m, random_rotation_matrix(2, random.Random(1)))
    assert _exact_forms(T) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryClampWarning)
        decomposition = decompose_mazur_ulam(T, 50, 0)
    assert not decomposition.passed and decomposition.additivity_residual == math.inf


def test_a_drifting_fixed_point_residual_is_settled_at_50_digits(capsys):
    # In double the iterates drift by 1.1e-9 per step of S and the residual
    # is 1.5e-9, although the defect is 5e-13.
    assert main(load_tool("compare_reports").DRIFTING_DEFECT) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["pass"] and result["fixed_point_residual"] < 1e-40


@pytest.mark.parametrize("kind", ["einstein", "mobius"])
@pytest.mark.parametrize("margin,finite", [(0.3, True), (0.7, False)])
def test_a_wrong_map_fails_the_fixed_point_check_at_50_digits(kind, margin, finite):
    # Near the origin the scaled addition stays in the ball at 50 digits and
    # S is far from fixing the points; farther out it leaves the ball.
    m = _with_ops(make_model(ModelConfig(kind, dim=2)), "add", _scaled_add)
    T = ambient_rotation(m, random_rotation_matrix(2, random.Random(1)))
    rng = random.Random(1)
    x1, x2 = sample_point(m, rng, margin), sample_point(m, rng, margin)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryClampWarning)
        trace = defect_experiment(T, x1, x2, 4)
    assert not trace.passed
    assert (0.1 < trace.fixed_point_residual < math.inf) if finite else trace.fixed_point_residual == math.inf


_IMPORTS_MPMATH = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from ggv.cli import main
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(code, "mpmath" in sys.modules)
"""


def test_a_request_that_passes_in_double_never_imports_mpmath():
    requests = [["defect", "--model", "mobius", "--dim", "2", "--seed", "7", "--depth", "2", "--n-max", "13"],
                ["verify-mazur-ulam", "--model", "einstein", "--dim", "3", "--seed", "5", "--maps", "2",
                 "--samples", "60"],
                load_tool("compare_reports").DRIFTING_DEFECT]
    src = str(Path(ggv.isometry.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _IMPORTS_MPMATH, src, json.dumps(requests)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["0 False", "0 False", "0 True"]


def test_a_nan_row_still_fails(mobius2):
    T = random_isometry(_with_ops(mobius2, "otimes", _nan_on_the_right), 4, depth=4)
    midpoint = verify_midpoint_preservation(T, 50, 0)
    assert midpoint.max_residual == math.inf and not midpoint.passed


def test_only_maps_of_data_are_evaluated_again(mobius2):
    T = random_isometry(mobius2, 4, depth=3)
    assert _exact_forms(T) is not None
    assert _exact_forms(dataclasses.replace(T)) is None
    assert _exact_forms(compose_maps([T, dataclasses.replace(identity_map(mobius2))])) is None
    lifted = dataclasses.replace(mobius2)
    shift = left_translation(lifted, make_point(lifted, [0.1, 0.2]))
    assert _exact_forms(shift) is None
    assert _exact_forms(compose_maps([identity_map(mobius2), shift, identity_map(mobius2)])) is None


def test_a_rotation_at_50_digits_is_an_isometry_to_the_last_digits():
    m = make_model(ModelConfig("mobius", dim=3))
    T = ambient_rotation(m, random_rotation_matrix(3, random.Random(8)))
    m1, m2, apply, const = _exact_forms(T)
    rng = random.Random(9)
    for _ in range(5):
        a, b = (const(sample_point(m, rng, 0.99).coords) for _ in range(2))
        assert abs(m2.distance(apply(a), apply(b)) - m1.distance(a, b)) < 1e-45

"""The verification suite itself: shape, determinism, and non-vacuity."""

import dataclasses
import math
import random

import numpy as np
import pytest

from ggv import (
    DomainError,
    ModelConfig,
    PreconditionError,
    decompose_mazur_ulam,
    make_model,
    map_preservation_residual,
    nv_add,
    nv_smul,
    random_isometry,
    require_gyrometric_preserving,
    verify_midpoint_preservation,
)
from ggv.space import worst_residual, worst_rows
from ggv.verify import GROUPS, run_all, run_check, run_group

CHECKS = [check for group in GROUPS.values() for check in group]
BLOCK_CONFIGS = (
    ModelConfig("normed", dim=2), ModelConfig("einstein", dim=3, s=2.5), ModelConfig("mobius", dim=2),
    ModelConfig("pathological"),
)


def test_group_names():
    assert set(GROUPS) == {"axioms", "gyrogroup", "scalars", "gyrometric", "metric", "order"}
    axiom_names = [name for name, _ in GROUPS["axioms"]]
    assert axiom_names == [f"GGV{i}" for i in range(9)]


def test_reports_carry_the_inputs(einstein2):
    report = run_group(einstein2, "metric", seed=5, samples=40, tolerance=1e-9)[0]
    assert report.model == einstein2.tag
    assert report.seed == 5
    assert report.samples == 40
    assert report.tolerance == 1e-9
    assert report.to_dict()["pass"] == report.passed


def test_reports_are_deterministic(patho):
    first = run_all(patho, seed=3, samples=80)
    second = run_all(patho, seed=3, samples=80)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_unknown_group_is_rejected(normed2):
    with pytest.raises(KeyError):
        run_group(normed2, "no-such-group", seed=0)


def test_full_suite_passes_at_reduced_scale(any_model):
    for report in run_all(any_model, seed=11, samples=150):
        assert report.passed, (report.property, report.max_residual)


def test_suite_catches_a_broken_linearization(normed2):
    # Guard against a vacuous suite: shifting lin by a constant breaks
    # additivity and must be flagged.
    nvs = normed2.nvs
    bad_nvs = type(nvs)(
        tag=nvs.tag,
        zero=nvs.zero,
        contains=nvs.contains,
        nv_add=nvs.nv_add,
        nv_smul=nvs.nv_smul,
        lin=lambda A: A + 1.0,
        lin_inv=nvs.lin_inv,
    )
    bad_model = dataclasses.replace(normed2, nvs=bad_nvs)
    reports = {r.property: r for r in run_group(bad_model, "order", seed=1, samples=50)}
    assert not reports["linear_additive"].passed


def test_suite_catches_a_broken_gyration(einstein2):
    # Replacing the gyration with the identity must fail the closed-form
    # versus composition cross-check.
    group = einstein2.group
    bad_group = type(group)(
        tag=group.tag,
        identity=group.identity,
        add=group.add,
        inv=group.inv,
        gyr=lambda u, v, a: a,
        validate=group.validate,
    )
    bad_model = dataclasses.replace(einstein2, group=bad_group)
    report = run_check(
        bad_model, "gyr_matches_composition",
        dict(GROUPS["gyrogroup"])["gyr_matches_composition"],
        seed=2, samples=100,
    )
    assert not report.passed


def test_a_nan_residual_reduces_to_inf_and_fails_its_check(mobius2):
    for pair in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (1e-12, math.inf), (-math.inf, 0.0)):
        assert worst_residual(*pair) == math.inf
    assert worst_residual(1e-12, 3e-12) == worst_residual(3e-12, 1e-12) == 3e-12
    # Row by row over columns, the same rule.
    rows = worst_rows(np.array([0.0, 1e-12, 2.0, 0.0]), np.array([-math.inf, 3e-12, math.nan, 1e-13]))
    assert rows.tolist() == [math.inf, 3e-12, math.inf, 1e-13]
    # A draw that reduces its parts through the reducer fails on NaN.
    draws = iter([0.0, worst_residual(math.nan, 0.0)] + [0.0] * 8)
    report = run_check(mobius2, "late-nan", lambda m, r: next(draws), seed=0, samples=10)
    assert report.max_residual == math.inf
    assert not report.passed


def test_a_nan_row_fails_a_built_in_check(mobius2):
    # A distance kernel that is NaN wherever its first argument has x > 0.5:
    # a reduction with max would drop those rows and pass.
    distance = mobius2.distance
    broken = dataclasses.replace(
        mobius2, distance=lambda a, b: math.nan if a.coords[0] > 0.5 else distance(a, b))
    table = dict(CHECKS)
    for name in ("GGV1", "left_cancellation", "metric_self_zero", "metric_symmetric"):
        report = run_check(broken, name, table[name], seed=0, samples=200)
        assert report.max_residual == math.inf and not report.passed, name
    # A plain callable keeps the reduction with max over its draws.
    report = run_check(mobius2, "GGV0", lambda m, r: math.nan, seed=0, samples=5)
    assert report.passed and report.max_residual == 0.0


@pytest.mark.parametrize("samples", [0, -1, -5, 2.5, True])
def test_a_sample_count_below_one_is_refused(normed2, samples):
    with pytest.raises(PreconditionError, match="n_samples must be >= 1"):
        run_check(normed2, "GGV1", dict(GROUPS["axioms"])["GGV1"], seed=0, samples=samples)
    with pytest.raises(PreconditionError, match="n_samples must be >= 1"):
        run_all(normed2, seed=0, samples=samples)
    # The map's record of its construction check must not settle a vacuous count.
    T = random_isometry(normed2, seed=0, depth=2)
    for experiment in (verify_midpoint_preservation, decompose_mazur_ulam):
        with pytest.raises(PreconditionError, match="n_samples must be >= 1"):
            experiment(T, samples, 0)
    with pytest.raises(PreconditionError, match="n_pairs must be >= 1"):
        map_preservation_residual(T, samples, 0)
    with pytest.raises(PreconditionError, match="n_pairs must be >= 1"):
        require_gyrometric_preserving(T, n_pairs=samples, seed=0)


@pytest.mark.parametrize("cfg", BLOCK_CONFIGS, ids=lambda cfg: cfg.tag)
def test_every_check_reports_the_same_on_blocks_and_row_by_row(cfg):
    m = make_model(cfg)
    # A rebuilt model and a rebuilt line have no ``ops``: both are lifted row by row.
    lifted = dataclasses.replace(m, nvs=dataclasses.replace(m.nvs))
    assert lifted.ops is None and lifted.nvs.ops is None
    for name, check in CHECKS:
        on_blocks = run_check(m, name, check, seed=3, samples=40).to_dict()
        assert on_blocks == run_check(lifted, name, check, seed=3, samples=40).to_dict(), name


@pytest.mark.parametrize("cfg", BLOCK_CONFIGS, ids=lambda cfg: cfg.tag)
def test_each_row_of_an_evaluation_is_its_own_draw(cfg):
    m = make_model(cfg)
    for name, check in CHECKS:
        columns = check.sample(m, random.Random(f"4:{name}"), 12)
        column = [x.hex() for x in check.residuals(m, columns).tolist()]
        rows = [[_row(c, i) for c in columns] for i in range(12)]
        assert column == [check.residuals(m, row)[0].hex() for row in rows], name


def _row(column, i):
    # Row i of a block or a column, as a block or column of one row.
    return tuple(c[i:i + 1] for c in column) if isinstance(column, tuple) else column[i:i + 1]


def _add(nvs, A, B):
    return nv_add(nvs, A, B)


def _smul(nvs, A, r):
    return nv_smul(nvs, r, A)


# On a ball of radius 0.1, lin_inv rounds reals beyond about 1.9 onto the
# edge of the rapidity line, which is not a norm value; 2 (x)' of the value
# next below the edge saturates onto it.  The transplanted line has no norm
# value in (-1, 1).
_EINSTEIN, _PATHOLOGICAL = ModelConfig("einstein", dim=2, s=0.1), ModelConfig("pathological")
_BELOW_EDGE = math.nextafter(0.1, 0.0)


@pytest.mark.parametrize("cfg,name,public,rows", [
    # the second row's B leaves the line; the third row's A does too
    (_EINSTEIN, "linear_additive", _add, [(0.01, 0.02), (0.02, -0.1), (0.1, 0.02)]),
    # the second row's A leaves the line, and so does the third's
    (_EINSTEIN, "linear_homogeneous", _smul, [(0.01, 0.5), (0.1, 2.0), (-0.1, 1.0)]),
    # the second row's result saturates onto the edge; the third row's A leaves the line
    (_EINSTEIN, "linear_homogeneous", _smul, [(0.01, 0.5), (_BELOW_EDGE, 2.0), (0.1, 1.0)]),
    # the second row's scalar is not finite; the third row's A leaves the line
    (_EINSTEIN, "linear_homogeneous", _smul, [(0.01, 0.5), (0.02, math.nan), (0.1, 1.0)]),
    # the second row's A leaves the line before its scalar is read; so does the third's scalar
    (_EINSTEIN, "linear_homogeneous", _smul, [(0.01, 0.5), (0.1, math.inf), (0.02, math.nan)]),
    # the second row's B leaves the line; the third row's A and B do too
    (_PATHOLOGICAL, "linear_additive", _add, [(2.0, -3.0), (1.5, 0.5), (-0.25, 0.75)]),
    # both of the second row's values leave the line, and the third's A
    (_PATHOLOGICAL, "linear_additive", _add, [(2.0, -3.0), (0.5, -0.5), (0.0, 2.0)]),
    # the second row's A leaves the line, and so does the third's
    (_PATHOLOGICAL, "linear_homogeneous", _smul, [(2.0, 0.5), (0.0, 1.0), (0.5, 2.0)]),
    # the second row's A leaves the line; the third row's sum overflows path_T's exp
    (_PATHOLOGICAL, "linear_additive", _add, [(2.0, -3.0), (0.5, 2.0), (1e308, 1e308)]),
], ids=["B", "A", "saturated", "scalar", "A-before-scalar", "transplanted-B", "transplanted-A-before-B",
        "transplanted-A", "transplanted-overflow"])
def test_a_norm_value_off_the_line_raises_the_error_of_the_first_row(cfg, name, public, rows):
    m = make_model(cfg)
    errors = []
    for row in rows:
        try:
            public(m.nvs, *row)
        except DomainError as exc:
            errors.append(str(exc))
    assert len(errors) == 2
    with pytest.raises(DomainError) as excinfo:
        dict(CHECKS)[name].residuals(m, [np.array(c) for c in zip(*rows)])
    assert str(excinfo.value) == errors[0]


def test_a_hand_built_line_runs_row_by_row_and_raises_the_error_of_the_first_row():
    # A line built by hand has no ``ops``: its public nv_add runs on each
    # row in turn, and the loop stops at the first row that fails.
    m = make_model(_EINSTEIN)
    nvs = m.nvs
    calls = []

    def counted(A, B):
        calls.append((A, B))
        return nvs.nv_add(A, B)

    line = type(nvs)(tag=nvs.tag, zero=nvs.zero, contains=nvs.contains, nv_add=counted, nv_smul=nvs.nv_smul,
                     lin=nvs.lin, lin_inv=nvs.lin_inv)
    assert line.ops is None
    hand_built = dataclasses.replace(m, nvs=line)
    check = dict(CHECKS)["linear_additive"]
    rows = [(0.01, 0.02), (0.03, -0.04), (-0.05, 0.06)]
    columns = [np.array(c) for c in zip(*rows)]
    assert check.residuals(hand_built, columns).tolist() == check.residuals(m, columns).tolist()
    assert calls == rows and all(type(x) is float for row in calls for x in row)
    calls.clear()
    with pytest.raises(DomainError) as excinfo:
        check.residuals(hand_built, [np.array(c) for c in zip((0.01, 0.02), (0.02, -0.1), (0.1, 0.02))])
    assert str(excinfo.value) == "-0.1 is not in the norm-value set of rapidity-line(s=0.1)"
    assert calls == [(0.01, 0.02)]

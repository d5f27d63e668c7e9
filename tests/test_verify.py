"""The verification suite itself: shape, determinism, and non-vacuity."""

import dataclasses
import math

import pytest

from ggv import ModelConfig, make_model
from ggv.space import worst_residual
from ggv.verify import GROUPS, run_all, run_check, run_group


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
    # A draw that reduces its parts through the reducer fails on NaN.
    draws = iter([0.0, worst_residual(math.nan, 0.0)] + [0.0] * 8)
    report = run_check(mobius2, "late-nan", lambda m, r: next(draws), seed=0, samples=10)
    assert report.max_residual == math.inf
    assert not report.passed

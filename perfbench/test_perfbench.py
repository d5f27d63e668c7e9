"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

Every output check must fail on a deliberately wrong result, a short run of
each workload must print every metric named in ``BENCHMARK.json``, and two
runs of the same requests must print the same reports apart from the
timestamp.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench
from workloads import WORKLOADS, Request

ROOT = Path(__file__).resolve().parent.parent
CLI = bench.load_cli()

from ggv import GyroPoint, otimes, random_isometry, run_check  # noqa: E402  (after load_cli)


def _report(command: str, kind: str, dim: int, seed: int, options: tuple) -> tuple[Request, dict]:
    request = Request(command, kind, dim, seed, options, 1)
    record = bench.invoke(CLI, request)
    assert record.rc == 0, record.stderr
    return request, json.loads(record.stdout)


def _scaled(point: GyroPoint) -> GyroPoint:
    return GyroPoint(point.model_tag, tuple(c * (1.0 + 1e-6) for c in point.coords))


def _perturbed(m, kernel: str):
    """``m`` with one kernel off by a relative 1e-6."""
    g = m.group
    if kernel == "add":
        return dataclasses.replace(m, group=dataclasses.replace(g, add=lambda a, b: _scaled(g.add(a, b))))
    if kernel == "gyr":
        return dataclasses.replace(m, group=dataclasses.replace(g, gyr=lambda u, v, a: _scaled(g.gyr(u, v, a))))
    if kernel == "otimes":
        return dataclasses.replace(m, otimes=lambda r, a: _scaled(m.otimes(r, a)))
    return dataclasses.replace(m, distance=lambda a, b: m.distance(a, b) * (1.0 + 1e-6))


SHAPES = [("normed", 2), ("einstein", 2), ("mobius", 3), ("pathological", 1)]


@pytest.mark.parametrize("kind,dim", SHAPES)
def test_kernel_check_passes_on_the_program(kind, dim):
    assert checks.kernel_problems(checks.model_of(kind, dim), random.Random(1)) == []


@pytest.mark.parametrize("kernel", ["add", "gyr", "otimes", "distance"])
@pytest.mark.parametrize("kind,dim", SHAPES)
def test_kernel_check_fails_on_a_perturbed_kernel(kind, dim, kernel):
    m = checks.model_of(kind, dim)
    if kernel == "distance" and m.distance is None:
        pytest.skip("the normed model has no distance kernel")
    assert checks.kernel_problems(_perturbed(m, kernel), random.Random(1))


def test_axiom_check_fails_on_nan_out_of_bound_and_missing_residuals():
    request, doc = _report("verify-axioms", "mobius", 2, 7, (("--samples", 5),))
    assert checks.axiom_report_problems(request, doc) == []

    # run_check drops a NaN residual and still says pass.
    nan_report = run_check(checks.model_of("mobius", 2), "GGV0", lambda m, r: float("nan"), seed=0, samples=5)
    assert nan_report.passed and nan_report.max_residual == 0.0
    broken = json.loads(json.dumps(doc))
    broken["results"][0]["max_residual"] = float("nan")
    assert checks.axiom_report_problems(request, broken)

    broken = json.loads(json.dumps(doc))
    broken["results"][3]["max_residual"] = 2e-9
    assert checks.axiom_report_problems(request, broken)

    broken = json.loads(json.dumps(doc))
    del broken["results"][-1]
    assert checks.axiom_report_problems(request, broken)

    assert checks.request_problems(request, 1, json.dumps(doc), "")


def test_mazur_checks_fail_on_a_wrong_report_or_map():
    request, doc = _report("verify-mazur-ulam", "einstein", 3, 11, (("--maps", 1), ("--samples", 5), ("--max-depth", 4)))
    assert checks.mazur_report_problems(request, doc) == []
    assert checks.check_mazur_request(request, doc) == []
    entry = doc["results"][0]
    m = checks.model_of("einstein", 3)
    T = random_isometry(m, entry["map_seed"], entry["depth"])
    assert checks.map_problems(m, T, entry, random.Random(2)) == []

    stretched = dataclasses.replace(T, apply=lambda x: T.apply(otimes(m, 1.001, x)))
    assert checks.map_problems(m, stretched, entry, random.Random(2))

    moved = json.loads(json.dumps(entry))
    moved["decomposition"]["translation_part"][0] += 1e-6
    assert checks.map_problems(m, T, moved, random.Random(2))

    broken = json.loads(json.dumps(doc))
    broken["results"][0]["decomposition"]["dyadic_residual"] = float("nan")
    assert checks.check_mazur_request(request, broken)

    broken = json.loads(json.dumps(doc))
    broken["results"][0]["midpoint"]["max_residual"] = 1e-3
    assert checks.check_mazur_request(request, broken)


def test_defect_check_fails_on_a_wrong_bound_iterate_or_defect():
    request, doc = _report("defect", "mobius", 2, 5, (("--depth", 4), ("--n-max", 3)))
    assert checks.check_defect_request(request, doc) == []

    broken = json.loads(json.dumps(doc))
    broken["result"]["bound"] *= 1.0 + 1e-6
    assert checks.check_defect_request(request, broken)

    broken = json.loads(json.dumps(doc))
    broken["result"]["iterates"][2] = broken["result"]["bound"] + 1e-6
    assert checks.check_defect_request(request, broken)

    broken = json.loads(json.dumps(doc))
    broken["result"]["defect"] = float("nan")
    assert checks.check_defect_request(request, broken)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_requests_print_the_same_reports(name):
    for request in WORKLOADS[name].round(seed=5, index=0):
        first, second = bench.invoke(CLI, request), bench.invoke(CLI, request)
        assert first.rc == second.rc == 0
        assert checks.payload(first.stdout) == checks.payload(second.stdout)
        assert json.loads(first.stdout)["timestamp"]


def test_tracer_counts_layers_and_restores_the_program():
    import ggv.cli
    import ggv.verify
    from tracing import Tracer

    originals = (ggv.cli.main, ggv.cli.make_model, ggv.verify.oplus, ggv.isometry.compose_maps)
    tracer = Tracer()
    with tracer.attached():
        record = bench.invoke(ggv.cli, Request("defect", "mobius", 2, 4, (("--depth", 2), ("--n-max", 3)), 8))
    assert record.rc == 0
    assert (ggv.cli.main, ggv.cli.make_model, ggv.verify.oplus, ggv.isometry.compose_maps) == originals
    assert tracer.calls["cli.main"] == 1 and tracer.calls["isometry.defect_experiment"] == 1
    assert tracer.calls["isometry.map_apply"] >= 2 * 2 ** 3
    assert tracer.metrics(8)["isometry.preservation_per_map"][0] == 2


def _benchmark_run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_prints_every_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    done = _benchmark_run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = _benchmark_run(tmp_path, "--workload", "axiom_suite", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""The repository tools under ``tools/``."""

import json
from pathlib import Path

import pytest
from conftest import load_tool

from ggv.cli import _OPERATIONS, main
from ggv.errors import BoundaryClampWarning
from ggv.models import KINDS


SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# A comment line.
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        return (math.pi
                + 1.0)
'''


def test_count_lines_counts_code_lines_only(tmp_path, capsys):
    count_lines = load_tool("count_lines")
    # import, class, def, and the two lines of the return expression.
    assert count_lines.code_lines(SYNTHETIC) == 5
    for tree, source in (("old", SYNTHETIC), ("new", SYNTHETIC + "\nVALUE = Box().size()\n")):
        (tmp_path / tree / "src" / "pkg").mkdir(parents=True)
        (tmp_path / tree / "src" / "pkg" / "mod.py").write_text(source)
    assert count_lines.count_tree(tmp_path / "old") == {"pkg/mod.py": 5}
    assert count_lines.count_tree(tmp_path / "new") == {"pkg/mod.py": 6}
    assert count_lines.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "5", "6", "+1"]


def test_count_lines_rejects_a_tree_without_src(tmp_path, capsys):
    count_lines = load_tool("count_lines")
    (tmp_path / "src").mkdir()
    assert count_lines.main([str(tmp_path), str(tmp_path / "missing")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "has no src directory" in captured.err


def test_compare_reports_evaluates_every_operation_on_every_kind(capsys):
    compare_reports = load_tool("compare_reports")
    assert compare_reports.EVAL_OPERATIONS == {op: kinds for op, (kinds, _) in _OPERATIONS.items()}
    edges, refused = compare_reports.BALL_EDGE_EXPRESSIONS, compare_reports.REFUSED_REQUESTS
    requests = [argv for argv in compare_reports.corpus()
                if argv[0] == "eval" and argv[-1] not in edges and argv not in refused]
    assert sorted((argv[2], argv[-1].split()[0]) for argv in requests) == sorted(
        (kind, op) for kind in KINDS for op in _OPERATIONS)
    edge_requests = [argv for argv in compare_reports.corpus() if argv[-1] in edges]
    assert edge_requests == [["eval", "--model", kind, "--dim", "2", "--expr", expr]
                             for kind in ("einstein", "mobius") for expr in edges]
    for argv in requests:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.count("\n") == 1
    # The first two edge requests clamp their result at the boundary; the
    # origin and the underflowing point scale without a clamp.
    clamping = set(edges[:2])
    for argv in edge_requests:
        if argv[-1] in clamping:
            with pytest.warns(BoundaryClampWarning):
                assert main(argv) == 0, argv
        else:
            assert main(argv) == 0, argv
        assert capsys.readouterr().out.count("\n") == 1
    assert compare_reports.corpus()[-len(refused):] == refused
    for argv in refused:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("ggv: error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("workload", ["axiom_suite", "mazur_ulam_maps", "defect_chain"])
def test_scan_requests_finds_no_failure_in_a_round_of_each_workload(workload, capsys):
    scan_requests = load_tool("scan_requests")
    assert scan_requests.main(["--workload", workload, "--seeds", "3", "--rounds", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["requests 5, failed 0"]


def test_scan_requests_prints_each_failed_request(monkeypatch, capsys):
    scan_requests = load_tool("scan_requests")
    assert scan_requests.main(["--workload", "defect_chain", "--seeds", "3", "--rounds", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["requests 0, failed 0"]
    import checks  # the benchmark's module, on the path once the tool has run

    verdicts = iter([[], ["a problem", "another"], [], [], []])
    monkeypatch.setattr(checks, "request_problems", lambda *record: next(verdicts))
    assert scan_requests.main(["--workload", "axiom_suite", "--seeds", "3-3", "--rounds", "1"]) == 1
    failed, total = capsys.readouterr().out.splitlines()
    assert failed.startswith("FAILED verify-axioms --model einstein --dim 2 --seed ") and failed.endswith(": a problem")
    assert total == "requests 5, failed 1"


def _record(argv, code, stdout, stderr=""):
    return {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr}


def _report(top, *checks, residual=0.0):
    return json.dumps({"pass": top, "results": [{"pass": p, "max_residual": residual} for p in checks]})


def test_compare_reports_tells_exit_codes_and_pass_flips_from_digits(monkeypatch, capsys):
    compare_reports = load_tool("compare_reports")
    assert compare_reports.passes(_report(False, True, False)) == [False, True, False]
    assert compare_reports.passes("0.25,0\n") == compare_reports.passes("") == []
    pairs = [
        (_record(["same"], 0, _report(True, True)), _record(["same"], 0, _report(True, True))),
        (_record(["code"], 1, _report(False, False)), _record(["code"], 0, _report(True, True))),
        (_record(["flip"], 1, _report(False, False, True)), _record(["flip"], 1, _report(False, True, False))),
        (_record(["digits"], 0, _report(True, True, residual=1e-12)),
         _record(["digits"], 0, _report(True, True, residual=2e-12))),
        (_record(["message"], 2, "", "ggv: error: a"), _record(["message"], 2, "", "ggv: error: b")),
        (_record(["eval"], 0, "0.5,0\n"), _record(["eval"], 0, "0.5000000000000001,0\n")),
    ]
    old, new = (list(records) for records in zip(*pairs))
    codes, flips, digits = compare_reports.classify(old, new)
    assert [a["argv"] for a, _ in codes] == [["code"]]
    assert [a["argv"] for a, _ in flips] == [["flip"]]
    assert [a["argv"] for a, _ in digits] == [["digits"], ["message"], ["eval"]]
    trees = iter([old, new])
    monkeypatch.setattr(compare_reports, "run_tree", lambda tree: next(trees))
    assert compare_reports.main(["old", "new"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "ggv code: exit code 1 -> 0",
        "ggv flip: 3 -> 3 pass flags, flipped at [1, 2]",
        "6 requests, 5 differ: 1 exit codes, 1 pass vectors, 3 digits only",
    ]


DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"


def test_a_stratified_eighth_of_the_corpus_keeps_its_recorded_reports(capsys):
    # Exit codes and pass vectors are compared on every platform, digests
    # only on the one the file was recorded on; a failure prints that one.
    compare_reports = load_tool("compare_reports")
    requests = compare_reports.corpus()
    picked = compare_reports.stratified(requests)
    assert len(requests) / 10 <= len(picked) <= len(requests) / 6
    assert {compare_reports._stratum(requests[i]) for i in picked} == set(map(compare_reports._stratum, requests))
    assert [line["argv"] for line in json.loads(DIGESTS.read_text())["requests"]] == requests
    status = compare_reports.main(["--check", str(DIGESTS), "--slice"])
    out = capsys.readouterr().out
    assert status == 0, out


def test_compare_reports_checks_digests_only_on_the_recorded_platform(tmp_path, monkeypatch, capsys):
    compare_reports = load_tool("compare_reports")
    requests = [["a"], ["b"], ["c"]]
    recorded = [_record(["a"], 0, _report(True, True)), _record(["b"], 1, _report(False, False)),
                _record(["c"], 0, "0.5,0\n")]
    here = {"python": "3", "numpy": "2", "mpmath": "1", "simd_extensions": {"baseline": [], "found": []}}
    monkeypatch.setattr(compare_reports, "corpus", lambda: requests)
    monkeypatch.setattr(compare_reports, "platform_of", lambda: here)
    monkeypatch.setattr(compare_reports, "run_tree", lambda tree, indices=None: recorded)
    path = tmp_path / "digests.json"
    assert compare_reports.main(["--record", str(path), "tree"]) == 0
    contract = json.loads(path.read_text())
    assert contract["platform"] == here
    assert [(line["argv"], line["code"], line["pass"]) for line in contract["requests"]] == [
        (["a"], 0, [True, True]), (["b"], 1, [False, False]), (["c"], 0, [])]
    capsys.readouterr()
    now = [_record(["a"], 0, _report(True, True, residual=1e-12)), _record(["b"], 1, _report(False, True)),
           _record(["c"], 0, "0.5,0\n")]
    monkeypatch.setattr(compare_reports, "run_tree", lambda tree, indices=None: now)
    assert compare_reports.main(["--check", str(path), "tree"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["ggv a: digits or messages changed", "ggv b: 2 -> 2 pass flags, flipped at [1]"]
    assert lines[2].startswith("3 requests checked, 2 differ; digests compared: the file expects")
    monkeypatch.setattr(compare_reports, "platform_of", lambda: {**here, "numpy": "3"})
    assert compare_reports.main(["--check", str(path), "tree"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ggv b: 2 -> 2 pass flags, flipped at [1]"
    assert lines[1].startswith(f"3 requests checked, 1 differ; digests skipped: the file expects {json.dumps(here)}")

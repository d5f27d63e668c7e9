"""CLI behaviour: evaluation, reports, exit codes, determinism."""

import json

import pytest

import ggv.isometry
from ggv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_pathological_sum(capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", "pathological", "--expr", "oplus 2 3")
    assert code == 0
    assert out.strip() == "6"


def test_eval_normed_midpoint(capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", "normed", "--dim", "1", "--expr", "midpoint 1 3")
    assert code == 0
    assert out.strip() == "2"


def test_eval_vector_arguments(capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", "einstein", "--expr", "oplus 0.5,0 0,0")
    assert code == 0
    assert out.strip() == "0.5,0"


def test_eval_scalar_operations(capsys):
    code, out, _ = run_cli(capsys, "eval", "--model", "pathological", "--expr", "linearize 1")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run_cli(capsys, "eval", "--model", "pathological", "--expr", "nvsmul 2 3")
    assert code == 0
    assert out.strip() == "9"


def test_eval_rejects_unknown_operations(capsys):
    code, _, err = run_cli(capsys, "eval", "--model", "normed", "--expr", "frobnicate 1 2")
    assert code == 2
    assert "unknown operation" in err


def test_eval_rejects_malformed_points(capsys):
    code, _, err = run_cli(capsys, "eval", "--model", "einstein", "--expr", "oplus 0.5 0.1,0.1")
    assert code == 2
    code, _, err = run_cli(capsys, "eval", "--model", "pathological", "--expr", "oplus 0.5 2")
    assert code == 2


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--model", "klein", "--expr", "oplus 1 2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-axioms", "--samples", "0"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-axioms", "--tolerance", "-1"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# verify-axioms
# ---------------------------------------------------------------------------

def test_verify_axioms_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify-axioms", "--model", "pathological", "--samples", "120", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["model"] == {"kind": "pathological", "dim": 1, "s": 1.0}
    names = {entry["property"] for entry in report["results"]}
    for i in range(9):
        assert f"GGV{i}" in names
    assert all(entry["pass"] for entry in report["results"])


def test_verify_axioms_is_deterministic_modulo_timestamp(capsys):
    argv = ["verify-axioms", "--model", "mobius", "--samples", "60", "--seed", "4"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_config_file_selects_the_model(capsys, tmp_path):
    config = tmp_path / "model.json"
    config.write_text('{"kind": "normed", "dim": 3}')
    code, out, _ = run_cli(
        capsys, "verify-axioms", "--config", str(config), "--samples", "40", "--seed", "2"
    )
    assert code == 0
    assert json.loads(out)["model"] == {"kind": "normed", "dim": 3, "s": 1.0}


def test_bad_config_file_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "model.json"
    config.write_text('{"kind": "klein"}')
    code, _, err = run_cli(capsys, "verify-axioms", "--config", str(config))
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "verify-axioms", "--config", str(tmp_path / "missing.json"))
    assert code == 2


def test_output_file_receives_the_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify-axioms", "--model", "normed", "--samples", "40",
        "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["pass"] is True


# ---------------------------------------------------------------------------
# verify-mazur-ulam, defect, decompose
# ---------------------------------------------------------------------------

def test_verify_mazur_ulam_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "verify-mazur-ulam", "--model", "einstein", "--maps", "3",
        "--samples", "30", "--seed", "6",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["results"]) == 3
    for entry in report["results"]:
        assert entry["midpoint"]["pass"] and entry["decomposition"]["pass"]
        assert 1 <= entry["depth"] <= 6


def test_defect_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "defect", "--model", "mobius", "--depth", "3", "--n-max", "5", "--seed", "8"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["result"]["iterates"]) == 6
    assert report["result"]["defect"] <= 1e-9


def test_decompose_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--model", "pathological", "--depth", "4",
        "--samples", "30", "--seed", "9",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["result"]["additivity_residual"] <= 1e-9


@pytest.mark.parametrize("n_max", ["21", "30", "-1"])
def test_defect_n_max_out_of_range_is_a_usage_error(capsys, n_max):
    code, out, err = run_cli(capsys, "defect", "--model", "mobius", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err.startswith("ggv: error:") and err.count("\n") == 1


def test_verify_mazur_ulam_checks_each_map_once(capsys, monkeypatch):
    calls = []
    measure = ggv.isometry.map_preservation_residual

    def counted(T, n_pairs, seed):
        calls.append((n_pairs, seed))
        return measure(T, n_pairs, seed)

    monkeypatch.setattr(ggv.isometry, "map_preservation_residual", counted)
    code, out, _ = run_cli(
        capsys, "verify-mazur-ulam", "--model", "mobius", "--maps", "1", "--samples", "20", "--seed", "3"
    )
    assert code == 0 and json.loads(out)["pass"] is True
    assert calls == [(200, 3)]

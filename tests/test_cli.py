"""CLI behaviour: evaluation, reports, exit codes, determinism."""

import json

import pytest

import ggv.cli
import ggv.isometry
from ggv import ModelConfig
from ggv.cli import build_parser, main


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


@pytest.mark.parametrize("model,expr", [
    ("einstein", "otimes nan 0.1,0"),
    ("einstein", "otimes inf 0.1,0"),
    ("einstein", "nvsmul nan 0.5"),
    ("pathological", "otimes 1000 3"),
    ("pathological", "otimes 1.7e308 3"),
    ("pathological", "oplus 1e308 1e308"),
    ("pathological", "delinearize 1000"),
    ("pathological", "nvsmul 1e6 3"),
    ("pathological", "nvadd 1e308 1e308"),
    ("einstein", "delinearize 1e9"),
    ("einstein", "delinearize nan"),
    ("einstein", "nvsmul 40 0.5"),
    # Normed results that overflow a double (the true midpoint is the origin).
    ("normed", "gnorm 1e200,0"),
    ("normed", "oplus 1e308,0 1e308,0"),
    ("normed", "otimes -5 -1e308,0"),
    ("normed", "gyrometric 1e308,0 -1e308,0"),
    ("normed", "metric 1e308,0 -1e308,0"),
    ("normed", "midpoint 1e308,0 -1e308,0"),
])
def test_bad_scalars_and_results_off_the_carrier_are_domain_errors(capsys, model, expr):
    code, out, err = run_cli(capsys, "eval", "--model", model, "--expr", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("ggv: error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("eval", "--model", "einstein", "--s", "1e200", "--expr", "gnorm 1e199,0"),
    ("eval", "--model", "mobius", "--s", "1e-200", "--expr", "oplus 1e-201,0 1e-201,0"),
])
def test_radii_outside_the_range_are_config_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ggv: error: s must lie in [1e-75, 1e+75]") and err.count("\n") == 1


@pytest.mark.parametrize("dim", [ModelConfig.MAX_DIM + 1, 10**30])
def test_a_dim_above_the_limit_is_a_config_error(capsys, tmp_path, dim):
    # A config file may write the dimension as an integer or as a float.
    (tmp_path / "int.json").write_text(json.dumps({"kind": "einstein", "dim": dim}))
    (tmp_path / "float.json").write_text(json.dumps({"kind": "mobius", "dim": float(dim)}))
    for model in (("--model", "einstein", "--dim", str(dim)), ("--config", str(tmp_path / "int.json")),
                  ("--config", str(tmp_path / "float.json"))):
        code, out, err = run_cli(capsys, "eval", *model, "--expr", "gnorm 0,0")
        assert (code, out) == (2, "")
        assert err.startswith("ggv: error: dim must be an integer from 1 to 64") and err.count("\n") == 1


def test_a_radius_too_small_for_the_suite_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify-axioms", "--model", "einstein", "--s", "1e-5", "--samples", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("ggv: error:") and err.count("\n") == 1
    assert "the radius is too small for the suite's separation thresholds" in err


def test_the_first_check_that_cannot_draw_its_samples_names_its_threshold(capsys):
    # At s = 1e-3 points reach linearized norm 1e-3 but not 1e-2, so the
    # sampler of scalar_norm_cancellation is the first to give up.
    code, out, err = run_cli(capsys, "verify-axioms", "--model", "einstein", "--s", "1e-3")
    assert (code, out) == (2, "")
    assert err == ("ggv: error: no point of einstein(dim=2,s=0.001) at linearized norm >= 0.01 in 1000 draws: "
                   "the radius is too small for the suite's separation thresholds\n")


def test_a_norm_value_off_the_line_is_a_domain_error(capsys):
    # At s = 0.1 lin_inv of the order checks' reals rounds onto the edge of
    # the rapidity line; the block pass reports it on one line, no traceback.
    code, out, err = run_cli(capsys, "verify-axioms", "--model", "einstein", "--s", "0.1", "--samples", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("ggv: error:") and err.count("\n") == 1
    assert "is not in the norm-value set of rapidity-line(s=0.1)" in err


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--model", "klein", "--expr", "oplus 1 2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-axioms", "--samples", "0"])
    assert excinfo.value.code == 2
    for bad in ("-1", "inf", "nan"):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-axioms", "--tolerance", bad])
        assert excinfo.value.code == 2


EVAL = ("eval", "--model", "normed", "--expr", "oplus 1,2 3,4")


@pytest.mark.parametrize("argv", [
    (*EVAL, "--seed", "1"),
    (*EVAL, "--samples", "5"),
    (*EVAL, "--tolerance", "1e-3"),
    (*EVAL, "--output", "{report}"),
    ("defect", "--model", "normed", "--depth", "1", "--n-max", "1", "--samples", "5", "--output", "{report}"),
])
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(capsys, tmp_path, argv):
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(report=report) for arg in argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not report.exists()


def test_the_requests_of_a_process_share_one_parser(capsys, monkeypatch):
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(ggv.cli, "build_parser", counted)
    ggv.cli._parser.cache_clear()
    try:
        assert [run_cli(capsys, *EVAL) for _ in range(2)] == [(0, "4,6\n", "")] * 2
        bad = [*EVAL, "--seed", "1"]
        with pytest.raises(SystemExit) as excinfo:
            main(bad)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(bad)
        assert err == capsys.readouterr().err
        assert err.splitlines()[-1] == "ggv: error: unrecognized arguments: --seed 1"
        assert len(built) == 1
    finally:
        ggv.cli._parser.cache_clear()


def test_only_the_subcommands_that_draw_samples_echo_them(capsys):
    code, out, _ = run_cli(capsys, "defect", "--model", "normed", "--depth", "1", "--n-max", "1")
    assert code == 0 and "samples" not in json.loads(out)
    for argv in (("verify-axioms", "--samples", "5"), ("verify-mazur-ulam", "--maps", "1", "--samples", "5"),
                 ("decompose", "--depth", "1", "--samples", "5")):
        code, out, _ = run_cli(capsys, *argv, "--model", "normed")
        assert code == 0 and json.loads(out)["samples"] == 5, argv


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
    config.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, "verify-axioms", "--config", str(config))
    assert code == 2
    assert err.startswith("ggv: error: cannot read config") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [("--model", "mobius", "--dim", "3"), ("--model", "einstein"), ("--dim", "2"),
                                   ("--s", "1")])
def test_config_file_is_not_combined_with_model_flags(capsys, tmp_path, flags):
    # A flag equal to its default is refused too: it is still given.
    config = tmp_path / "model.json"
    config.write_text('{"kind": "normed", "dim": 2}')
    code, out, err = run_cli(capsys, "eval", "--config", str(config), *flags, "--expr", "oplus 0.5,0 0.5,0")
    assert (code, out) == (2, "")
    assert err.startswith("ggv: error: --config cannot be combined with --") and err.count("\n") == 1
    assert run_cli(capsys, "eval", "--config", str(config), "--expr", "oplus 0.5,0 0.5,0")[:2] == (0, "1,0\n")


def test_output_file_receives_the_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify-axioms", "--model", "normed", "--samples", "40",
        "--output", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["pass"] is True
    for unwritable in (tmp_path, tmp_path / "missing" / "report.json"):
        code, out, err = run_cli(
            capsys, "verify-axioms", "--model", "normed", "--samples", "5", "--output", str(unwritable),
        )
        assert code == 2 and out == ""
        assert err.startswith("ggv: error: cannot write report") and err.count("\n") == 1


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


RSS_GUARD = """
import contextlib, io, sys
import ggv, ggv.cli
requests = (["eval", "--model", "mobius", "--expr", "oplus 0.1,0.2 0.3,0"],
            ["verify-axioms", "--model", "einstein", "--samples", "3"],
            ["verify-mazur-ulam", "--model", "mobius", "--maps", "1", "--samples", "3", "--max-depth", "2"],
            ["defect", "--model", "normed", "--n-max", "2"],
            ["decompose", "--model", "pathological", "--samples", "3"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [ggv.cli.main(argv) for argv in requests]
print(codes, sorted(name for name in sys.modules if name.startswith("numpy.random")))
"""


def test_no_command_imports_numpy_random():
    # Importing numpy.random costs about 6 MB of peak RSS, a tenth of the
    # benchmark's: samples come from random.Random.randbytes instead.
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", RSS_GUARD], capture_output=True, text=True, check=True,
                            env={"PYTHONPATH": str(src)})
    assert result.stdout.split("\n")[0] == "[0, 0, 0, 0, 0] []", result.stdout + result.stderr

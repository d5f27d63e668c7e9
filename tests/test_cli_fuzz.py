"""Fuzzing the CLI contract: every request, good or bad, ends in exit 0, 1 or 2.

The requests are drawn for all five subcommands, with the model given by
flags or by a config file, and every draw is bounded so that no request
allocates or runs without limit: dimensions 1-8, at most 5 samples, 2 maps,
depth 4 and ``--n-max`` 6, and no ``--output``.
"""

import contextlib
import io
import json
import math
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from ggv.cli import _OPERATIONS, main
from ggv.errors import BoundaryClampWarning
from ggv.models import KINDS

# A request has at most one fault, drawn first; about half have none.
FAULTS = ("dim", "s", "seed", "tolerance", "count", "config", "number", "shape", "kind")
BAD = {"dim": ("0", "65", "1" + "0" * 30), "s": ("nan", "inf", "-inf", "0", "-0", "1e308", "1e-320"),
       "seed": ("nan", "1.5"), "tolerance": ("0", "nan", "inf", "-1"), "number": ("nan", "inf", "-inf", "x")}
# Values of a config file's "dim" and "s": off by one, unrepresentable as an
# index, too long for int(), out of range and of the wrong type.
CONFIG_DIMS = ("0", "-1", "65", "1e30", "1" + "0" * 30, "9" * 5000, "2.5", "true", '"2"', "null")
CONFIG_RADII = ("NaN", "Infinity", "-0", "1e308", "1e-320", "true", '"1"')
RADII = st.one_of(st.sampled_from(("1", "0.5", "2.5")), st.floats(-75, 75).map(lambda e: repr(10.0 ** e)))


def _point(scale: float, dim: int):
    """``dim`` coordinates, all from one regime: inside the ball of radius
    ``scale``, reals of either branch of the pathological line, or any
    double, overflowing ones included."""
    inside = st.floats(-1, 1).map(lambda f: f * scale / dim)
    huge = st.floats(1e150, 1.7e308).flatmap(lambda x: st.sampled_from((x, -x)))
    anywhere = st.one_of(st.sampled_from((1e308, -1e308, 1e-320, -0.0)), huge,
                         st.floats(allow_nan=False, allow_infinity=False))
    regime = st.sampled_from((inside, st.floats(-10, 10), huge, anywhere))
    return regime.flatmap(lambda r: st.lists(r, min_size=dim, max_size=dim)).map(lambda x: ",".join(map(repr, x)))


@st.composite
def _config(draw, fault: str | None, kind: str, dim: int, s: str) -> str:
    """A config file's contents, with the request's fault if it has one."""
    if fault == "config" and draw(st.booleans()):
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=30))
    fields = {"kind": '"klein"' if fault == "kind" else json.dumps(kind),
              "dim": draw(st.sampled_from(CONFIG_DIMS)) if fault == "dim" else str(dim),
              "s": draw(st.sampled_from(CONFIG_RADII)) if fault == "s" else s}
    if fault == "config":
        if draw(st.booleans()):
            del fields[draw(st.sampled_from(sorted(fields)))]
        else:
            fields["radius"] = "2"
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


@st.composite
def _requests(draw) -> tuple[list[str], str | None]:
    """A ``ggv`` argument vector, and the contents of its config file if it reads one."""
    fault = draw(st.sampled_from(FAULTS)) if draw(st.booleans()) else None
    command = draw(st.sampled_from(("eval",) * 8 + ("verify-axioms", "verify-mazur-ulam", "defect", "decompose")))
    # Half the requests are on the normed model, the only one whose carrier
    # is unbounded and so the only one whose results can overflow.
    kind, dim, s = draw(st.sampled_from(KINDS + ("normed",) * 2)), draw(st.integers(1, 8)), draw(RADII)
    token = {field: draw(st.sampled_from(BAD[field])) if fault == field else None for field in BAD}
    config = None
    if fault == "config" or draw(st.booleans()):
        config = draw(_config(fault, kind, dim, s))
        argv = [command, "--config", "{config}"]
    else:
        argv = [command, "--model", "klein" if fault == "kind" else kind]
        if fault == "dim" or draw(st.booleans()):
            argv += ["--dim", token["dim"] or str(dim)]
        else:
            dim = 2
        if fault == "s" or draw(st.booleans()):
            argv += ["--s", token["s"] or s]
        else:
            s = "1"
    if command == "eval":
        scale = float(s)
        model_dim = 1 if kind == "pathological" else dim
        op = draw(st.sampled_from(sorted(_OPERATIONS)))
        args = [draw(_point(scale, model_dim) if arg == "p" else _point(scale, 1)) for arg in _OPERATIONS[op][0]]
        if fault == "number":
            args[draw(st.integers(0, len(args) - 1))] = token["number"]
        if fault == "shape":
            # A point of another dimension, or one argument too many or too few.
            args = draw(st.sampled_from((args + ["1"], args[1:], [draw(_point(scale, model_dim + 1))] + args[1:])))
        return argv + ["--expr", " ".join([op, *args])], config
    argv += ["--seed", token["seed"] or str(draw(st.integers(-2 ** 40, 2 ** 40)))]
    if fault == "tolerance" or draw(st.booleans()):
        argv += ["--tolerance", token["tolerance"] or draw(st.sampled_from(("1e-9", "5e-15", "1e-17", "1", "1e-320")))]
    # Each count's range, and values the CLI refuses before it runs anything.
    counts = {"--samples": (1, 5, ("0", "-1")), "--maps": (1, 2, ("0",)), "--max-depth": (1, 4, ("0",)),
              "--depth": (1, 4, ("0",)), "--n-max": (0, 6, ("-1", "21"))}
    names = {"verify-axioms": ["--samples"], "verify-mazur-ulam": ["--samples", "--maps", "--max-depth"],
             "defect": ["--depth", "--n-max"], "decompose": ["--samples", "--depth"]}[command]
    bad = draw(st.sampled_from(names)) if fault == "count" else None
    for name in names:
        low, high, refused = counts[name]
        argv += [name, draw(st.sampled_from(refused)) if name == bad else str(draw(st.integers(low, high)))]
    return argv, config


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # Clamp warnings are part of the contract; the suite turns them into errors.
        warnings.simplefilter("ignore", BoundaryClampWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=_requests())
def test_every_request_ends_in_a_documented_exit_code(tmp_path_factory, drawn):
    argv, config = drawn
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
        path.write_text(config, encoding="utf-8")
        argv = [str(path) if arg == "{config}" else arg for arg in argv]
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    lines = err.splitlines()
    if code == 2:
        one_line = len(lines) == 1 and lines[0].startswith("ggv: error: ")
        usage = bool(lines) and lines[0].startswith("usage: ggv") and re.match(r"ggv( [\w-]+)?: error: ", lines[-1])
        assert one_line or usage, (argv, err)
    if code == 0 and argv[0] == "eval":
        assert out.count("\n") == 1 and all(math.isfinite(float(x)) for x in out.split(",")), (argv, out)

"""Compare the CLI output of two source trees, request by request.

    python3 tools/compare_reports.py OLD_TREE NEW_TREE
    python3 tools/compare_reports.py --record tests/data/report_digests.json [TREE]
    python3 tools/compare_reports.py --check tests/data/report_digests.json [--slice] [TREE]

Each tree is a checkout of this repository (for instance an exported copy of
the parent commit and the working tree).  A fixed corpus of ``ggv`` requests
(``verify-axioms``, ``verify-mazur-ulam``, ``decompose`` and ``defect`` on
all four kinds, dims 1-3, seeds 0, 7 and 1234, ball radii 1, 0.5, 2.5 and
0.1, where ``verify-axioms`` stops on a norm value that leaves the
norm-value set, plus the tolerances ``1e-17``, which fails every map at
construction and most axiom checks, and ``5e-15``, which fails some checks,
per command and kind, then the benchmark's ``defect`` shapes at its doubling
depths, a ball-model seed whose fixed-point residual drifts past the
tolerance in double, four ``defect`` orbits whose doubling chain reaches an
exact fixed point of ``S`` late or enters a 2-cycle, eight ``verify-mazur-ulam``
requests whose maps send the unit near the ball boundary, one ``eval`` request per
operation of the expression language and kind, on fixed arguments, and per
ball kind the ``eval`` requests of ``BALL_EDGE_EXPRESSIONS``, which clamp a
result at the boundary, scale the origin and scale a point whose squared
norm underflows, then the ``REFUSED_REQUESTS``: six normed ``eval`` results
that overflow a double and one ``--dim`` of 10^30) is run in-process against
each tree, in a separate interpreter per tree.  The exit status is 1 if any
request's exit code, stdout or stderr differs.

Each differing request counts as one of three kinds, the first that applies:
its exit code changed, the vector of ``pass`` flags of its report changed
(every ``pass`` key of the JSON document, in document order), or only its
digits or messages changed.  Requests of the first two kinds are printed with
their old and new exit code, or the positions of the flipped flags; the last
line reads ``N requests, K differ: E exit codes, P pass vectors, D digits
only``.

``--record PATH`` runs the corpus against one tree (by default this
checkout) and writes the report contract to ``PATH``: the versions of
Python, NumPy and mpmath and NumPy's SIMD extensions, then one line per
request with its argv, exit code, vector of ``pass`` flags and the sha256 of
its masked stdout and of its masked stderr.  ``--check PATH`` runs the
corpus, or with ``--slice`` the stratified eighth of it that
:func:`stratified` picks, and compares every request's exit code and pass
vector with the file, and its digests only on the platform the file was
recorded on; it prints each mismatch and the platform the file expects, and
exits 1 if any request differs.

The report ``timestamp`` and the source location of warning lines (file,
line number and the echoed source line) are masked, since neither is part of
the report.  Each request starts with fresh warning registries, as a new
process would.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (0, 7, 1234)
BALL_RADII = (None, "0.5", "2.5", "0.1")
COMMANDS = (
    ("verify-axioms", ("--samples", "100")),
    ("verify-mazur-ulam", ("--maps", "3", "--samples", "60")),
    ("decompose", ("--samples", "100")),
    ("defect", ("--n-max", "8")),
)
KINDS = ("normed", "einstein", "mobius", "pathological")
FAILING_TOLERANCES = ("1e-17", "5e-15")
# The shapes of the benchmark's defect_chain workload, as (kind, dim, n_max).
DEFECT_SHAPES = (("normed", 2, 14), ("einstein", 2, 13), ("mobius", 2, 13), ("mobius", 3, 13),
                 ("pathological", 1, 14))
# Its fixed-point residual is 1.5e-9 in double although its defect is 5e-13;
# evaluated again at 50 digits, it is 2e-44 and the request passes.
DRIFTING_DEFECT = ["defect", "--model", "mobius", "--dim", "2", "--seed", "1656955186", "--depth", "4",
                   "--n-max", "12"]
# Doubling chains at --depth 2 --n-max 13, as (kind, dim, seed), with NumPy
# 2.4.6 on AVX-512 loops: S^211(p), S^3782(p) and S^13(p) are fixed points of
# S, S^4(p) starts a 2-cycle.
LATE_FIXED_DEFECTS = (("einstein", 2, 1472491609), ("mobius", 2, 1034930103), ("einstein", 2, 996517196),
                      ("einstein", 2, 49))
# verify-mazur-ulam at --maps 2 --samples 100 --max-depth 6, as (kind, dim,
# seed): one map of each sends the unit near the boundary, where rounding in
# double alone put a decomposition or midpoint residual over the tolerance.
NEAR_BOUNDARY_MAPS = (("einstein", 3, 1755474647), ("einstein", 3, 1857619338), ("mobius", 3, 1081462080),
                      ("mobius", 3, 2053428506), ("mobius", 3, 979133609), ("mobius", 3, 309368114),
                      ("mobius", 3, 803666271), ("mobius", 2, 689201108))

# The argument kinds of each eval operation ("p" a point, "r" a real), as in
# ggv.cli._OPERATIONS, and per kind three points and two reals that are norm
# values of that kind.
EVAL_OPERATIONS = {"oplus": "pp", "ominus": "p", "gyr": "ppp", "coplus": "pp", "otimes": "rp", "gnorm": "p",
                   "gyrometric": "pp", "midpoint": "pp", "metric": "pp", "linearize": "r", "delinearize": "r",
                   "nvadd": "rr", "nvsmul": "rr"}
BALL_ARGUMENTS = (("0.3,-0.2", "0.1,0.5", "-0.4,0.1"), ("0.5", "0.25"))
EVAL_ARGUMENTS = {"normed": (("1.5,-2", "0.5,0.25", "-1,3"), ("0.5", "0.25")), "einstein": BALL_ARGUMENTS,
                  "mobius": BALL_ARGUMENTS, "pathological": (("2", "-1.5", "3"), ("1.5", "2.5"))}

# Ball-model expressions at the edges of the kernels: two results clamped
# back inside the ball, the scaling of the origin, and the scaling of a
# nonzero point whose squared norm underflows to 0.
BALL_EDGE_EXPRESSIONS = ("oplus 0.9999999999999,0 0.5,0", "otimes 40 0.5,0", "otimes 2 0,0", "otimes 2 1e-170,0")

# Requests refused with one error line: normed results that overflow a double
# (the true midpoint is the origin), and a dimension above ModelConfig.MAX_DIM.
REFUSED_REQUESTS = [
    *(["eval", "--model", "normed", "--dim", "2", "--expr", expr]
      for expr in ("gnorm 1e200,0", "oplus 1e308,0 1e308,0", "otimes -5 -1e308,0", "gyrometric 1e308,0 -1e308,0",
                   "metric 1e308,0 -1e308,0", "midpoint 1e308,0 -1e308,0")),
    ["eval", "--model", "einstein", "--dim", str(10**30), "--expr", "gnorm 0,0"],
]

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
_WARNING = re.compile(r"^.*:\d+: (\w+Warning): ")
_PASS = re.compile(r'"pass": (true|false)')


def corpus() -> list[list[str]]:
    """The requests, as ``ggv`` argument vectors."""
    requests = []
    for command, options in COMMANDS:
        for kind in KINDS:
            dims = (1,) if kind == "pathological" else (1, 2, 3)
            radii = BALL_RADII if kind in ("einstein", "mobius") else (None,)
            for dim in dims:
                for s in radii:
                    for seed in SEEDS:
                        argv = [command, "--model", kind, "--dim", str(dim), "--seed", str(seed), *options]
                        requests.append(argv + (["--s", s] if s else []))
            for tolerance in FAILING_TOLERANCES:
                requests.append([command, "--model", kind, "--seed", "0", "--tolerance", tolerance, *options])
    for kind, dim, n_max in DEFECT_SHAPES:
        for seed in SEEDS:
            requests.append(["defect", "--model", kind, "--dim", str(dim), "--seed", str(seed), "--depth", "2",
                             "--n-max", str(n_max)])
    requests.append(DRIFTING_DEFECT)
    for kind, dim, seed in LATE_FIXED_DEFECTS:
        requests.append(["defect", "--model", kind, "--dim", str(dim), "--seed", str(seed), "--depth", "2",
                         "--n-max", "13"])
    for kind, dim, seed in NEAR_BOUNDARY_MAPS:
        requests.append(["verify-mazur-ulam", "--model", kind, "--dim", str(dim), "--seed", str(seed), "--maps", "2",
                         "--samples", "100", "--max-depth", "6"])
    for kind, (points, reals) in EVAL_ARGUMENTS.items():
        dim = "1" if kind == "pathological" else "2"
        for op, kinds in EVAL_OPERATIONS.items():
            p, r = iter(points), iter(reals)
            expr = " ".join([op, *(next(p if k == "p" else r) for k in kinds)])
            requests.append(["eval", "--model", kind, "--dim", dim, "--expr", expr])
    for kind in ("einstein", "mobius"):
        for expr in BALL_EDGE_EXPRESSIONS:
            requests.append(["eval", "--model", kind, "--dim", "2", "--expr", expr])
    return requests + REFUSED_REQUESTS


def mask(stdout: str, stderr: str) -> tuple[str, str]:
    """Blank the timestamp and the source location of each warning."""
    lines, echo = [], False
    for line in stderr.splitlines():
        if echo and line.startswith("  "):
            lines.append("  <source line>")
        elif _WARNING.match(line):
            lines.append(_WARNING.sub(r"<source>: \1: ", line))
            echo = True
            continue
        else:
            lines.append(line)
        echo = False
    return _TIMESTAMP.sub('"timestamp": "<masked>"', stdout), "\n".join(lines)


def stratified(requests: list[list[str]]) -> list[int]:
    """The indices of a fixed slice of about an eighth of ``requests``: for
    each command, kind and tolerance, its middle request, and its first too
    when it has 24 or more."""
    strata: dict[tuple, list[int]] = {}
    for i, argv in enumerate(requests):
        strata.setdefault(_stratum(argv), []).append(i)
    return sorted({i for members in strata.values()
                   for i in (members[len(members) // 2], members[0] if len(members) >= 24 else None) if i is not None})


def _stratum(argv: list[str]) -> tuple:
    # A request's command, kind and tolerance.
    option = dict(zip(argv[1::2], argv[2::2]))
    return argv[0], option.get("--model"), option.get("--tolerance")


def collect(tree: Path, indices: list[int] | None = None) -> list[dict]:
    """Run the corpus, or its requests at ``indices``, in this interpreter
    against ``tree``'s sources."""
    sys.path.insert(0, str(tree / "src"))
    from ggv.cli import main

    requests = corpus()
    records = []
    for argv in requests if indices is None else [requests[i] for i in indices]:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # Changing the filters invalidates every warning registry.
            warnings.simplefilter("default", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback in a real process
                code = f"uncaught {type(exc).__name__}: {exc}"
        stdout, stderr = mask(out.getvalue(), err.getvalue())
        records.append({"argv": argv, "code": code, "stdout": stdout, "stderr": stderr})
    return records


def run_tree(tree: Path, indices: list[int] | None = None) -> list[dict]:
    only = [] if indices is None else ["--indices", ",".join(map(str, indices))]
    result = subprocess.run([sys.executable, __file__, "--collect", str(tree), *only],
                            check=True, capture_output=True, text=True)
    return json.loads(result.stdout)


def platform_of() -> dict:
    """What the digests depend on: the versions of Python, NumPy and mpmath
    and the SIMD extensions NumPy dispatches to."""
    import mpmath
    import numpy

    simd = numpy.show_config(mode="dicts")["SIMD Extensions"]
    return {"python": platform.python_version(), "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "simd_extensions": {key: simd[key] for key in ("baseline", "found")}}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(record: dict) -> dict:
    """The contract line of a record: argv, exit code, pass vector and digests."""
    return {"argv": record["argv"], "code": record["code"], "pass": passes(record["stdout"]),
            "stdout": _sha256(record["stdout"]), "stderr": _sha256(record["stderr"])}


def record(path: Path, tree: Path) -> int:
    """Write the report contract of ``tree`` to ``path``, one request per line."""
    lines = [json.dumps(digest(r)) for r in run_tree(tree)]
    path.write_text(f'{{"platform": {json.dumps(platform_of())},\n "requests": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"{len(lines)} requests recorded in {path}")
    return 0


def check(path: Path, tree: Path, sliced: bool = False, out=sys.stdout) -> int:
    """Compare ``tree``'s reports with the contract at ``path``: exit codes
    and pass vectors always, digests only on the recorded platform."""
    contract = json.loads(path.read_text())
    expected, here = contract["platform"], platform_of()
    indices = stratified(corpus()) if sliced else list(range(len(corpus())))
    lines = [contract["requests"][i] for i in indices]
    same_platform = expected == here
    failures = 0
    for line, got in zip(lines, map(digest, run_tree(tree, indices))):
        if line["argv"] != got["argv"]:
            problem = f"the corpus changed: the file holds ggv {' '.join(line['argv'])}"
        elif line["code"] != got["code"]:
            problem = f"exit code {line['code']!r} -> {got['code']!r}"
        elif line["pass"] != got["pass"]:
            flipped = [i for i, (x, y) in enumerate(zip(line["pass"], got["pass"])) if x != y]
            problem = f"{len(line['pass'])} -> {len(got['pass'])} pass flags, flipped at {flipped}"
        elif same_platform and (line["stdout"], line["stderr"]) != (got["stdout"], got["stderr"]):
            problem = "digits or messages changed"
        else:
            continue
        failures += 1
        print(f"ggv {' '.join(got['argv'])}: {problem}", file=out)
    print(f"{len(lines)} requests checked, {failures} differ; digests "
          f"{'compared' if same_platform else 'skipped'}: the file expects {json.dumps(expected)}"
          + ("" if same_platform else f", this platform is {json.dumps(here)}"), file=out)
    return 1 if failures else 0


def passes(stdout: str) -> list[bool]:
    """Every ``pass`` flag of a JSON report, in document order; none for other output."""
    return [flag == "true" for flag in _PASS.findall(stdout)]


def classify(old: list[dict], new: list[dict]) -> tuple[list, list, list]:
    """The pairs of records that differ, split into exit-code changes,
    pass-vector changes and the rest, digit-only changes."""
    codes, flips, digits = [], [], []
    for a, b in zip(old, new):
        if a["code"] != b["code"]:
            codes.append((a, b))
        elif passes(a["stdout"]) != passes(b["stdout"]):
            flips.append((a, b))
        elif a["stdout"] != b["stdout"] or a["stderr"] != b["stderr"]:
            digits.append((a, b))
    return codes, flips, digits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE, or the TREE to record or check")
    parser.add_argument("--record", type=Path, metavar="PATH", help="write the report contract of TREE to PATH")
    parser.add_argument("--check", type=Path, metavar="PATH", help="compare TREE's reports with the contract at PATH")
    parser.add_argument("--slice", action="store_true", help="with --check, only the stratified eighth of the corpus")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--indices", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        indices = None if args.indices is None else [int(i) for i in args.indices.split(",")]
        json.dump(collect(args.collect.resolve(), indices), sys.stdout)
        return 0
    if args.record or args.check:
        if len(args.trees) > 1:
            parser.error("expected at most one source tree")
        tree = (args.trees[0] if args.trees else ROOT).resolve()
        return record(args.record, tree) if args.record else check(args.check, tree, args.slice)
    if len(args.trees) != 2:
        parser.error("expected two source trees")
    old, new = (run_tree(tree.resolve()) for tree in args.trees)
    codes, flips, digits = classify(old, new)
    for a, b in codes:
        print(f"ggv {' '.join(a['argv'])}: exit code {a['code']!r} -> {b['code']!r}")
    for a, b in flips:
        was, now = passes(a["stdout"]), passes(b["stdout"])
        flipped = [i for i, (x, y) in enumerate(zip(was, now)) if x != y]
        print(f"ggv {' '.join(a['argv'])}: {len(was)} -> {len(now)} pass flags, flipped at {flipped}")
    differing = len(codes) + len(flips) + len(digits)
    print(f"{len(old)} requests, {differing} differ: {len(codes)} exit codes, {len(flips)} pass vectors, "
          f"{len(digits)} digits only")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

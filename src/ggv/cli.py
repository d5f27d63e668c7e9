"""Command-line front end.

Subcommands:

* ``eval``: evaluate one operation in a chosen model, flat prefix syntax,
  e.g. ``ggv eval --model pathological --expr "oplus 2 3"``.
* ``verify-axioms``: run the full seeded property suite for one model.
* ``verify-mazur-ulam``: generate random gyrometric-preserving maps and check
  midpoint preservation plus the translation/isomorphism decomposition.
* ``defect``: run the doubling-iteration defect experiment for one map.
* ``decompose``: report the decomposition residuals for one map.

Every subcommand takes the model options ``--model``, ``--dim``, ``--s`` and
``--config``, which replaces the other three and is not combined with them.
``eval`` takes ``--expr`` besides and prints one value, which must be finite:
a result that overflows a double is a domain error.  The other four take
``--seed``, ``--tolerance`` and ``--output`` and emit a JSON report (stdout
or ``--output``) that is byte-identical for identical commands and seeds,
apart from the timestamp field; of them only ``defect``, which draws no
samples, takes no ``--samples``.  One writer builds every report:
the command, the model, the seed, the tolerance, the timestamp, ``pass``,
``samples`` where the subcommand takes it, and the subcommand's own fields.
Exit status is 0 when every check passes, 1 on a verification failure, and 2
on usage or configuration errors, an option a subcommand does not take
included.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from datetime import datetime, timezone
from functools import cache
from typing import Sequence

from .errors import ConfigError, DomainError, GgvError, SamplingError
from .gyrogroup import GyroPoint, coplus, gyr_apply, ominus, oplus
from .isometry import (
    N_MAX_LIMIT,
    decompose_mazur_ulam,
    defect_experiment,
    random_isometry,
    verify_midpoint_preservation,
)
from .models import KINDS, ModelConfig, make_model, make_point
from .sampling import sample_point
from .space import (
    DEFAULT_TOLERANCE,
    GgvModel,
    delinearize,
    gnorm,
    gyrometric,
    gyromidpoint,
    linearize,
    metric_distance,
    nv_add,
    nv_smul,
    otimes,
)
from .verify import DEFAULT_SAMPLES, run_all


class UsageError(Exception):
    """Bad command usage that should exit with status 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    # An infinite tolerance passes every residual, NaN included; a NaN one is not valid JSON.
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", choices=KINDS, help="model kind (default: einstein)")
    model.add_argument("--dim", type=_positive_int,
                       help=f"ambient dimension, at most {ModelConfig.MAX_DIM} (default: 2)")
    model.add_argument("--s", type=_positive_float, help="ball radius (default: 1)")
    model.add_argument("--config", metavar="PATH",
                       help="JSON model config file; not combined with --model, --dim or --s")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--seed", type=int, default=0, help="seed for all sampling (default: 0)")
    run.add_argument("--tolerance", type=_positive_float, default=DEFAULT_TOLERANCE,
                     help=f"residual tolerance (default: {DEFAULT_TOLERANCE:g})")
    run.add_argument("--output", metavar="PATH", help="write the JSON report here instead of stdout")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES,
                         help=f"samples per property (default: {DEFAULT_SAMPLES})")

    parser = argparse.ArgumentParser(prog="ggv", description="Generalized gyrovector space toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[model], help="evaluate one operation")
    p_eval.add_argument("--expr", required=True,
                        help='flat prefix expression, e.g. "oplus 2 3" or "midpoint 0.3,0 0,0.4"')
    p_eval.set_defaults(run=_cmd_eval)

    sub.add_parser("verify-axioms", parents=[model, run, samples],
                   help="run the full axiom and identity suite").set_defaults(run=_cmd_verify_axioms)

    p_mu = sub.add_parser("verify-mazur-ulam", parents=[model, run, samples],
                          help="midpoint preservation and decomposition for random maps")
    p_mu.add_argument("--maps", type=_positive_int, default=50, help="number of random maps (default: 50)")
    p_mu.add_argument("--max-depth", type=_positive_int, default=6,
                      help="maximum composition depth (default: 6)")
    p_mu.set_defaults(run=_cmd_verify_mazur_ulam)

    p_defect = sub.add_parser("defect", parents=[model, run], help="defect doubling experiment for one map")
    p_defect.add_argument("--depth", type=_positive_int, default=4, help="composition depth (default: 4)")
    p_defect.add_argument("--n-max", type=int, default=8,
                          help=f"iterate exponent in [0, {N_MAX_LIMIT}]: records distances at powers 2^0..2^n (default: 8)")
    p_defect.set_defaults(run=_cmd_defect)

    p_dec = sub.add_parser("decompose", parents=[model, run, samples], help="decomposition residuals for one map")
    p_dec.add_argument("--depth", type=_positive_int, default=4, help="composition depth (default: 4)")
    p_dec.set_defaults(run=_cmd_decompose)
    return parser


def _load_model(args: argparse.Namespace) -> GgvModel:
    if args.config:
        flags = [flag for flag, value in (("--model", args.model), ("--dim", args.dim), ("--s", args.s))
                 if value is not None]
        if flags:
            raise UsageError(f"--config cannot be combined with {', '.join(flags)}")
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                cfg = ModelConfig.from_json(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        cfg = ModelConfig(kind=args.model or "einstein", dim=args.dim or 2, s=args.s or 1.0)
    return make_model(cfg)


# ---------------------------------------------------------------------------
# Expression mini-language: flat prefix notation over the operation names.
# ---------------------------------------------------------------------------

def _parse_point(m: GgvModel, token: str) -> GyroPoint:
    try:
        coords = [float(part) for part in token.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse point {token!r}") from exc
    if len(coords) != m.config.dim:
        raise UsageError(f"point {token!r} has {len(coords)} coordinates, model expects {m.config.dim}")
    return make_point(m, coords)


def _parse_scalar(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise UsageError(f"cannot parse number {token!r}") from exc


# Each operation: its argument kinds ("p" a point, "r" a real) and the
# function that evaluates it.
_OPERATIONS = {
    "oplus": ("pp", lambda m, a, b: oplus(m.group, a, b)),
    "ominus": ("p", lambda m, a: ominus(m.group, a)),
    "gyr": ("ppp", lambda m, u, v, a: gyr_apply(m.group, u, v, a)),
    "coplus": ("pp", lambda m, a, b: coplus(m.group, a, b)),
    "otimes": ("rp", otimes),
    "gnorm": ("p", gnorm),
    "gyrometric": ("pp", gyrometric),
    "midpoint": ("pp", gyromidpoint),
    "metric": ("pp", metric_distance),
    "linearize": ("r", lambda m, A: linearize(m.nvs, A)),
    "delinearize": ("r", lambda m, t: delinearize(m.nvs, t)),
    "nvadd": ("rr", lambda m, A, B: nv_add(m.nvs, A, B)),
    "nvsmul": ("rr", lambda m, r, A: nv_smul(m.nvs, r, A)),
}


def evaluate_expression(m: GgvModel, expr: str) -> str:
    """Evaluate a flat prefix expression and render the result."""
    tokens = expr.split()
    if not tokens:
        raise UsageError("empty expression")
    op, args = tokens[0], tokens[1:]
    if op not in _OPERATIONS:
        raise UsageError(f"unknown operation {op!r}")
    kinds, evaluate = _OPERATIONS[op]
    if len(args) != len(kinds):
        raise UsageError(f"{op!r} expects {len(kinds)} arguments, got {len(args)}")
    values = [_parse_point(m, t) if kind == "p" else _parse_scalar(t) for kind, t in zip(kinds, args)]
    value = evaluate(m, *values)
    numbers = value.coords if isinstance(value, GyroPoint) else (value,)
    text = ",".join(f"{x:.12g}" for x in numbers)
    # The library returns IEEE values, overflow included; the CLI prints only finite ones.
    if not all(map(math.isfinite, numbers)):
        raise DomainError(f"{op!r} leaves the finite doubles: it evaluates to {text}")
    return text


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------

def _report(m: GgvModel, args: argparse.Namespace, passed: bool, **fields) -> int:
    """Write the JSON report of a verification command, made of the run's
    settings and ``fields``, to stdout or ``--output``; return its exit code."""
    report = {"command": args.command, "model": m.config.to_dict(), "seed": args.seed,
              "tolerance": args.tolerance, "timestamp": datetime.now(timezone.utc).isoformat(),
              "pass": passed, **fields}
    if "samples" in args:
        report["samples"] = args.samples
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report {args.output!r}: {exc}") from exc
    else:
        print(text)
    return 0 if passed else 1


def _cmd_eval(m: GgvModel, args: argparse.Namespace) -> int:
    print(evaluate_expression(m, args.expr))
    return 0


def _cmd_verify_axioms(m: GgvModel, args: argparse.Namespace) -> int:
    reports = run_all(m, seed=args.seed, samples=args.samples, tolerance=args.tolerance)
    return _report(m, args, all(r.passed for r in reports), results=[r.to_dict() for r in reports])


def _cmd_verify_mazur_ulam(m: GgvModel, args: argparse.Namespace) -> int:
    rng = random.Random(f"{args.seed}:mazur-ulam")
    results = []
    for index in range(args.maps):
        depth = rng.randint(1, args.max_depth)
        map_seed = args.seed + index
        T = random_isometry(m, map_seed, depth, tolerance=args.tolerance)
        midpoint = verify_midpoint_preservation(T, args.samples, map_seed, args.tolerance)
        decomposition = decompose_mazur_ulam(T, args.samples, map_seed, args.tolerance)
        results.append(
            {
                "map_seed": map_seed,
                "depth": depth,
                "recipe": [step["kind"] for step in T.recipe],
                "midpoint": midpoint.to_dict(),
                "decomposition": decomposition.to_dict(),
            }
        )
    passed = all(r["midpoint"]["pass"] and r["decomposition"]["pass"] for r in results)
    return _report(m, args, passed, maps=args.maps, max_depth=args.max_depth, results=results)


def _cmd_defect(m: GgvModel, args: argparse.Namespace) -> int:
    if not 0 <= args.n_max <= N_MAX_LIMIT:
        raise UsageError(f"--n-max must be in [0, {N_MAX_LIMIT}], got {args.n_max}")
    T = random_isometry(m, args.seed, args.depth, tolerance=args.tolerance)
    rng = random.Random(f"{args.seed}:defect-points")
    x1, x2 = sample_point(m, rng, 0.7), sample_point(m, rng, 0.7)
    trace = defect_experiment(T, x1, x2, args.n_max, args.tolerance)
    return _report(m, args, trace.passed, depth=args.depth, n_max=args.n_max, x1=list(x1.coords),
                   x2=list(x2.coords), result=trace.to_dict())


def _cmd_decompose(m: GgvModel, args: argparse.Namespace) -> int:
    T = random_isometry(m, args.seed, args.depth, tolerance=args.tolerance)
    report = decompose_mazur_ulam(T, args.samples, args.seed, args.tolerance)
    return _report(m, args, report.passed, depth=args.depth, recipe=[step["kind"] for step in T.recipe],
                   result=report.to_dict())


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first request, not at import, and reused by every later one.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(_load_model(args), args)
    except (UsageError, ConfigError, DomainError, SamplingError) as exc:
        print(f"ggv: error: {exc}", file=sys.stderr)
        return 2
    except GgvError as exc:
        print(f"ggv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

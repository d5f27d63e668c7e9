"""Command-line front end.

Subcommands:

* ``eval``: evaluate one operation in a chosen model, flat prefix syntax,
  e.g. ``ggv eval --model pathological --expr "oplus 2 3"``.
* ``verify-axioms``: run the full seeded property suite for one model.
* ``verify-mazur-ulam``: generate random gyrometric-preserving maps and check
  midpoint preservation plus the translation/isomorphism decomposition.
* ``defect``: run the doubling-iteration defect experiment for one map.
* ``decompose``: report the decomposition residuals for one map.

All verification subcommands emit a JSON report (stdout or ``--output``) that
is byte-identical for identical commands and seeds, apart from the timestamp
field.  Exit status is 0 when every check passes, 1 on a verification
failure, and 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from datetime import datetime, timezone
from typing import Sequence

from .errors import ConfigError, DomainError, GgvError
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
from .verify import run_all


class UsageError(Exception):
    """Bad command usage that should exit with status 2."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=KINDS, default="einstein", help="model kind (default: einstein)")
    common.add_argument("--dim", type=_positive_int, default=2, help="ambient dimension (default: 2)")
    common.add_argument("--s", type=_positive_float, default=1.0, help="ball radius (default: 1)")
    common.add_argument("--config", metavar="PATH", help="JSON model config file; overrides the model flags")
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling (default: 0)")
    common.add_argument("--samples", type=_positive_int, default=1000,
                        help="samples per property (default: 1000)")
    common.add_argument("--tolerance", type=_positive_float, default=DEFAULT_TOLERANCE,
                        help=f"residual tolerance (default: {DEFAULT_TOLERANCE:g})")
    common.add_argument("--output", metavar="PATH", help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(prog="ggv", description="Generalized gyrovector space toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate one operation")
    p_eval.add_argument("--expr", required=True,
                        help='flat prefix expression, e.g. "oplus 2 3" or "midpoint 0.3,0 0,0.4"')

    sub.add_parser("verify-axioms", parents=[common], help="run the full axiom and identity suite")

    p_mu = sub.add_parser("verify-mazur-ulam", parents=[common],
                          help="midpoint preservation and decomposition for random maps")
    p_mu.add_argument("--maps", type=_positive_int, default=50, help="number of random maps (default: 50)")
    p_mu.add_argument("--max-depth", type=_positive_int, default=6,
                      help="maximum composition depth (default: 6)")

    p_defect = sub.add_parser("defect", parents=[common], help="defect doubling experiment for one map")
    p_defect.add_argument("--depth", type=_positive_int, default=4, help="composition depth (default: 4)")
    p_defect.add_argument("--n-max", type=int, default=8,
                          help=f"iterate exponent in [0, {N_MAX_LIMIT}]: records distances at powers 2^0..2^n (default: 8)")

    p_dec = sub.add_parser("decompose", parents=[common], help="decomposition residuals for one map")
    p_dec.add_argument("--depth", type=_positive_int, default=4, help="composition depth (default: 4)")
    return parser


def _load_model(args: argparse.Namespace) -> GgvModel:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                cfg = ModelConfig.from_json(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        cfg = ModelConfig(kind=args.model, dim=args.dim, s=args.s)
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


def _format_value(value) -> str:
    if isinstance(value, GyroPoint):
        return ",".join(f"{c:.12g}" for c in value.coords)
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def evaluate_expression(m: GgvModel, expr: str) -> str:
    """Evaluate a flat prefix expression and render the result."""
    tokens = expr.split()
    if not tokens:
        raise UsageError("empty expression")
    op, args = tokens[0], tokens[1:]
    g = m.group

    def need(count: int) -> None:
        if len(args) != count:
            raise UsageError(f"{op!r} expects {count} arguments, got {len(args)}")

    if op == "oplus":
        need(2)
        return _format_value(oplus(g, _parse_point(m, args[0]), _parse_point(m, args[1])))
    if op == "ominus":
        need(1)
        return _format_value(ominus(g, _parse_point(m, args[0])))
    if op == "gyr":
        need(3)
        return _format_value(gyr_apply(g, *(_parse_point(m, t) for t in args)))
    if op == "coplus":
        need(2)
        return _format_value(coplus(g, _parse_point(m, args[0]), _parse_point(m, args[1])))
    if op == "otimes":
        need(2)
        return _format_value(otimes(m, _parse_scalar(args[0]), _parse_point(m, args[1])))
    if op == "gnorm":
        need(1)
        return _format_value(gnorm(m, _parse_point(m, args[0])))
    if op == "gyrometric":
        need(2)
        return _format_value(gyrometric(m, _parse_point(m, args[0]), _parse_point(m, args[1])))
    if op == "midpoint":
        need(2)
        return _format_value(gyromidpoint(m, _parse_point(m, args[0]), _parse_point(m, args[1])))
    if op == "metric":
        need(2)
        return _format_value(metric_distance(m, _parse_point(m, args[0]), _parse_point(m, args[1])))
    if op == "linearize":
        need(1)
        return _format_value(linearize(m.nvs, _parse_scalar(args[0])))
    if op == "delinearize":
        need(1)
        return _format_value(delinearize(m.nvs, _parse_scalar(args[0])))
    if op == "nvadd":
        need(2)
        return _format_value(nv_add(m.nvs, _parse_scalar(args[0]), _parse_scalar(args[1])))
    if op == "nvsmul":
        need(2)
        return _format_value(nv_smul(m.nvs, _parse_scalar(args[0]), _parse_scalar(args[1])))
    raise UsageError(f"unknown operation {op!r}")


# ---------------------------------------------------------------------------
# Report plumbing.
# ---------------------------------------------------------------------------

def _emit_report(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _base_report(command: str, m: GgvModel, args: argparse.Namespace) -> dict:
    return {
        "command": command,
        "model": m.config.to_dict(),
        "seed": args.seed,
        "samples": args.samples,
        "tolerance": args.tolerance,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _cmd_verify_axioms(m: GgvModel, args: argparse.Namespace) -> int:
    reports = run_all(m, seed=args.seed, samples=args.samples, tolerance=args.tolerance)
    document = _base_report("verify-axioms", m, args)
    document["results"] = [r.to_dict() for r in reports]
    document["pass"] = all(r.passed for r in reports)
    _emit_report(document, args.output)
    return 0 if document["pass"] else 1


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
    document = _base_report("verify-mazur-ulam", m, args)
    document["maps"] = args.maps
    document["max_depth"] = args.max_depth
    document["results"] = results
    document["pass"] = all(r["midpoint"]["pass"] and r["decomposition"]["pass"] for r in results)
    _emit_report(document, args.output)
    return 0 if document["pass"] else 1


def _cmd_defect(m: GgvModel, args: argparse.Namespace) -> int:
    if not 0 <= args.n_max <= N_MAX_LIMIT:
        raise UsageError(f"--n-max must be in [0, {N_MAX_LIMIT}], got {args.n_max}")
    T = random_isometry(m, args.seed, args.depth, tolerance=args.tolerance)
    rng = random.Random(f"{args.seed}:defect-points")
    x1, x2 = sample_point(m, rng, 0.7), sample_point(m, rng, 0.7)
    trace = defect_experiment(T, x1, x2, args.n_max, args.tolerance)
    document = _base_report("defect", m, args)
    document["depth"] = args.depth
    document["n_max"] = args.n_max
    document["x1"] = list(x1.coords)
    document["x2"] = list(x2.coords)
    document["result"] = trace.to_dict()
    document["pass"] = trace.passed
    _emit_report(document, args.output)
    return 0 if trace.passed else 1


def _cmd_decompose(m: GgvModel, args: argparse.Namespace) -> int:
    T = random_isometry(m, args.seed, args.depth, tolerance=args.tolerance)
    report = decompose_mazur_ulam(T, args.samples, args.seed, args.tolerance)
    document = _base_report("decompose", m, args)
    document["depth"] = args.depth
    document["recipe"] = [step["kind"] for step in T.recipe]
    document["result"] = report.to_dict()
    document["pass"] = report.passed
    _emit_report(document, args.output)
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        m = _load_model(args)
        if args.command == "eval":
            print(evaluate_expression(m, args.expr))
            return 0
        if args.command == "verify-axioms":
            return _cmd_verify_axioms(m, args)
        if args.command == "verify-mazur-ulam":
            return _cmd_verify_mazur_ulam(m, args)
        if args.command == "defect":
            return _cmd_defect(m, args)
        if args.command == "decompose":
            return _cmd_decompose(m, args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ConfigError, DomainError) as exc:
        print(f"ggv: error: {exc}", file=sys.stderr)
        return 2
    except GgvError as exc:
        print(f"ggv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

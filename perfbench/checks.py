"""Output checks for the benchmark's requests.

A request fails on a nonzero exit code or on any problem found here.  The
checks never trust a report's own ``pass`` flag: every residual must be a
finite number within the tolerance (``run_check`` reduces with ``max``, which
drops NaN, so ``pass`` alone can be wrong), and the values that can be
recomputed are recomputed with the 50-digit oracle.
"""

from __future__ import annotations

import json
import math
import random

from ggv import (
    GgvError,
    ModelConfig,
    gyr_apply,
    gyromidpoint,
    make_model,
    make_point,
    metric_distance,
    oplus,
    otimes,
    random_isometry,
)
from oracle import Oracle, to_floats
from workloads import EXPECTED_CHECKS, TOLERANCE

# Seeded kernel calls compared with the oracle per verify-axioms request.
KERNEL_SAMPLES = 4
# Seeded point pairs per rebuilt map.
MAP_PAIRS = 3
DECOMPOSITION_RESIDUALS = (
    "additivity_residual",
    "homogeneity_residual",
    "isometry_residual",
    "dyadic_residual",
    "coaddition_residual",
)
# Errors a deliberately broken kernel can raise inside a check: ggv rejecting
# a point, or the oracle leaving the reals (artanh of a norm beyond the ball).
_BROKEN = (GgvError, ArithmeticError, TypeError, ValueError)


def payload(stdout: str) -> dict:
    """A report without its timestamp: the part that must be deterministic."""
    doc = json.loads(stdout)
    doc.pop("timestamp", None)
    return doc


def model_of(kind: str, dim: int):
    return make_model(ModelConfig(kind, dim))


def draw_point(m, rng: random.Random):
    """A carrier point drawn by the benchmark itself, not by ``ggv.sampling``.

    Ball points stay within 0.9 s, the margin of the program's own checks.
    """
    cfg = m.config
    if cfg.kind == "pathological":
        x = rng.uniform(0.01, 5.0) * rng.choice((-1.0, 1.0))
        return make_point(m, [math.exp(x) if x >= 0.0 else -math.exp(-x)])
    if cfg.kind == "normed":
        return make_point(m, [rng.uniform(-3.0, 3.0) for _ in range(cfg.dim)])
    direction = [rng.gauss(0.0, 1.0) for _ in range(cfg.dim)]
    n = math.sqrt(sum(x * x for x in direction))
    radius = cfg.s * 0.9 * rng.random() ** (1.0 / cfg.dim)
    return make_point(m, [radius * x / n for x in direction])


def _within(problems: list[str], label: str, value, limit: float) -> None:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and value <= limit
    if not (ok and math.isfinite(value)):
        problems.append(f"{label} = {value!r} is not a finite number <= {limit!r}")


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label} = {got!r}, expected {want!r}")


def _header_problems(req, doc: dict) -> list[str]:
    problems: list[str] = []
    _expect(problems, "command", doc.get("command"), req.command)
    model = doc.get("model", {})
    _expect(problems, "model", (model.get("kind"), model.get("dim"), model.get("s")), (req.kind, req.dim, 1.0))
    _expect(problems, "seed", doc.get("seed"), req.seed)
    _expect(problems, "tolerance", doc.get("tolerance"), TOLERANCE)
    _expect(problems, "pass", doc.get("pass"), True)
    return problems


# ---------------------------------------------------------------------------
# axiom_suite
# ---------------------------------------------------------------------------

def axiom_report_problems(req, doc: dict) -> list[str]:
    problems = _header_problems(req, doc)
    samples = req.option("--samples")
    _expect(problems, "samples", doc.get("samples"), samples)
    results = doc.get("results", [])
    names = [r.get("property") for r in results]
    missing = [name for name in EXPECTED_CHECKS if name not in names]
    if missing:
        problems.append(f"checks missing from the report: {missing}")
    if len(set(names)) != len(names):
        problems.append("a check is reported twice")
    for r in results:
        name = r.get("property")
        _expect(problems, f"{name}.samples", r.get("samples"), samples)
        _expect(problems, f"{name}.tolerance", r.get("tolerance"), TOLERANCE)
        _within(problems, f"{name}.max_residual", r.get("max_residual"), TOLERANCE)
        _expect(problems, f"{name}.pass", r.get("pass"), True)
    return problems


def kernel_problems(m, rng: random.Random) -> list[str]:
    """Compare ``KERNEL_SAMPLES`` seeded calls of each public kernel of ``m`` with the oracle."""
    o = Oracle(m.config.kind, m.config.s)
    g = m.group
    problems: list[str] = []
    for _ in range(KERNEL_SAMPLES):
        a, b, c = (draw_point(m, rng) for _ in range(3))
        r = rng.uniform(-2.0, 2.0)
        cases = (
            ("oplus", lambda: oplus(g, a, b).coords, lambda: o.add(a.coords, b.coords)),
            ("gyr", lambda: gyr_apply(g, a, b, c).coords, lambda: o.gyr(a.coords, b.coords, c.coords)),
            ("otimes", lambda: otimes(m, r, a).coords, lambda: o.otimes(r, a.coords)),
            ("gyromidpoint", lambda: gyromidpoint(m, a, b).coords, lambda: o.midpoint(a.coords, b.coords)),
        )
        for name, got, want in cases:
            try:
                gap = float(o.distance(got(), want()))
            except _BROKEN as exc:
                gap = f"{type(exc).__name__}: {exc}"
            _within(problems, f"{m.tag} {name} gap to oracle", gap, TOLERANCE)
        try:
            gap = abs(metric_distance(m, a, b) - float(o.distance(a.coords, b.coords)))
        except _BROKEN as exc:
            gap = f"{type(exc).__name__}: {exc}"
        _within(problems, f"{m.tag} metric_distance gap to oracle", gap, TOLERANCE)
    return problems


def check_axiom_request(req, doc: dict) -> list[str]:
    m = model_of(req.kind, req.dim)
    return axiom_report_problems(req, doc) + kernel_problems(m, random.Random(f"oracle:{req.seed}"))


# ---------------------------------------------------------------------------
# mazur_ulam_maps
# ---------------------------------------------------------------------------

def mazur_report_problems(req, doc: dict) -> list[str]:
    problems = _header_problems(req, doc)
    samples, maps, max_depth = req.option("--samples"), req.option("--maps"), req.option("--max-depth")
    _expect(problems, "samples", doc.get("samples"), samples)
    _expect(problems, "maps", doc.get("maps"), maps)
    _expect(problems, "max_depth", doc.get("max_depth"), max_depth)
    results = doc.get("results", [])
    _expect(problems, "number of results", len(results), maps)
    for index, r in enumerate(results):
        label = f"map {index}"
        _expect(problems, f"{label} map_seed", r.get("map_seed"), req.seed + index)
        if r.get("depth") not in range(1, max_depth + 1):
            problems.append(f"{label} depth {r.get('depth')!r} outside 1..{max_depth}")
        midpoint = r.get("midpoint", {})
        _expect(problems, f"{label} midpoint.samples", midpoint.get("samples"), samples)
        _within(problems, f"{label} midpoint.max_residual", midpoint.get("max_residual"), TOLERANCE)
        _expect(problems, f"{label} midpoint.pass", midpoint.get("pass"), True)
        decomposition = r.get("decomposition", {})
        for key in DECOMPOSITION_RESIDUALS:
            _within(problems, f"{label} {key}", decomposition.get(key), TOLERANCE)
        _expect(problems, f"{label} decomposition.pass", decomposition.get("pass"), True)
    return problems


def map_problems(m, T, entry: dict, rng: random.Random) -> list[str]:
    """Check a rebuilt map against one ``verify-mazur-ulam`` result entry.

    ``T(e)`` must be the reported translation part, and ``T`` must preserve
    the oracle distance and map oracle midpoints to oracle midpoints.
    """
    o = Oracle(m.config.kind, m.config.s)
    problems: list[str] = []
    label = f"{m.tag} map {entry.get('map_seed')}"
    _expect(problems, f"{label} recipe", [step["kind"] for step in T.recipe], entry.get("recipe"))
    reported = entry.get("decomposition", {}).get("translation_part")
    try:
        gap = float(o.distance(T.apply(m.identity).coords, reported))
    except _BROKEN as exc:
        gap = f"{type(exc).__name__}: {exc}"
    _within(problems, f"{label} T(e) gap to translation_part", gap, TOLERANCE)
    for _ in range(MAP_PAIRS):
        a, b = draw_point(m, rng), draw_point(m, rng)
        try:
            ta, tb = T.apply(a).coords, T.apply(b).coords
            stretch = float(abs(o.distance(ta, tb) - o.distance(a.coords, b.coords)))
            mid = make_point(m, to_floats(o.midpoint(a.coords, b.coords)))
            mid_gap = float(o.distance(T.apply(mid).coords, o.midpoint(ta, tb)))
        except _BROKEN as exc:
            stretch = mid_gap = f"{type(exc).__name__}: {exc}"
        _within(problems, f"{label} distance change", stretch, TOLERANCE)
        _within(problems, f"{label} midpoint image gap", mid_gap, TOLERANCE)
    return problems


def check_mazur_request(req, doc: dict) -> list[str]:
    problems = mazur_report_problems(req, doc)
    if problems:
        return problems
    m = model_of(req.kind, req.dim)
    rng = random.Random(f"oracle:{req.seed}")
    for entry in doc["results"]:
        try:
            T = random_isometry(m, entry["map_seed"], entry["depth"])
        except GgvError as exc:
            problems.append(f"map {entry['map_seed']} cannot be rebuilt: {exc}")
            continue
        problems += map_problems(m, T, entry, rng)
    return problems


# ---------------------------------------------------------------------------
# defect_chain
# ---------------------------------------------------------------------------

def check_defect_request(req, doc: dict) -> list[str]:
    problems = _header_problems(req, doc)
    n_max = req.option("--n-max")
    _expect(problems, "depth", doc.get("depth"), req.option("--depth"))
    _expect(problems, "n_max", doc.get("n_max"), n_max)
    result = doc.get("result", {})
    _within(problems, "defect", result.get("defect"), TOLERANCE)
    _within(problems, "fixed_point_residual", result.get("fixed_point_residual"), TOLERANCE)
    bound = result.get("bound")
    o = Oracle(req.kind)
    try:
        want = 2 * o.distance(doc["x1"], o.midpoint(doc["x1"], doc["x2"]))
        gap = float(abs(want - bound))
    except (KeyError, *_BROKEN) as exc:
        gap = f"{type(exc).__name__}: {exc}"
    _within(problems, "bound gap to oracle 2 d(x1, P(x1, x2))", gap, TOLERANCE)
    iterates = result.get("iterates", [])
    _expect(problems, "number of iterates", len(iterates), n_max + 1)
    if isinstance(bound, float) and math.isfinite(bound):
        for n, value in enumerate(iterates):
            _within(problems, f"iterate {n}", value, bound + TOLERANCE)
    return problems


_BY_COMMAND = {
    "verify-axioms": check_axiom_request,
    "verify-mazur-ulam": check_mazur_request,
    "defect": check_defect_request,
}


def request_problems(req, rc, stdout: str, stderr: str) -> list[str]:
    """Everything wrong with one finished request; empty when it succeeded."""
    if rc != 0:
        return [f"exit code {rc!r}: {stderr.strip()[-400:]}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"]
    return _BY_COMMAND[req.command](req, doc)

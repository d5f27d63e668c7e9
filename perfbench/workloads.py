"""The three benchmark workloads and the CLI requests they are made of.

A *request* is one ``ggv`` CLI invocation.  A workload runs in *rounds*: one
round is the same five request shapes, with CLI ``--seed`` values derived from
the workload seed and the round index, so every run attempts whole rounds.
The shapes are sized so that their requests take about the same time; with
five of them the median request then lies inside one dense cluster of wall
times instead of on the gap between a cheap and a dear cluster.

An *item* is the workload's unit of work and is fixed by the request, not by
how the program computes it: one property sample (a check times a sample) in
``axiom_suite``, one verified map in ``mazur_ulam_maps`` and one doubling step
``S`` in ``defect_chain``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The package tolerance; every request runs at the CLI default.
TOLERANCE = 1e-9

# Checks the full suite must report, by the names ``verify-axioms`` prints:
# the nine GGV axioms, the gyrogroup laws, the unit and scalar facts, the
# gyrometric and metric properties and the order machinery.
EXPECTED_CHECKS = (
    "GGV0", "GGV1", "GGV2", "GGV3", "GGV4", "GGV5", "GGV6", "GGV7", "GGV8",
    "unit_laws", "left_cancellation", "gyrocommutativity", "gyroautomorphism",
    "left_loop", "gyration_inversion", "gyr_matches_composition", "coaddition_commutes",
    "unit_norm_is_zero", "scalars_fix_unit", "zero_scalar_gives_unit", "negation_is_inverse",
    "nonzero_scaling_keeps_nonunit", "nonunit_norm_positive", "scalar_norm_cancellation",
    "phi_injective",
    "gyrometric_invariance", "gyrotriangle", "midpoint_equidistant", "midpoint_forms_agree",
    "midpoint_symmetric",
    "metric_self_zero", "metric_nonnegative", "metric_symmetric", "metric_triangle",
    "metric_separates", "metric_matches_linearized_gyrometric",
    "scaling_order_equivalence", "linear_additive", "linear_homogeneous", "linear_order",
    "order_sum_monotone", "linearization_round_trip", "zero_linearizes_to_zero",
)

# CLI seeds are drawn below this so that ``map_seed = seed + index`` stays an int31.
_SEED_SPAN = 2 ** 31 - 1024

Options = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the number of items it completes."""

    command: str
    kind: str
    dim: int
    seed: int
    options: Options
    items: int

    def argv(self) -> list[str]:
        argv = [self.command, "--model", self.kind, "--dim", str(self.dim), "--seed", str(self.seed)]
        for flag, value in self.options:
            argv += [flag, str(value)]
        return argv

    def option(self, flag: str) -> int:
        return dict(self.options)[flag]


@dataclass(frozen=True)
class Workload:
    """``shapes`` are ``(kind, dim, overrides)``: each overrides ``options``."""

    name: str
    command: str
    shapes: tuple[tuple[str, int, Options], ...]
    options: Options
    warmup_options: Options

    def items(self, options: Options) -> int:
        values = dict(options)
        if self.command == "verify-axioms":
            return values["--samples"] * len(EXPECTED_CHECKS)
        if self.command == "verify-mazur-ulam":
            return values["--maps"]
        return 2 ** values["--n-max"]

    def round(self, seed: int, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        requests = []
        for kind, dim, overrides in self.shapes:
            options = tuple({**dict(self.options), **dict(overrides)}.items())
            requests.append(Request(self.command, kind, dim, rng.randrange(_SEED_SPAN), options, self.items(options)))
        return requests

    def warmup(self) -> list[Request]:
        """Small requests of every shape, run untimed so lazy imports settle."""
        items = self.items(self.warmup_options)
        return [Request(self.command, kind, dim, 0, self.warmup_options, items) for kind, dim, _ in self.shapes]


WORKLOADS = {
    w.name: w
    for w in (
        # The four canonical models at dim 2, s = 1; Mobius, the model of the
        # batched hyperbolic layers, twice, and the cheaper normed and
        # pathological models at twice the samples.  No GyroMap is built here.
        Workload(
            "axiom_suite",
            "verify-axioms",
            (("normed", 2, (("--samples", 200),)), ("einstein", 2, ()), ("mobius", 2, ()),
             ("pathological", 1, (("--samples", 200),)), ("mobius", 2, ())),
            (("--samples", 100),),
            (("--samples", 2),),
        ),
        # All four kinds, two ball models above dimension 2; each map is
        # built, checked for preservation three times and decomposed.  The
        # cheaper normed and pathological maps come four to a request.
        Workload(
            "mazur_ulam_maps",
            "verify-mazur-ulam",
            (("normed", 2, (("--maps", 4),)), ("einstein", 3, ()), ("mobius", 2, ()), ("mobius", 3, ()),
             ("pathological", 1, (("--maps", 4),))),
            (("--maps", 2), ("--samples", 100), ("--max-depth", 6)),
            (("--maps", 1), ("--samples", 2), ("--max-depth", 2)),
        ),
        # One map per request and 2^13 sequential doubling steps on a single
        # evolving point, 2^14 on the cheaper normed and pathological models:
        # nothing here can be batched.  Depth 2, because from depth 3 on an
        # occasional ball-model seed fails its fixed-point check by rounding
        # alone, and a workload must not fail on some seeds only.
        Workload(
            "defect_chain",
            "defect",
            (("normed", 2, (("--n-max", 14),)), ("einstein", 2, ()), ("mobius", 2, ()), ("mobius", 3, ()),
             ("pathological", 1, (("--n-max", 14),))),
            (("--depth", 2), ("--n-max", 13)),
            (("--depth", 2), ("--n-max", 2)),
        ),
    )
}

"""Spans around the calls into each layer of ``ggv``, recorded from outside.

Nothing in the program is edited.  While a :class:`Tracer` is attached it
replaces, in the namespace of every ``ggv`` module, each traced public
function by a wrapper, so calls between modules (``verify`` calling
``gyrogroup.oplus``, ``isometry`` calling ``space.metric_distance``) pass
through the wrapper too.  Models returned by ``make_model`` get their bundle
callables (``add``, ``inv``, ``gyr``, ``validate``, ``otimes``, ``distance``)
wrapped, and maps returned by ``compose_maps`` their ``apply`` and
``inverse_apply``.  Detaching restores every original.

A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

# Public functions traced per module.  ``verify.run_group`` is traced under
# the name of its group, ``models.make_model`` wraps the model it returns and
# ``isometry.compose_maps`` the map it returns.
TRACED = {
    "gyrogroup": ("oplus", "ominus", "gyr_apply", "gyr_via_composition", "coplus"),
    "space": ("otimes", "gnorm", "gyrometric", "gyromidpoint", "metric_distance", "nv_add",
              "nv_smul", "linearize", "delinearize", "nv_le_nonneg"),
    "sampling": ("sample_point", "sample_point_away_from_identity", "sample_separated_pair",
                 "sample_scalar", "sample_scalar_away_from"),
    "isometry": ("random_isometry", "verify_midpoint_preservation", "decompose_mazur_ulam",
                 "defect_experiment", "map_preservation_residual"),
    "verify": ("run_all", "run_check"),
    "cli": ("main",),
}
VERIFY_GROUPS = ("axioms", "gyrogroup", "scalars", "gyrometric", "metric", "order")
_REJECTION_SAMPLERS = {"sampling.sample_point_away_from_identity": 1, "sampling.sample_separated_pair": 2}


class Tracer:
    """Call counts, inclusive and self times per span name, and caller edges."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.edges: Counter[tuple[str, str]] = Counter()
        self.clamps = 0
        self._stack: list[list] = []  # [name, time covered by children]

    def wrap(self, name, fn):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's arguments."""
        stack, calls, total, self_time, edges = self._stack, self.calls, self.total, self.self_time, self.edges

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args, **kwargs)
            edges[(stack[-1][0] if stack else "", span)] += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[span] += 1
                total[span] += elapsed
                self_time[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _wrap_model(self, m):
        g = m.group
        group = replace(
            g,
            add=self.wrap("models.add", g.add),
            inv=self.wrap("models.inv", g.inv),
            gyr=self.wrap("models.gyr", g.gyr),
            validate=self.wrap("models.validate", g.validate),
        )
        distance = None if m.distance is None else self.wrap("models.distance", m.distance)
        return replace(m, group=group, otimes=self.wrap("models.otimes", m.otimes), distance=distance)

    def _wrap_map(self, T):
        return replace(
            T,
            apply=self.wrap("isometry.map_apply", T.apply),
            inverse_apply=self.wrap("isometry.map_apply", T.inverse_apply),
        )

    def _count_clamp(self, message, category, *args, **kwargs):
        if issubclass(category, self._clamp_category):
            self.clamps += 1
        else:
            self._showwarning(message, category, *args, **kwargs)

    @contextmanager
    def attached(self):
        """Trace every ``ggv`` module already imported; restore them on exit."""
        import ggv
        from ggv import isometry, models, verify

        modules = [mod for key, mod in sys.modules.items() if key == "ggv" or key.startswith("ggv.")]
        wrappers = {}
        for module, names in TRACED.items():
            source = sys.modules[f"ggv.{module}"]
            for fname in names:
                wrappers[getattr(source, fname)] = self.wrap(f"{module}.{fname}", getattr(source, fname))
        wrappers[verify.run_group] = self.wrap(lambda m, group, *a, **k: f"verify.{group}", verify.run_group)
        make_model, compose_maps = models.make_model, isometry.compose_maps
        wrappers[make_model] = self.wrap("models.make_model", lambda cfg: self._wrap_model(make_model(cfg)))
        wrappers[compose_maps] = lambda maps: self._wrap_map(compose_maps(maps))

        patched = []
        self._clamp_category = ggv.BoundaryClampWarning
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in wrappers:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrappers[value])
            with warnings.catch_warnings():
                warnings.simplefilter("always", self._clamp_category)
                self._showwarning = warnings.showwarning
                warnings.showwarning = self._count_clamp
                yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    # -----------------------------------------------------------------------
    # Per-layer metrics.
    # -----------------------------------------------------------------------

    def _sum(self, table, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; counts and times per item."""
        calls, total, self_time = self.calls, self.total, self.self_time
        out: dict[str, tuple[float, str]] = {}

        def per_item(name: str, value: float, unit: str) -> None:
            out[name] = (value / items, unit)

        for op in ("add", "gyr", "otimes", "distance"):
            per_item(f"models.{op}.calls", calls[f"models.{op}"], "1/item")
            per_item(f"models.{op}.self_s", self_time[f"models.{op}"], "s/item")
        per_item("models.inv.calls", calls["models.inv"], "1/item")
        per_item("models.validate.calls", calls["models.validate"], "1/item")
        per_item("models.validate.self_s", self_time["models.validate"], "s/item")
        per_item("models.clamp.count", self.clamps, "1/item")

        for op in ("oplus", "ominus", "gyr_apply", "coplus"):
            per_item(f"gyrogroup.{op}.calls", calls[f"gyrogroup.{op}"], "1/item")
        per_item("gyrogroup.self_s", self._sum(self_time, "gyrogroup."), "s/item")

        for op in ("otimes", "gnorm", "gyrometric", "gyromidpoint", "metric_distance"):
            per_item(f"space.{op}.calls", calls[f"space.{op}"], "1/item")
        per_item("space.self_s", self._sum(self_time, "space."), "s/item")

        # A point handed out by a rejection sampler counts once however many
        # raw draws it took; every raw draw is an attempt.
        attempts = calls["sampling.sample_point"]
        inner = sum(self.edges[(outer, "sampling.sample_point")] for outer in _REJECTION_SAMPLERS)
        points = attempts - inner + sum(k * calls[outer] for outer, k in _REJECTION_SAMPLERS.items())
        per_item("sampling.points", points, "1/item")
        per_item("sampling.attempts", attempts, "1/item")
        out["sampling.accept_ratio"] = (points / attempts if attempts else 1.0, "ratio")
        per_item("sampling.self_s", self._sum(self_time, "sampling."), "s/item")

        maps = calls["isometry.random_isometry"]
        per_item("isometry.map_apply.calls", calls["isometry.map_apply"], "1/item")
        per_item("isometry.preservation.calls", calls["isometry.map_preservation_residual"], "1/item")
        out["isometry.preservation_per_map"] = (
            calls["isometry.map_preservation_residual"] / maps if maps else 0.0, "1/map")
        per_item("isometry.preservation.s", total["isometry.map_preservation_residual"], "s/item")
        for short, fname in (("random_isometry", "random_isometry"), ("midpoint", "verify_midpoint_preservation"),
                             ("decompose", "decompose_mazur_ulam"), ("defect", "defect_experiment")):
            per_item(f"isometry.{short}.s", total[f"isometry.{fname}"], "s/item")

        per_item("verify.run_check.calls", calls["verify.run_check"], "1/item")
        per_item("verify.run_check.s", total["verify.run_check"], "s/item")
        for group in VERIFY_GROUPS:
            per_item(f"verify.{group}.s", total[f"verify.{group}"], "s/item")

        per_item("cli.main.s", total["cli.main"], "s/item")
        per_item("cli.overhead_s", self_time["cli.main"], "s/item")
        return out

    def table(self) -> dict[str, dict[str, float]]:
        """Raw span table: calls, inclusive and self seconds per span name."""
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }

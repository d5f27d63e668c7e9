"""Host-speed calibration for the benchmark's timings.

On a shared machine the interpreter's speed drifts by a quarter or more over
minutes, which swamps run-to-run comparisons.  :func:`calibration_seconds`
times a fixed pure-Python loop written in the style of the ``ggv`` kernels
(frozen dataclass points, tuple arithmetic, ``math`` calls) that never touches
``ggv``.  A timing multiplied by ``REFERENCE_S / calibration_seconds()``,
measured right next to it, is the time at the reference speed: the host's
drift cancels and only changes to ``ggv`` move it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

# The loop's time at the reference speed (about its median on the 2-core
# sandbox where the benchmark was written); it only sets the scale.
REFERENCE_S = 0.0125


@dataclass(frozen=True)
class _Point:
    tag: str
    coords: tuple


def calibration_seconds() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(4000):
        p = _Point("calibration", (i * 0.5, i * 0.25))
        q = tuple(a * 0.5 + b for a, b in zip(p.coords, p.coords))
        acc += math.sqrt(sum(x * x for x in q))
    elapsed = time.perf_counter() - start
    if not acc > 0.0:  # keeps the loop's work observable
        raise RuntimeError("calibration loop lost its work")
    return elapsed


def at_reference_speed(seconds: float, calibration: float) -> float:
    return seconds * REFERENCE_S / calibration

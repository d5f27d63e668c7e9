"""Benchmark of the ``ggv`` CLI, end to end or layer by layer.

    python3 perfbench/run.py --workload axiom_suite --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Requests go through ``ggv.cli.main``
in-process, with reports captured from stdout; one client sends each request
after the previous one returned (a closed loop), single-threaded, with BLAS
pinned to one thread.  Every output is checked after the timed phase.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median import time
of ``ggv`` and ``ggv.cli`` over fresh interpreters), ``throughput`` (items per
second), ``request_p50_ms`` and ``peak_rss_mb``.  Each time is taken at the
reference interpreter speed of :mod:`calibration`, from a calibration loop
timed after each request (the median over its round) and each import.
``--trace 1`` spends half the time on traced rounds and then replays the same
rounds untraced; it reports the per-layer metrics of the traced rounds and
the tracing overhead ``trace.overhead_pct`` between the two, and requires
both passes to print the same reports.  The last line of stdout is one JSON
object; the full record of the run, raw wall times included, is written
under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibration import at_reference_speed, calibration_seconds
from workloads import WORKLOADS, Request, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
SETUP_SAMPLES = 7
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import ggv, ggv.cli\n"
    "seconds = time.perf_counter() - start\n"
    "from calibration import calibration_seconds\n"
    "print(seconds, calibration_seconds())\n"
)

@dataclass
class Record:
    request: Request
    rc: object
    stdout: str
    stderr: str
    seconds: float
    calibration: float = 0.0

    @property
    def scaled(self) -> float:
        """Wall time at the reference interpreter speed."""
        return at_reference_speed(self.seconds, self.calibration)


def load_cli():
    """Import ``ggv.cli`` from this checkout's ``src``, never from elsewhere.

    BLAS is pinned to one thread first, for this process and the set-up
    interpreters it starts, since NumPy reads the setting when imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "ggv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ggv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ggv.cli

    if Path(ggv.__file__).resolve().parent != SRC / "ggv":
        sys.exit(f"perfbench: imported ggv from {ggv.__file__}, not from {SRC}")
    return ggv.cli


def measure_setup() -> tuple[float, float]:
    """Median time to import ``ggv`` and ``ggv.cli`` in a fresh interpreter.

    Returns the median at the reference speed and the raw median.
    """
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        seconds, calibration = (float(x) for x in done.stdout.split()[-2:])
        scaled.append(at_reference_speed(seconds, calibration))
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def invoke(cli, request: Request) -> Record:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(request.argv())
    except SystemExit as exc:  # argparse rejects usage this way
        rc = exc.code
    except Exception:  # a crash is a failed request, not a failed benchmark
        rc = "traceback"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return Record(request, rc, out.getvalue(), err.getvalue(), seconds)


def run_rounds(cli, workload: Workload, seed: int, *, seconds: float | None = None,
               rounds: int | None = None) -> tuple[list[Record], int]:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done.

    The calibration loop runs after every request, outside its timing, and
    every request of a round is scaled by the round's median calibration:
    one sample is noisy, and the host's speed drifts more slowly than a
    round takes.
    """
    records: list[Record] = []
    start = time.perf_counter()
    index = 0
    while True:
        batch, samples = [], []
        for request in workload.round(seed, index):
            batch.append(invoke(cli, request))
            samples.append(calibration_seconds())
        for record in batch:
            record.calibration = statistics.median(samples)
        records += batch
        index += 1
        elapsed = time.perf_counter() - start
        if (rounds is not None and index >= rounds) or (seconds is not None and elapsed >= seconds):
            return records, index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = load_cli()
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup()
    for request in workload.warmup():
        invoke(cli, request)

    run: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.attached():
            traced, rounds = run_rounds(cli, workload, args.seed, seconds=args.seconds / 2)
        replay, _ = run_rounds(cli, workload, args.seed, rounds=rounds)
        records = traced + replay
    else:
        records, rounds = run_rounds(cli, workload, args.seed, seconds=args.seconds)
        rss = peak_rss_mb()

    # Imported only now: mpmath stays out of the peak RSS of the timed phase.
    from checks import payload, request_problems

    problems = [request_problems(r.request, r.rc, r.stdout, r.stderr) for r in records]
    if args.trace:
        for index, (a, b) in enumerate(zip(traced, replay)):
            if not problems[index] and payload(a.stdout) != payload(b.stdout):
                problems[index].append("traced and untraced reports differ")
    failed = sum(1 for p in problems if p)
    for record, found in zip(records, problems):
        for problem in found[:5]:
            print(f"FAILED {' '.join(record.request.argv())}: {problem}", file=sys.stderr)

    if args.trace:
        items = sum(r.request.items for r in traced)
        metrics = tracer.metrics(items)
        traced_s, replay_s = sum(r.scaled for r in traced), sum(r.scaled for r in replay)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / replay_s - 1.0), "%")
        run["spans"] = tracer.table()
    else:
        items = sum(r.request.items for r, p in zip(records, problems) if not p)
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput": (items / sum(r.scaled for r in records), "items/s"),
            "request_p50_ms": (1000.0 * statistics.median(r.scaled for r in records), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        run["raw"] = {
            "setup_s": raw_setup_s,
            "throughput": items / sum(r.seconds for r in records),
            "request_p50_ms": 1000.0 * statistics.median(r.seconds for r in records),
        }
    run["rounds"] = rounds
    run["requests"] = [
        {"argv": r.request.argv(), "rc": r.rc, "seconds": r.seconds, "calibration_s": r.calibration, "problems": p}
        for r, p in zip(records, problems)
    ]

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    run["result"] = result
    RUNS.mkdir(exist_ok=True)
    (RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(run, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in run.get("raw", {}).items():
        print(f"{name + ' (raw wall clock)':40s} {value:14.6g}")
    print(f"{len(records)} requests in {rounds} rounds, {failed} failed")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

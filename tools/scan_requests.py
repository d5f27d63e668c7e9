"""Replay whole rounds of a benchmark workload and report every failed request.

    python3 tools/scan_requests.py --workload mazur_ulam_maps --seeds 100-149 --rounds 40

Run from anywhere; the tool imports ``ggv`` from this checkout's ``src`` and
the benchmark's workloads and output checks from its ``perfbench``.  For each
workload seed in the range, the first ``--rounds`` rounds of the workload are
run in-process and untimed, request after request, exactly as
``perfbench/run.py`` sends them.  Each request is checked at once with the
benchmark's own ``checks.request_problems``, and only its verdict is kept.
Every failing request is printed with its argv and its first problem; the
last line reads ``requests N, failed F``.  The exit status is 1 if any
request failed, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def scan(workload: str, seeds: range, rounds: int, out=sys.stdout) -> tuple[int, int]:
    """Run ``rounds`` rounds of ``workload`` at each seed; return (requests, failed)."""
    from run import invoke, load_cli
    from workloads import WORKLOADS

    cli = load_cli()
    from checks import request_problems

    requests = failed = 0
    for seed in seeds:
        for index in range(rounds):
            for request in WORKLOADS[workload].round(seed, index):
                record = invoke(cli, request)
                problems = request_problems(request, record.rc, record.stdout, record.stderr)
                requests += 1
                if problems:
                    failed += 1
                    print(f"FAILED {' '.join(request.argv())}: {problems[0]}", file=out, flush=True)
    print(f"requests {requests}, failed {failed}", file=out, flush=True)
    return requests, failed


def main(argv: list[str] | None = None) -> int:
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=_seed_range, help="one workload seed, or FIRST-LAST")
    parser.add_argument("--rounds", type=int, default=1, help="rounds per workload seed")
    args = parser.parse_args(argv)
    _, failed = scan(args.workload, args.seeds, args.rounds)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scenario-suite --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` runs the same workload with every layer wrapped (see
``layers.py``) and reports the per-layer metrics instead.  The last line
of standard output is the result object; the lines before it are a
readable summary.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402


def _exit_on_sigterm(signum, frame) -> None:
    """Turn SIGTERM into SystemExit, so that cleanup code stops and reaps
    the children and daemons of the run."""
    sys.exit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {harness.SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    calib_s = harness.calibrate()
    ctx = harness.Context(args.seed, args.seconds)
    try:
        run = workloads.WORKLOADS[args.workload]
        result = run(ctx, bool(args.trace))
    finally:
        ctx.close()
    if args.trace:
        result.metrics["calib_s"] = calib_s
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    correct = result.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} calib_s={calib_s:.4f}")
    for name, unit in units.items():
        note = result.notes.get(name, "")
        print(f"  {name:<60} {result.metrics[name]:>14.6g} {unit:<6} {note}")
    print(f"  {'error_rate':<60} {result.failed / result.attempted:>14.6g} "
          f"{'ratio':<6} ({result.failed}/{result.attempted} operations "
          f"failed)")
    print(f"  correct: {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

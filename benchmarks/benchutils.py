"""Small helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import platform
import sys


def print_series(title, header, rows):
    """Uniform printing of a table/series for side-by-side comparison with the paper."""
    print()
    print(f"=== {title} ===")
    print(" | ".join(header))
    for row in rows:
        print(" | ".join(str(x) for x in row))


def emit_json(name, payload):
    """Write machine-readable benchmark timings to ``BENCH_<name>.json``.

    The file lands in ``$BENCH_JSON_DIR`` so CI can collect every
    ``bench_*`` result as an artifact and gate on floors (see
    ``tools/check_bench_floors.py``).  When ``BENCH_JSON_DIR`` is unset
    nothing is written and ``None`` is returned, so a local benchmark run
    never overwrites a committed ``BENCH_*.json`` (refresh one with
    ``BENCH_JSON_DIR=.``).  ``payload`` must be JSON-serializable;
    interpreter/platform provenance is added under ``"environment"``.
    Returns the written path.
    """
    out_dir = os.environ.get("BENCH_JSON_DIR")
    if not out_dir:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    document = {
        "benchmark": name,
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "results": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench] wrote {path}")
    return path

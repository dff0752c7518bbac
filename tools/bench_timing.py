#!/usr/bin/env python
"""Write the machine-readable round-throughput baseline.

Runs the timing sweep from :mod:`repro.experiments.timing` — every
execution backend on the digits-CNN and linear workloads, plus the
im2col and checkpoint save/restore micro-benchmarks — and atomically
writes ``BENCH_timing.json`` at the repo root.  Compare two baselines
with ``tools/bench_compare.py``.

Usage::

    python tools/bench_timing.py                     # full sweep
    python tools/bench_timing.py --backends serial
    python tools/bench_timing.py --rounds 5 --out /tmp/after.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.timing import (  # noqa: E402
    DEFAULT_BACKENDS,
    format_report,
    run_timing,
    write_baseline,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backends",
        nargs="+",
        default=list(DEFAULT_BACKENDS),
        choices=list(DEFAULT_BACKENDS),
        help="execution backends to time (default: all)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timed rounds per backend"
    )
    parser.add_argument(
        "--warmup", type=int, default=1, help="untimed warm-up rounds"
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=["digits_cnn", "linear"],
        choices=["digits_cnn", "linear"],
        help="workloads to time (default: both)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_timing.json",
        help="output path (default: BENCH_timing.json at the repo root)",
    )
    args = parser.parse_args(argv)

    payload = run_timing(
        backends=args.backends,
        rounds=args.rounds,
        warmup=args.warmup,
        workloads=args.workloads,
    )
    write_baseline(payload, args.out)
    print(format_report(payload))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

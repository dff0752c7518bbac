"""Resident memory of one federation, phase by phase.

Prints ``VmHWM`` (the peak) and ``VmRSS`` (the current resident set),
in MiB, after the imports, the workload build, ``make_trainer`` and one
round with an evaluation, then the run's history digest; the header
names the commit and host that produced the numbers.  From the
repository root:

    python tools/memory_phases.py --workload digits --scale paper \\
        --executor batched

DESIGN.md §6b's by-phase table comes from this command, one process per
cell.  Both counters are per process and monotone (``VmHWM``) or
current (``VmRSS``), so run each configuration in a fresh process.
Linux only: the counters are read from ``/proc/self/status``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in the benchmark: a second thread's
# buffers would show up in the resident set.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.perf.manifest import run_manifest  # noqa: E402
from repro.baselines.vanilla import VanillaPolicy  # noqa: E402
from repro.experiments.workloads import (  # noqa: E402
    SCALES,
    DigitsWorkload,
    NWPWorkload,
)
from repro.fl.config import EXECUTOR_BACKENDS  # noqa: E402
from repro.fl.history import history_digest  # noqa: E402

WORKLOADS = {"digits": DigitsWorkload, "nwp": NWPWorkload}


def memory_mib() -> Dict[str, float]:
    """This process's ``VmHWM`` and ``VmRSS``, in MiB."""
    found = {}
    with open("/proc/self/status") as status:
        for line in status:
            key = line.split(":", 1)[0]
            if key in ("VmHWM", "VmRSS"):
                found[key] = int(line.split()[1]) / 1024
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="digits")
    parser.add_argument("--scale", choices=SCALES, default="bench")
    parser.add_argument("--executor", choices=EXECUTOR_BACKENDS, default="serial")
    args = parser.parse_args(argv)

    phases = [("import", memory_mib())]
    workload = WORKLOADS[args.workload](args.scale)
    phases.append((f"{type(workload).__name__}({args.scale!r})", memory_mib()))
    trainer = workload.make_trainer(
        VanillaPolicy(), rounds=1, eval_every=1, executor=args.executor
    )
    phases.append(("make_trainer", memory_mib()))
    with trainer:
        trainer.run()
    phases.append(("one round + evaluation", memory_mib()))

    stamp = run_manifest(workload.seed, ROOT, ())
    dirty = " (dirty)" if stamp["git_dirty"] else ""
    print(f"# {args.workload} scale={args.scale} executor={args.executor}, "
          f"E={workload.params.local_epochs} B={workload.params.batch_size}")
    print(f"# commit {stamp['git_commit']}{dirty}")
    print(f"# host {stamp['hostname']}, {stamp['nproc']} CPUs, "
          f"{stamp['cpu_model']}, python {stamp['python']}, "
          f"numpy {stamp['numpy']}")
    width = max(len(name) for name, _ in phases)
    print(f"{'phase':<{width}}  VmHWM MiB  VmRSS MiB")
    for name, mib in phases:
        print(f"{name:<{width}}  {mib['VmHWM']:9.1f}  {mib['VmRSS']:9.1f}")
    print(f"history digest {history_digest(trainer)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

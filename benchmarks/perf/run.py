"""The repo's benchmark: one command for every shipped path.

Three ways in (run from the repository root)::

    # one workload, one phase — the form BENCHMARK.json's command takes
    python3 benchmarks/perf/run.py --workload digits_serial --seed 3 \\
        --seconds 24 --trace 0

    # every workload, both phases, each in a fresh subprocess, one
    # after another; prints every metric and writes the result file
    PYTHONPATH=src python -m benchmarks.perf.run --seed 3 --out result.json

    # two result files against the bounds in BENCHMARK.json
    PYTHONPATH=src python -m benchmarks.perf.run --compare A.json B.json

The last line on standard output of a ``--workload`` run is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``benchmarks/perf/README.md``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy loads: the host has two
# shared cores and a second thread only adds scheduling noise.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
#: Scratch space (checkpoints, trace files, detail files); inside the
#: checkout, git-ignored, and emptied by whoever created a subdirectory.
WORK_ROOT = HERE / ".work"
RESULT_SCHEMA = "repro-perfbench/v1"


def _bootstrap_imports() -> None:
    """Make ``benchmarks.perf`` and ``repro`` importable from a script run."""
    if not (REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"benchmarks/perf needs the program it measures: "
            f"{REPO_ROOT / 'src' / 'repro'} does not exist"
        )
    for path in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_declaration() -> Dict[str, Any]:
    """BENCHMARK.json: the declared workloads, metrics, units, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _declared(declaration: Dict[str, Any], section: str) -> Dict[str, Dict[str, Any]]:
    return {m["name"]: m for m in declaration[section]}


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>16.6f}  {m['unit']}")


def _print_failures(failures: Sequence[Dict[str, Any]], limit: int = 5) -> None:
    for failure in failures[:limit]:
        print(f"  FAILED {json.dumps(failure, sort_keys=True)}")
    if len(failures) > limit:
        print(f"  ... and {len(failures) - limit} more failures")


# -- one workload, one phase ---------------------------------------------------


def run_workload(args: argparse.Namespace, declaration: Dict[str, Any]) -> int:
    from benchmarks.perf.measure import (
        SETUP_REPEATS,
        measure_end_to_end,
        measure_per_layer,
    )
    from benchmarks.perf.workloads import WORKLOADS, config_digest

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke_sized()
    else:
        workload = workload.sized_for(args.seconds, declaration["run_seconds"])
    section = "per_layer" if args.trace else "end_to_end"
    declared = _declared(declaration, section)
    workdir = WORK_ROOT / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            values, log, detail = measure_per_layer(workload, args.seed, workdir)
        else:
            values, log, detail = measure_end_to_end(
                workload, args.seed, workdir,
                setup_repeats=(1, 0.0) if args.smoke else SETUP_REPEATS,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(values) != set(declared):
        raise SystemExit(
            f"measured and declared {section} metrics differ: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    metrics = {
        name: {"value": float(values[name]), "unit": declared[name]["unit"]}
        for name in declared
    }
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    if args.detail:
        detail = dict(
            detail,
            workload=workload.name,
            seed=args.seed,
            trace=args.trace,
            config_digest=config_digest(workload),
            failures=log.failures,
        )
        Path(args.detail).write_text(json.dumps({**result, "detail": detail}))
    _print_metrics(
        f"{workload.name} seed={args.seed} {section} "
        f"(attempted {log.attempted}, failed {log.failed})",
        metrics,
    )
    _print_failures(log.failures)
    print(json.dumps(result))
    return 0


# -- the whole set ---------------------------------------------------------------


def _child(workload: str, seed: int, seconds: int, trace: int, smoke: bool,
           detail: Path) -> Dict[str, Any]:
    """One phase of one workload in a fresh interpreter (honest RSS)."""
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--detail", str(detail),
    ]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(
        argv, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} --trace {trace} exited with {done.returncode}"
        )
    return json.loads(detail.read_text())


def run_set(args: argparse.Namespace, declaration: Dict[str, Any]) -> int:
    from benchmarks.perf.compare import spread
    from benchmarks.perf.manifest import run_manifest
    from benchmarks.perf.workloads import WORKLOADS, config_digest

    names = [w["name"] for w in declaration["workloads"]]
    workdir = WORK_ROOT / uuid.uuid4().hex
    workdir.mkdir(parents=True)
    workloads: Dict[str, Any] = {
        name: {
            "config_digest": config_digest(WORKLOADS[name]),
            "end_to_end": {}, "per_layer": {}, "runs": [],
        }
        for name in names
    }
    failed = 0
    try:
        for index in range(args.sets):
            for name in names:
                for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                    run = _child(
                        name, args.seed, args.seconds, trace, args.smoke,
                        workdir / f"{name}-{trace}-{index}.json",
                    )
                    failed += run["failed"]
                    entry = workloads[name]
                    for metric, m in run["metrics"].items():
                        entry[section].setdefault(
                            metric, {"unit": m["unit"], "values": []}
                        )["values"].append(m["value"])
                    entry["runs"].append(run["detail"])
                    _print_metrics(
                        f"[set {index + 1}/{args.sets}] {name} {section} "
                        f"failed_share={run['detail']['failed_share']:.6f}",
                        run["metrics"],
                    )
                    _print_failures(run["detail"]["failures"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bounds = _declared(declaration, "end_to_end")
    for entry in workloads.values():
        for section in ("end_to_end", "per_layer"):
            for metric, m in entry[section].items():
                m["median"] = statistics.median(m["values"])
                m["spread"] = spread(m["values"])
                if section == "end_to_end":
                    m["better"] = bounds[metric]["better"]
                    m["bound"] = bounds[metric]["bound"]
    result = {
        "schema": RESULT_SCHEMA,
        "manifest": run_manifest(args.seed, REPO_ROOT, THREAD_ENV),
        "run_seconds": args.seconds,
        "smoke": bool(args.smoke),
        "sets": args.sets,
        "workloads": workloads,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    print(f"correct: {failed == 0} ({failed} failed)")
    return 0 if failed == 0 else 1


# -- entry ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Benchmark the shipped federation paths.",
    )
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=None,
        help="size the timed work to last about this long on the "
             "reference host (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="0: end-to-end metrics, tracing off; 1: per-layer metrics",
    )
    parser.add_argument("--detail", help="also write digests and samples here")
    parser.add_argument("--out", help="result file of a whole set")
    parser.add_argument(
        "--sets", type=int, default=1,
        help="repeat the whole set this many times into one result file",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="shortest run that exercises every workload and both phases",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="judge result file B against A with BENCHMARK.json's bounds",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _bootstrap_imports()
    declaration = load_declaration()
    if args.compare:
        from benchmarks.perf.compare import compare_files

        return compare_files(*args.compare, declaration)
    if args.seconds is None:
        args.seconds = declaration["run_seconds"]
    if args.workload is None:
        return run_set(args, declaration)
    known = [w["name"] for w in declaration["workloads"]]
    if args.workload not in known:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {known}")
    return run_workload(args, declaration)


if __name__ == "__main__":
    raise SystemExit(main())

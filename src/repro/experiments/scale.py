"""Population-scale axis: peak RSS and throughput vs pool size.

The paper's cross-device setting has a huge enrolled population with a
tiny active cohort per round (ROADMAP #2; the Optimal-Client-Sampling
line of work assumes the same regime).  This experiment measures what
that costs under the sharded :class:`~repro.fl.store.ClientStateStore`:
a fixed 100-client cohort federates over populations of 1k / 10k /
100k / 1M clients and we record **peak RSS** and **clients/sec** per
point.  With the store, memory follows the *touched* state — the
shared dataset plus the few shards the cohorts landed in — so RSS must
grow sublinearly in population (``benchmarks/test_scale.py`` holds the
1M point to <= 10x the 1k point).

The workload is deliberately population-independent everywhere except
the store: one fixed synthetic dataset is shared by all clients
through a :class:`~repro.fl.store.CyclicPartition` (O(1) descriptors,
slice views), the cohort is a fixed-``count``
:class:`~repro.fl.sampling.UniformSampler` drawing indices (O(cohort)
per round), and the model is a small logistic regression.  Anything
that still scales with population is therefore a store regression,
which is exactly what that gate is for.

Peak RSS (:func:`peak_rss_kib`) is a process-lifetime high-water
mark, so one process cannot honestly measure several populations — the
sweep in ``benchmarks/test_scale.py`` runs each point, and its traced
twin, in a fresh subprocess (``python -m repro.experiments.scale --population N
--json``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.fl.config import FLConfig
from repro.fl.history import history_digest
from repro.fl.sampling import UniformSampler
from repro.fl.store import ClientStateStore, CyclicPartition
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs

__all__ = [
    "format_point",
    "main",
    "make_scale_trainer",
    "peak_rss_kib",
    "run_scale_point",
]

_SCALE_SEED = 31

#: Rows in the shared dataset — fixed across populations on purpose.
_DATASET_ROWS = 4_096
_N_FEATURES = 64
_SAMPLES_PER_CLIENT = 50

#: Smaller shards than the store default: a cross-device cohort is a
#: sparse random draw, so almost every participant lands in its own
#: shard and the per-shard allocation is the marginal memory cost of
#: one touched client.
_SCALE_SHARD_SIZE = 1_024


def make_scale_trainer(
    population: int,
    cohort: int,
    backend: str = "serial",
    trace: bool = False,
    trace_sample: float = 1.0,
    trace_path: Optional[str] = None,
) -> FederatedTrainer:
    """A store-backed federation of ``population`` clients.

    Everything except the store's population knob is constant: same
    dataset, same model, same cohort size — so differences across
    populations isolate what the population model itself costs.  The
    ``trace*`` knobs exist so the sweep can measure what observability
    itself costs at scale (tracing off vs sampled vs full).
    """
    if cohort > population:
        raise ValueError(
            f"cohort {cohort} exceeds population {population}"
        )
    rngs = child_rngs(_SCALE_SEED, 4)
    w_true = rngs[0].normal(size=_N_FEATURES)
    x = rngs[1].normal(size=(_DATASET_ROWS, _N_FEATURES))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    model = make_logistic_regression(_N_FEATURES, rng=rngs[2])
    workspace = ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), SGD(model.parameters(), 0.3)
    )
    store = ClientStateStore(
        population,
        CyclicPartition(data, population, _SAMPLES_PER_CLIENT),
        seed=_SCALE_SEED,
        shard_size=_SCALE_SHARD_SIZE,
    )
    config = FLConfig(
        rounds=100,
        local_epochs=2,
        batch_size=10,
        lr=ConstantLR(0.3),
        eval_every=10**9,
        executor=backend,
        trace=trace,
        trace_sample=trace_sample,
        trace_path=trace_path,
    )
    return FederatedTrainer(
        workspace,
        store,
        CMFLPolicy(InverseSqrtThreshold(0.8)),
        config,
        sampler=UniformSampler(count=cohort, rng=rngs[3]),
    )


def peak_rss_kib() -> int:
    """This process's peak resident set, in KiB.

    On Linux this is ``VmHWM`` from ``/proc/self/status``, the
    high-water mark of the process's own address space, which ``exec``
    starts afresh.  Elsewhere it is ``ru_maxrss`` (macOS reports bytes,
    normalized here), which Linux carries across fork+exec: read there,
    a subprocess would report at least its launcher's peak.  Either is
    monotone over the process lifetime, which is why every population
    point must run in a fresh process to be honest.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def run_scale_point(
    trainer: FederatedTrainer, rounds: int
) -> Dict[str, object]:
    """Run one population point and measure its cost envelope.

    ``trainer`` comes from :func:`make_scale_trainer` and is closed on
    return.
    """
    cohort = trainer.sampler.count
    try:
        samples = []
        for _ in range(rounds):
            start = perf_counter()
            trainer.run(1)
            samples.append(perf_counter() - start)
        store = trainer.store
        point = {
            "population": store.population,
            "cohort": cohort,
            "rounds": rounds,
            "sec_per_round": float(np.median(samples)),
            "sec_per_round_samples": samples,
            "clients_per_sec": cohort / float(np.median(samples)),
            "peak_rss_kib": peak_rss_kib(),
            "store_nbytes": store.nbytes,
            "materialized_shards": store.materialized_shards,
            "shard_size": store.shard_size,
            "history_digest": history_digest(trainer),
            "trace": {
                "enabled": bool(trainer.tracer.enabled),
                "sample": trainer.config.trace_sample,
            },
        }
    finally:
        trainer.close()
    return point


def format_point(point: Dict[str, object]) -> str:
    """One human-readable sweep row."""
    return (
        f"population {point['population']:>9,}: "
        f"rss {point['peak_rss_kib'] / 1024:8.1f} MiB, "
        f"{point['clients_per_sec']:8.1f} clients/s, "
        f"{point['materialized_shards']:>4} shards "
        f"({point['store_nbytes'] / 1024:.0f} KiB store)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: measure one population point, print JSON or a report row.

    One invocation = one process = one honest peak RSS; the sweep
    driver is ``benchmarks/test_scale.py``.
    """
    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, required=True)
    parser.add_argument("--cohort", type=int, default=100)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run with tracing on, to measure its memory/time overhead",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="per-client span sampling rate under --trace (default 1.0)",
    )
    parser.add_argument(
        "--trace-path",
        default=None,
        help="stream the trace to this JSONL file (implies --trace)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the point as machine-readable JSON on stdout",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    build_start = perf_counter()
    try:
        trainer = make_scale_trainer(
            args.population,
            args.cohort,
            trace=args.trace,
            trace_sample=args.trace_sample,
            trace_path=args.trace_path,
        )
    except ValueError as exc:
        parser.error(str(exc))
    build_s = perf_counter() - build_start
    point = {"build_s": build_s, **run_scale_point(trainer, args.rounds)}
    if args.json:
        print(json.dumps(point, sort_keys=True))
    else:
        print(format_point(point))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

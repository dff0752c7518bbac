"""Straggler/staleness sweep: bounded-staleness async vs synchronous.

The paper's synchronous barrier waits for every participant, so one
slow device prices the whole round.  This experiment runs the same CMFL federation under
the event engine (:mod:`repro.fl.events`) across staleness bounds
``S in {0, 2, 8}`` and measures what relaxing the barrier buys and
costs on the virtual timeline:

- **S=0** is the synchronous baseline — the plain trainer's history
  and parameters, produced through the same event machinery, with the
  barrier's virtual close times recorded;
- **S>0** lets up to ``S+1`` rounds overlap: the virtual finish time
  drops (stragglers no longer serialize the timeline), while the
  staleness column of the history records how old each aggregated
  round's base model was.

Cohorts are availability-sampled: a sinusoidal diurnal trace
(:func:`~repro.fl.sampling.diurnal_trace`) modulates which slice of
the pool is online each round, the cross-device regime of Ribero &
Vikalo 2020.  Straggling and churn come from the latency model's
``speed_sigma``/``drop_rate`` knobs.

A ``--trace-path`` run writes the S=2 run's trace; its ``async.*``
totals, folded from the ``dispatch``/``round_close`` spans, export to
OpenMetrics text with::

    python -m repro.experiments.straggler --trace-path /tmp/s.jsonl
    python -m repro.obs export /tmp/s.jsonl
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.events import AsyncConfig, AsyncFederatedTrainer
from repro.fl.sampling import AvailabilitySampler, diurnal_trace
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs
from repro.utils.tables import format_table

__all__ = [
    "DEFAULT_BOUNDS",
    "StragglerPoint",
    "StragglerResult",
    "main",
    "make_straggler_engine",
    "run",
]

#: The sweep's staleness bounds: synchronous, mild overlap, deep overlap.
DEFAULT_BOUNDS = (0, 2, 8)

_SEED = 47
_N_FEATURES = 16
_POOL = 24
_COHORT = 8
_SAMPLES_PER_CLIENT = 40


def make_straggler_engine(
    staleness_bound: int,
    rounds: int = 12,
    drop_rate: float = 0.1,
    speed_sigma: float = 1.0,
    seed: int = _SEED,
    trace_path: Optional[str] = None,
) -> AsyncFederatedTrainer:
    """One sweep point: availability-sampled CMFL under bound ``S``.

    Every point is built from the same seeds — the pool, the diurnal
    availability windows and the trigger decisions are identical across
    bounds, so differences isolate what the staleness bound itself does.
    """
    rngs = child_rngs(seed, _POOL + 4)
    w_true = rngs[0].normal(size=_N_FEATURES)
    clients = []
    for i in range(_POOL):
        x = rngs[1].normal(size=(_SAMPLES_PER_CLIENT, _N_FEATURES))
        y = (x @ w_true > 0).astype(np.int64)
        clients.append(FLClient(i, Dataset(x, y), rng=rngs[3 + i]))
    x_test = rngs[1].normal(size=(200, _N_FEATURES))
    test = Dataset(x_test, (x_test @ w_true > 0).astype(np.int64))
    model = make_logistic_regression(_N_FEATURES, rng=rngs[2])
    workspace = ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), 0.5),
        metric=binary_accuracy,
    )
    config = FLConfig(
        rounds=rounds,
        local_epochs=1,
        batch_size=10,
        lr=ConstantLR(0.3),
        seed=seed,
        trace=trace_path is not None,
        trace_path=trace_path,
    )
    trainer = FederatedTrainer(
        workspace,
        clients,
        CMFLPolicy(InverseSqrtThreshold(0.8)),
        config,
        sampler=AvailabilitySampler(
            count=_COHORT,
            trace=diurnal_trace(period=8, low=0.3, high=0.9),
            rng=np.random.default_rng(seed + 1),
        ),
        eval_fn=lambda w: w.evaluate(test.x, test.y),
    )
    return AsyncFederatedTrainer(
        trainer,
        async_config=AsyncConfig(
            staleness_bound=staleness_bound,
            dispatch_interval_s=0.2,
            drop_rate=drop_rate,
            speed_sigma=speed_sigma,
        ),
    )


@dataclass
class StragglerPoint:
    """One staleness bound's measured outcome."""

    staleness_bound: int
    rounds: int
    virtual_finish_s: float
    staleness_mean: float
    staleness_p50: float
    staleness_p99: float
    staleness_max: int
    upload_fraction: float
    final_test_metric: Optional[float]
    final_train_loss: float

    def row(self) -> List[object]:
        return [
            self.staleness_bound,
            self.rounds,
            f"{self.virtual_finish_s:.1f}",
            f"{self.staleness_mean:.2f}",
            f"{self.staleness_p50:.0f}/{self.staleness_p99:.0f}",
            self.staleness_max,
            f"{self.upload_fraction:.2f}",
            "-"
            if self.final_test_metric is None
            else f"{self.final_test_metric:.3f}",
        ]

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class StragglerResult:
    rounds: int
    drop_rate: float
    speed_sigma: float
    points: List[StragglerPoint] = field(default_factory=list)

    def report(self) -> str:
        table = format_table(
            [
                "S",
                "rounds",
                "virtual finish (s)",
                "staleness mean",
                "p50/p99",
                "max",
                "upload frac",
                "final acc",
            ],
            [p.row() for p in self.points],
            title=(
                f"Straggler sweep (pool {_POOL}, cohort {_COHORT}, "
                f"drop {self.drop_rate}, sigma {self.speed_sigma})"
            ),
        )
        base = self.points[0]
        lines = [table, ""]
        for point in self.points[1:]:
            speedup = base.virtual_finish_s / point.virtual_finish_s
            lines.append(
                f"S={point.staleness_bound} finishes the virtual "
                f"timeline {speedup:.2f}x faster than the synchronous "
                f"barrier (S=0) at mean staleness "
                f"{point.staleness_mean:.2f}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rounds": self.rounds,
            "drop_rate": self.drop_rate,
            "speed_sigma": self.speed_sigma,
            "points": [p.to_dict() for p in self.points],
        }


def run(
    bounds: Sequence[int] = DEFAULT_BOUNDS,
    rounds: int = 12,
    drop_rate: float = 0.1,
    speed_sigma: float = 1.0,
    seed: int = _SEED,
    trace_path: Optional[str] = None,
    trace_bound: int = 2,
) -> StragglerResult:
    """Sweep the staleness bounds; optionally trace the ``trace_bound`` run."""
    result = StragglerResult(
        rounds=rounds, drop_rate=drop_rate, speed_sigma=speed_sigma
    )
    for bound in bounds:
        engine = make_straggler_engine(
            bound,
            rounds=rounds,
            drop_rate=drop_rate,
            speed_sigma=speed_sigma,
            seed=seed,
            trace_path=trace_path if bound == trace_bound else None,
        )
        with engine:
            history = engine.run(rounds)
        staleness = history.staleness()
        final = history.final
        result.points.append(
            StragglerPoint(
                staleness_bound=bound,
                rounds=len(history),
                virtual_finish_s=final.virtual_time,
                staleness_mean=float(staleness.mean()),
                staleness_p50=float(np.percentile(staleness, 50)),
                staleness_p99=float(np.percentile(staleness, 99)),
                staleness_max=int(staleness.max()),
                upload_fraction=float(
                    np.mean([r.upload_fraction for r in history])
                ),
                final_test_metric=final.test_metric,
                final_train_loss=final.mean_train_loss,
            )
        )
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bounds", type=int, nargs="+", default=list(DEFAULT_BOUNDS)
    )
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--drop-rate", type=float, default=0.1)
    parser.add_argument("--speed-sigma", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=_SEED)
    parser.add_argument(
        "--trace-path",
        default=None,
        help="stream the S=2 run's trace to this JSONL file, ready for "
        "`python -m repro.obs export` (its async.* totals)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the sweep as machine-readable JSON on stdout",
    )
    args = parser.parse_args(argv)
    result = run(
        bounds=args.bounds,
        rounds=args.rounds,
        drop_rate=args.drop_rate,
        speed_sigma=args.speed_sigma,
        seed=args.seed,
        trace_path=args.trace_path,
    )
    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        print(result.report())
        if args.trace_path:
            print(
                f"\ntraced the S=2 run to {args.trace_path}; export its "
                f"async.* totals with:\n"
                f"  python -m repro.obs export {args.trace_path}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

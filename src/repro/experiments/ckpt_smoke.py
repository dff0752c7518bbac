"""Checkpoint/kill/resume smoke run — repro.ckpt end to end.

Runs a small deterministic CMFL federation with checkpointing (and
optionally tracing) on, through the synchronous trainer or, with
``--staleness-bound S``, the async event engine, and can SIGKILL
itself mid-round to simulate a crashed run::

    python -m repro.experiments.ckpt_smoke --rounds 6 \
        --ckpt-dir /tmp/run --trace /tmp/run/trace.jsonl --kill-at 4
    python -m repro.experiments.ckpt_smoke --rounds 6 \
        --ckpt-dir /tmp/run --trace /tmp/run/trace.jsonl --resume

The resume invocation restores the latest checkpoint and finishes the
remaining rounds; ``tests/test_ckpt_resume.py`` drives this pair in
subprocesses, in both modes, and asserts the final history, parameters
and trace digest are bitwise an uninterrupted run's.  The federation
is built by :func:`federation_parts` from a fixed seed, so two
processes construct identical starting states — the property
``FederatedTrainer.restore`` relies on.
"""

from __future__ import annotations

import argparse
import os
import signal
from typing import Any, Dict, Optional

import numpy as np

from repro.ckpt import latest_checkpoint
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.fl.client import FLClient
from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.events import AsyncConfig, AsyncFederatedTrainer
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import Momentum
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs

__all__ = ["async_config", "federation_parts", "main"]

_SEED = 7
_FEATURES = 12
_CLIENTS = 4
_SAMPLES_PER_CLIENT = 24


def federation_parts(
    rounds: int = 6,
    backend: str = "serial",
    ckpt_dir: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Deterministic constructor kwargs for the smoke federation.

    Returns the keyword arguments shared by ``FederatedTrainer(...)``
    and ``FederatedTrainer.restore(path, ...)`` — building them twice
    (in two different processes) yields identical objects, seed-for-
    seed, which is the contract a checkpoint restore needs.  Every
    round is checkpointed and every checkpoint kept.
    """
    rngs = child_rngs(_SEED, _CLIENTS + 4)
    w_true = rngs[0].normal(size=_FEATURES)
    n = _CLIENTS * _SAMPLES_PER_CLIENT
    x = rngs[1].normal(size=(n, _FEATURES))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    x_test = rngs[2].normal(size=(64, _FEATURES))
    y_test = (x_test @ w_true > 0).astype(np.int64)

    model = make_logistic_regression(_FEATURES, rng=rngs[3])
    workspace = ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        Momentum(model.parameters(), 0.2, momentum=0.9),
        metric=binary_accuracy,
    )
    parts = iid_partition(len(data), _CLIENTS, rng=_SEED)
    clients = [
        FLClient(i, data.subset(p), rng=rngs[4 + i])
        for i, p in enumerate(parts)
    ]
    config = FLConfig(
        rounds=rounds,
        local_epochs=2,
        batch_size=6,
        lr=ConstantLR(0.2),
        eval_every=1,
        executor=backend,
        trace_path=trace_path,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=1,
        checkpoint_keep=0,
    )
    return {
        "workspace": workspace,
        "clients": clients,
        "policy": CMFLPolicy(InverseSqrtThreshold(0.7)),
        "config": config,
        "eval_fn": lambda ws: ws.evaluate(x_test, y_test),
    }


def async_config(staleness_bound: int = 2) -> AsyncConfig:
    """The async smoke run's engine knobs (shared by kill and resume legs).

    The dispatch interval spaces rounds out on the virtual timeline so
    closes do not cluster into one arrival event — checkpoints then
    genuinely carry in-flight rounds, which is the machinery this smoke
    run exists to exercise.
    """
    return AsyncConfig(
        staleness_bound=staleness_bound,
        dispatch_interval_s=0.4,
        speed_sigma=1.0,
        drop_rate=0.1,
    )


def _install_kill(trainer: FederatedTrainer, kill_round: int) -> None:
    """SIGKILL this process at the second decision of ``kill_round``:
    after an earlier round's checkpoint, with spans open and the trace
    mid-stream, the worst realistic spot."""
    seen = []

    def hook(result, decision):
        if len(trainer.history) + 1 == kill_round:
            seen.append(decision)
            if len(seen) == 2:
                os.kill(os.getpid(), signal.SIGKILL)

    trainer.on_decision = hook


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--backend", default="serial",
                        choices=EXECUTOR_BACKENDS)
    parser.add_argument("--staleness-bound", type=int, default=None,
                        metavar="S",
                        help="run through the async engine with bound S")
    parser.add_argument("--ckpt-dir", required=True)
    parser.add_argument("--trace", default=None,
                        help="stream the trace to this .jsonl file")
    parser.add_argument("--kill-at", type=int, default=None,
                        help="SIGKILL this process during round N")
    parser.add_argument("--resume", action="store_true",
                        help="restore the latest checkpoint and finish")
    args = parser.parse_args(argv)

    parts = federation_parts(
        rounds=args.rounds,
        backend=args.backend,
        ckpt_dir=args.ckpt_dir,
        trace_path=args.trace,
    )
    engine = (
        None if args.staleness_bound is None
        else async_config(args.staleness_bound)
    )
    if args.resume:
        path = latest_checkpoint(args.ckpt_dir)
        if path is None:
            print(f"error: no checkpoint found in {args.ckpt_dir}")
            return 2
        if engine is None:
            run = FederatedTrainer.restore(path, **parts)
        else:
            run = AsyncFederatedTrainer.restore(
                path, async_config=engine, **parts
            )
        remaining = args.rounds - len(run.history)
        print(f"resuming from {path} ({remaining} rounds remaining)")
    else:
        run = trainer = FederatedTrainer(**parts)
        if args.kill_at is not None:
            _install_kill(trainer, args.kill_at)
        if engine is not None:
            run = AsyncFederatedTrainer(trainer, async_config=engine)
        remaining = args.rounds
    with run:
        if remaining > 0:
            run.run(remaining)

    final = run.history.final
    print(
        f"done: {len(run.history)} rounds, "
        f"accumulated_rounds={final.accumulated_rounds}, "
        f"virtual_time={final.virtual_time:.3f}, "
        f"test_metric={final.test_metric}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

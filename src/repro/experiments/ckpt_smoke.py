"""Checkpoint/kill/resume smoke run — the repro.ckpt layer end to end.

Runs a small deterministic CMFL federation with checkpointing (and
optionally tracing) on, and can kill itself mid-round with SIGKILL to
simulate a crashed run::

    python -m repro.experiments.ckpt_smoke --rounds 6 \
        --ckpt-dir /tmp/run --trace /tmp/run/trace.jsonl --kill-at 4
    python -m repro.experiments.ckpt_smoke --rounds 6 \
        --ckpt-dir /tmp/run --trace /tmp/run/trace.jsonl --resume

The resume invocation restores the latest checkpoint and finishes the
remaining rounds; the kill-resume test drives exactly this pair of
commands in subprocesses and asserts the final history, parameters and
trace digest are bitwise-identical to an uninterrupted run's.

The federation is built by :func:`federation_parts` from a fixed seed,
so two processes construct identical starting states — the property
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
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import Momentum, SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs

__all__ = ["federation_parts", "main"]

_SEED = 7
_FEATURES = 12
_SAMPLES_PER_CLIENT = 24


def federation_parts(
    rounds: int = 6,
    backend: str = "serial",
    ckpt_dir: Optional[str] = None,
    ckpt_every: int = 1,
    ckpt_keep: int = 0,
    trace_path: Optional[str] = None,
    optimizer: str = "momentum",
    n_clients: int = 4,
) -> Dict[str, Any]:
    """Deterministic constructor kwargs for the smoke federation.

    Returns the keyword arguments shared by ``FederatedTrainer(...)``
    and ``FederatedTrainer.restore(path, ...)`` — building them twice
    (in two different processes) yields identical objects, seed-for-
    seed, which is the contract a checkpoint restore needs.
    """
    rngs = child_rngs(_SEED, n_clients + 4)
    w_true = rngs[0].normal(size=_FEATURES)
    n = n_clients * _SAMPLES_PER_CLIENT
    x = rngs[1].normal(size=(n, _FEATURES))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    x_test = rngs[2].normal(size=(64, _FEATURES))
    y_test = (x_test @ w_true > 0).astype(np.int64)

    model = make_logistic_regression(_FEATURES, rng=rngs[3])
    if optimizer == "momentum":
        opt = Momentum(model.parameters(), 0.2, momentum=0.9)
    elif optimizer == "sgd":
        opt = SGD(model.parameters(), 0.2)
    else:
        raise ValueError(f"optimizer must be 'momentum' or 'sgd', got {optimizer!r}")
    workspace = ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), opt, metric=binary_accuracy
    )
    parts = iid_partition(len(data), n_clients, rng=_SEED)
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
        checkpoint_every=ckpt_every,
        checkpoint_keep=ckpt_keep,
    )
    return {
        "workspace": workspace,
        "clients": clients,
        "policy": CMFLPolicy(InverseSqrtThreshold(0.7)),
        "config": config,
        "eval_fn": lambda ws: ws.evaluate(x_test, y_test),
    }


def _install_kill(
    trainer: FederatedTrainer, kill_round: int, after_decisions: int = 2
) -> None:
    """SIGKILL this process mid-round ``kill_round``.

    Hooks ``on_decision`` so the kill lands in the middle of the
    decide phase — after a checkpoint exists for ``kill_round - 1``,
    with spans open and the trace mid-stream, the worst realistic spot.
    """
    seen = {"count": 0}

    def hook(result, decision):
        del result, decision
        if len(trainer.history) + 1 == kill_round:
            seen["count"] += 1
            if seen["count"] >= after_decisions:
                os.kill(os.getpid(), signal.SIGKILL)

    trainer.on_decision = hook


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--backend", default="serial",
                        choices=EXECUTOR_BACKENDS)
    parser.add_argument("--ckpt-dir", required=True)
    parser.add_argument("--trace", default=None,
                        help="stream the trace to this .jsonl file")
    parser.add_argument("--every", type=int, default=1)
    parser.add_argument("--keep", type=int, default=0,
                        help="checkpoints to retain (0 = all)")
    parser.add_argument("--optimizer", default="momentum",
                        choices=("momentum", "sgd"))
    parser.add_argument("--kill-at", type=int, default=None,
                        help="SIGKILL this process during round N")
    parser.add_argument("--resume", action="store_true",
                        help="restore the latest checkpoint and finish")
    args = parser.parse_args(argv)

    parts = federation_parts(
        rounds=args.rounds,
        backend=args.backend,
        ckpt_dir=args.ckpt_dir,
        ckpt_every=args.every,
        ckpt_keep=args.keep,
        trace_path=args.trace,
        optimizer=args.optimizer,
    )
    if args.resume:
        path = latest_checkpoint(args.ckpt_dir)
        if path is None:
            print(f"error: no checkpoint found in {args.ckpt_dir}")
            return 2
        trainer = FederatedTrainer.restore(path, **parts)
        remaining = args.rounds - len(trainer.history)
        print(f"resuming from {path} ({remaining} rounds remaining)")
        if remaining > 0:
            with trainer:
                trainer.run(remaining)
        else:
            trainer.close()
    else:
        trainer = FederatedTrainer(**parts)
        if args.kill_at is not None:
            _install_kill(trainer, args.kill_at)
        with trainer:
            trainer.run(args.rounds)

    final = trainer.history.final
    print(
        f"done: {len(trainer.history)} rounds, "
        f"accumulated_rounds={final.accumulated_rounds}, "
        f"test_metric={final.test_metric}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

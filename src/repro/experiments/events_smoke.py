"""Async-engine kill/resume smoke run — repro.fl.events end to end.

The asynchronous twin of :mod:`repro.experiments.ckpt_smoke`: a small
deterministic CMFL federation driven by the event engine with bounded
staleness, checkpointing (and optionally tracing) on, able to SIGKILL
itself mid-round::

    python -m repro.experiments.events_smoke --rounds 6 \
        --ckpt-dir /tmp/run --trace /tmp/run/trace.jsonl --kill-at 4
    python -m repro.experiments.events_smoke --rounds 6 \
        --ckpt-dir /tmp/run --trace /tmp/run/trace.jsonl --resume

A checkpoint taken mid-timeline carries the virtual clock, the event
queue and every in-flight round's computed results, so the resumed
engine continues the exact schedule — the kill-resume test asserts the
final history, parameters and trace digest are bitwise-identical to an
uninterrupted run's.
"""

from __future__ import annotations

import argparse

from repro.ckpt import latest_checkpoint
from repro.experiments.ckpt_smoke import _install_kill, federation_parts
from repro.fl.events import AsyncConfig, AsyncFederatedTrainer
from repro.fl.trainer import FederatedTrainer

__all__ = ["async_config", "main"]


def async_config(staleness_bound: int = 2) -> AsyncConfig:
    """The smoke run's engine knobs (shared by kill and resume legs).

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--staleness-bound", type=int, default=2)
    parser.add_argument("--ckpt-dir", required=True)
    parser.add_argument("--trace", default=None,
                        help="stream the trace to this .jsonl file")
    parser.add_argument("--every", type=int, default=1)
    parser.add_argument("--keep", type=int, default=0,
                        help="checkpoints to retain (0 = all)")
    parser.add_argument("--kill-at", type=int, default=None,
                        help="SIGKILL this process during round N")
    parser.add_argument("--resume", action="store_true",
                        help="restore the latest checkpoint and finish")
    args = parser.parse_args(argv)

    parts = federation_parts(
        rounds=args.rounds,
        ckpt_dir=args.ckpt_dir,
        ckpt_every=args.every,
        ckpt_keep=args.keep,
        trace_path=args.trace,
    )
    cfg = async_config(args.staleness_bound)
    if args.resume:
        path = latest_checkpoint(args.ckpt_dir)
        if path is None:
            print(f"error: no checkpoint found in {args.ckpt_dir}")
            return 2
        engine = AsyncFederatedTrainer.restore(
            path, async_config=cfg, **parts
        )
        remaining = args.rounds - len(engine.history)
        print(f"resuming from {path} ({remaining} rounds remaining)")
        with engine:
            if remaining > 0:
                engine.run(remaining)
    else:
        engine = AsyncFederatedTrainer(
            FederatedTrainer(**parts), async_config=cfg
        )
        if args.kill_at is not None:
            _install_kill(engine.trainer, args.kill_at)
        with engine:
            engine.run(args.rounds)

    final = engine.history.final
    print(
        f"done: {len(engine.history)} rounds, "
        f"staleness_max={engine.trainer.ledger.staleness_max}, "
        f"virtual_time={final.virtual_time:.3f}, "
        f"test_metric={final.test_metric}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

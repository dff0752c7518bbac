"""Traced smoke run: the observability layer end to end.

Runs a short CMFL federation on the digits workload with tracing on,
then renders the per-phase breakdown and reconciles the ``comm.*``
totals folded from the trace against the trainer's communication
ledger — the same cross-check the tier-1 gate test performs.  Useful as a manual
sanity check of the :mod:`repro.obs` pipeline::

    python -m repro.experiments.trace_smoke [--backend batched] \
        [--trace-path /tmp/trace.jsonl]
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.experiments.workloads import DigitsWorkload
from repro.fl.config import EXECUTOR_BACKENDS
from repro.fl.trainer import FederatedTrainer

__all__ = ["main", "run_traced_smoke"]


def run_traced_smoke(
    rounds: int = 2,
    trace_path: Optional[str] = None,
    backend: str = "serial",
    threshold: float = 0.8,
) -> FederatedTrainer:
    """Run a short traced federation; returns the closed trainer.

    With no ``trace_path`` the events collect in memory
    (``trainer.tracer.memory_events()``); the trainer — and therefore
    its tracer — is closed before returning.
    """
    workload = DigitsWorkload(scale="test")
    trainer = workload.make_trainer(
        CMFLPolicy(InverseSqrtThreshold(threshold)),
        executor=backend,
        rounds=rounds,
        trace=True,
        trace_path=trace_path,
    )
    with trainer:
        trainer.run(rounds)
    return trainer


def main(argv=None) -> int:
    from repro.obs import format_report, load_trace, metrics_from_trace

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--backend", default="serial",
                        choices=EXECUTOR_BACKENDS)
    parser.add_argument("--trace-path", default=None,
                        help="write the trace to this .jsonl file")
    args = parser.parse_args(argv)

    trainer = run_traced_smoke(
        rounds=args.rounds,
        trace_path=args.trace_path,
        backend=args.backend,
    )
    if args.trace_path:
        events = load_trace(args.trace_path)
    else:
        events = trainer.tracer.memory_events()
    print(format_report(events, history=trainer.history))
    totals = {
        name: summary["value"]
        for name, summary in metrics_from_trace(events).items()
        if name.startswith("comm.")
    }
    ok = (
        totals.get("comm.uploads") == trainer.ledger.accumulated_rounds
        and totals.get("comm.uploaded_bytes", 0)
        + totals.get("comm.status_bytes", 0)
        == trainer.ledger.total_bytes
    )
    print(
        f"\ntrace/ledger reconciliation: "
        f"{'OK' if ok else 'MISMATCH'} "
        f"(uploads={totals.get('comm.uploads')}, "
        f"bytes={trainer.ledger.total_bytes})"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

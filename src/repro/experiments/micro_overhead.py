"""Sec. V-C micro-benchmark: the relevance check is ~free.

The paper measures the CheckRelevance computation at <1.6 microseconds
(30-client NWP model) against ~1.25 s per client-side learning
iteration: <0.13% overhead.  We time both operations on this machine
with ``time.perf_counter`` over many repetitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.relevance import relevance
from repro.data.shakespeare import make_dialogue_corpus
from repro.experiments.workloads import resolve_scale
from repro.fl.workspace import ModelWorkspace
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.serialization import flatten_parameters, parameter_count
from repro.utils.tables import format_table

__all__ = ["MicroOverheadResult", "main", "run"]

_REPEATS = {"test": 2, "bench": 5, "paper": 20}


@dataclass
class MicroOverheadResult:
    scale: str
    n_params: int
    relevance_check_seconds: float
    local_iteration_seconds: float

    @property
    def overhead_fraction(self) -> float:
        return self.relevance_check_seconds / self.local_iteration_seconds

    def report(self) -> str:
        rows = [
            ["model parameters", self.n_params, "-"],
            ["relevance check (s)", f"{self.relevance_check_seconds:.2e}",
             "paper: <1.6e-6 (per check)"],
            ["local training iteration (s)",
             f"{self.local_iteration_seconds:.3f}", "paper: ~1.25"],
            ["overhead fraction", f"{self.overhead_fraction:.5f}",
             "paper: <0.0013"],
        ]
        return format_table(
            ["metric", "ours", "paper"],
            rows,
            title=f"Sec V-C -- relevance-check computation overhead "
            f"(scale={self.scale})",
        )


def run(scale: Optional[str] = None) -> MicroOverheadResult:
    """Time the relevance check against one local training iteration."""
    scale = resolve_scale(scale)
    repeats = _REPEATS[scale]

    corpus = make_dialogue_corpus(
        n_roles=4, words_per_role=120, n_topics=6, words_per_topic=25, rng=0
    )
    model = make_nwp_lstm(len(corpus.vocab), embedding_dim=16, hidden=32, rng=1)
    workspace = ModelWorkspace(
        model, SoftmaxCrossEntropy(), SGD(model.parameters(), 0.5)
    )
    n_params = parameter_count(model)
    params = flatten_parameters(model)
    rng = np.random.default_rng(2)
    update = rng.normal(size=n_params)
    feedback = rng.normal(size=n_params)

    start = time.perf_counter()
    for _ in range(repeats * 200):
        # Timing loop: the value is deliberately discarded.
        relevance(update, feedback)
    check_seconds = (time.perf_counter() - start) / (repeats * 200)

    # One "local training iteration" in the paper's sense: E passes of
    # minibatch SGD over the client's whole shard.
    data = corpus.as_dataset()
    n = min(len(data), 150)
    workspace.train_step(data.x[:8], data.y[:8], lr=0.5)  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        workspace.load_flat(params)
        for _epoch in range(2):
            for lo in range(0, n, 8):
                workspace.train_step(
                    data.x[lo : lo + 8], data.y[lo : lo + 8], 0.5
                )
    iter_seconds = (time.perf_counter() - start) / repeats

    return MicroOverheadResult(
        scale=scale,
        n_params=n_params,
        relevance_check_seconds=check_seconds,
        local_iteration_seconds=iter_seconds,
    )


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

"""Theorem 1: empirical convergence check on a convex problem.

The paper proves (for convex losses, with eta_t and v_t decaying like
1/sqrt(t)) that CMFL's time-average regret vanishes.  We verify the
*empirical signature*: federated logistic regression under CMFL has a
time-average regret (1/T) sum |f(x_t) - f(x*)| that decays with T and
stays within a constant factor of the Theorem-1 bound shape.

The optimum f(x*) is obtained by centralised full-batch training to
(numerical) convergence on the pooled data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.convergence import RegretTracker, theoretical_bound
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.experiments.workloads import resolve_scale
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import InverseSqrtLR
from repro.utils.rng import child_rngs
from repro.utils.tables import format_table

__all__ = ["ConvergenceResult", "main", "run"]

_ROUNDS = {"test": 12, "bench": 80, "paper": 400}


def _make_problem(seed: int, n_samples: int = 400, n_features: int = 12):
    rngs = child_rngs(seed, 3)
    w_true = rngs[0].normal(size=n_features)
    x = rngs[1].normal(size=(n_samples, n_features))
    logits = x @ w_true
    y = (rngs[2].random(n_samples) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    return Dataset(x, y)


def _optimal_loss(data: Dataset, iters: int = 3000) -> float:
    """Full-batch gradient descent to near-optimum on the pooled data."""
    model = make_logistic_regression(data.x.shape[1], zero_init=True)
    loss = SigmoidBinaryCrossEntropy()
    opt = SGD(model.parameters(), lr=0.5)
    value = float("inf")
    for _ in range(iters):
        model.zero_grad()
        out = model.forward(data.x, training=True)
        value = loss.forward(out, data.y, training=True)
        model.backward(loss.backward())
        opt.step()
    return value


@dataclass
class ConvergenceResult:
    scale: str
    time_average_regret: np.ndarray
    bound_shape: np.ndarray

    @property
    def is_decaying(self) -> bool:
        avg = self.time_average_regret
        head = max(1, avg.size // 4)
        return float(avg[-1]) < float(np.mean(avg[:head]))

    def report(self) -> str:
        avg = self.time_average_regret
        rows = [
            ["time-average regret (T=1/4)", f"{np.mean(avg[: max(1, avg.size // 4)]):.4f}", "-"],
            ["time-average regret (final)", f"{avg[-1]:.4f}", "-> 0 as T grows"],
            ["decaying", str(self.is_decaying), "Theorem 1 requires yes"],
            ["bound shape (final/initial)",
             f"{self.bound_shape[-1] / self.bound_shape[0]:.3f}",
             "~1/sqrt(T) for the paper's schedules"],
        ]
        return format_table(
            ["metric", "ours", "expectation"],
            rows,
            title=f"Theorem 1 -- empirical convergence check (scale={self.scale})",
        )


def run(scale: Optional[str] = None, seed: int = 5) -> ConvergenceResult:
    """Run the convex convergence experiment."""
    scale = resolve_scale(scale)
    rounds = _ROUNDS[scale]
    data = _make_problem(seed)
    f_star = _optimal_loss(data)

    n_clients = 8
    rngs = child_rngs(seed + 1, n_clients + 1)
    model = make_logistic_regression(data.x.shape[1], zero_init=True)
    workspace = ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), lr=0.3),
        metric=binary_accuracy,
    )
    parts = iid_partition(len(data), n_clients, rng=rngs[0])
    clients = [
        FLClient(i, data.subset(p), rng=rngs[i + 1]) for i, p in enumerate(parts)
    ]
    config = FLConfig(
        rounds=rounds,
        local_epochs=1,
        batch_size=16,
        lr=InverseSqrtLR(0.3),
        eval_every=1,
    )
    trainer = FederatedTrainer(
        workspace,
        clients,
        CMFLPolicy(InverseSqrtThreshold(0.8)),
        config,
        eval_fn=lambda w: w.evaluate(data.x, data.y),
    )
    tracker = RegretTracker(optimal_loss=f_star)
    for t in range(1, rounds + 1):
        record = trainer.run_round(t)
        tracker.observe(record.test_loss)

    etas = np.asarray([0.3 / np.sqrt(t) for t in range(1, rounds + 1)])
    thresholds = np.asarray([0.8 / np.sqrt(t) for t in range(1, rounds + 1)])
    return ConvergenceResult(
        scale=scale,
        time_average_regret=tracker.time_average_regret(),
        bound_shape=theoretical_bound(etas, thresholds),
    )


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

"""A reusable model + loss + optimizer workspace.

Simulating hundreds of clients does not require hundreds of model
copies: clients only differ in their data and the flat parameter vector
they start from.  The trainer owns a single workspace and loads each
client's (or the server's) parameters into it on demand.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.nn.losses import Loss
from repro.nn.module import Module
from repro.nn.optimizers import Optimizer, SGD
from repro.nn.serialization import (
    assign_flat_parameters,
    flatten_parameters,
    parameter_count,
)

__all__ = ["ModelWorkspace"]

MetricFn = Callable[[np.ndarray, np.ndarray], float]


class ModelWorkspace:
    """Bundles a model with its loss and optimizer behind a flat-vector API."""

    def __init__(
        self,
        model: Module,
        loss: Loss,
        optimizer: Optional[Optimizer] = None,
        metric: Optional[MetricFn] = None,
    ) -> None:
        self.model = model
        self.loss = loss
        self.optimizer = optimizer or SGD(model.parameters(), lr=0.05)
        self.metric = metric
        self.n_params = parameter_count(model)

    def get_flat(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Current parameters as a flat vector (a copy).

        ``out=`` writes into a preallocated float64 vector instead of
        allocating one — the per-client hot path in the executor uses
        this to avoid an extra ``n_params`` allocation per call.
        """
        return flatten_parameters(self.model, out=out)

    def load_flat(self, flat: np.ndarray) -> None:
        """Overwrite the model parameters from a flat vector."""
        assign_flat_parameters(self.model, flat)

    def train_step(self, x: np.ndarray, y: np.ndarray, lr: float) -> float:
        """One SGD step on a minibatch; returns the batch loss.

        Uses ``head_backward``: the model's input gradient is dead
        work here, so head layers that support it skip computing it
        (parameter gradients — and therefore the step — are
        bitwise-unchanged).
        """
        self.model.zero_grad()
        out = self.model.forward(x, training=True)
        loss_value = self.loss.forward(out, y, training=True)
        self.model.head_backward(self.loss.backward())
        self.optimizer.step(lr=lr)
        return loss_value

    def evaluate(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> Tuple[float, float]:
        """(mean loss, metric) over ``(x, y)`` without touching parameters.

        The metric is NaN when the workspace has none configured.
        """
        if len(x) != len(y) or len(x) == 0:
            raise ValueError("evaluation set must be non-empty and aligned")
        losses = []
        metrics = []
        weights = []
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            out = self.model.forward(xb, training=False)
            losses.append(self.loss.forward(out, yb))
            if self.metric is not None:
                metrics.append(self.metric(out, yb))
            weights.append(len(xb))
        w = np.asarray(weights, dtype=float)
        w /= w.sum()
        mean_loss = float(np.dot(losses, w))
        mean_metric = float(np.dot(metrics, w)) if metrics else float("nan")
        return mean_loss, mean_metric

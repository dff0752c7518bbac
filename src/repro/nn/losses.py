"""Loss functions with fused, numerically stable gradients.

Each loss exposes ``forward(predictions, targets) -> float`` (mean loss
over the batch) and ``backward() -> grad`` w.r.t. the predictions.  The
softmax/sigmoid are fused into the cross-entropy losses so the gradient
is the plain ``probabilities - onehot`` form.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid, softmax
from repro.nn.module import BatchedUnsupported

__all__ = [
    "BatchedLoss",
    "BatchedSigmoidBinaryCrossEntropy",
    "BatchedSoftmaxCrossEntropy",
    "Loss",
    "SigmoidBinaryCrossEntropy",
    "SoftmaxCrossEntropy",
]


class Loss:
    """Base class: call ``forward`` then ``backward`` once per step."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def batched(self) -> "BatchedLoss":
        """Build this loss's batched-leading-axis counterpart.

        Losses without one raise
        :class:`~repro.nn.module.BatchedUnsupported`, which the batched
        executor treats as "fall back to the per-client path".
        """
        raise BatchedUnsupported(
            f"{type(self).__name__} has no batched counterpart"
        )

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.forward(predictions, targets)


class BatchedLoss:
    """Per-client loss over stacked predictions.

    ``forward`` takes ``(clients, batch, ...)`` predictions/targets and
    returns a ``(clients,)`` float64 vector whose every entry is
    bitwise equal to the serial loss on that client's slice — each
    client's mean reduces over its own contiguous row, never across the
    client axis.  ``backward`` returns the stacked prediction gradient,
    scaled per client by that client's element count exactly as the
    serial loss scales by ``targets.size``.
    """

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        return self.forward(predictions, targets)


class SoftmaxCrossEntropy(Loss):
    """Multi-class cross-entropy over logits with integer class targets.

    ``predictions``: logits ``(batch, classes)``;
    ``targets``: integer labels ``(batch,)``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = np.asarray(targets)
        if predictions.ndim != 2:
            raise ValueError(f"expected 2-D logits, got shape {predictions.shape}")
        if targets.shape != (predictions.shape[0],):
            raise ValueError(
                f"targets shape {targets.shape} does not match batch "
                f"{predictions.shape[0]}"
            )
        if not np.issubdtype(targets.dtype, np.integer):
            raise TypeError("SoftmaxCrossEntropy expects integer class targets")
        self._probs = softmax(predictions, axis=1)
        self._targets = targets
        picked = self._probs[np.arange(targets.size), targets]
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        grad[np.arange(self._targets.size), self._targets] -= 1.0
        return grad / self._targets.size

    def batched(self) -> "BatchedSoftmaxCrossEntropy":
        return BatchedSoftmaxCrossEntropy()


class BatchedSoftmaxCrossEntropy(BatchedLoss):
    """Counterpart of :class:`SoftmaxCrossEntropy` over ``(C, batch,
    classes)`` logits and ``(C, batch)`` integer targets."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        targets = np.asarray(targets)
        if predictions.ndim != 3:
            raise ValueError(
                f"expected 3-D stacked logits, got shape {predictions.shape}"
            )
        if targets.shape != predictions.shape[:2]:
            raise ValueError(
                f"targets shape {targets.shape} does not match stacked "
                f"batch {predictions.shape[:2]}"
            )
        if not np.issubdtype(targets.dtype, np.integer):
            raise TypeError("SoftmaxCrossEntropy expects integer class targets")
        self._probs = softmax(predictions, axis=2)
        self._targets = targets
        c, n = targets.shape
        picked = self._probs[
            np.arange(c)[:, None], np.arange(n)[None, :], targets
        ]
        return -np.mean(np.log(np.clip(picked, 1e-12, None)), axis=1)

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        c, n = self._targets.shape
        grad = self._probs.copy()
        grad[
            np.arange(c)[:, None], np.arange(n)[None, :], self._targets
        ] -= 1.0
        return grad / n


class SigmoidBinaryCrossEntropy(Loss):
    """Binary cross-entropy over a single logit per example.

    ``predictions``: logits ``(batch,)`` or ``(batch, 1)``;
    ``targets``: labels in {0, 1} of matching shape.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._shape: tuple | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        self._shape = predictions.shape
        logits = predictions.reshape(-1)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if logits.shape != targets.shape:
            raise ValueError(
                f"predictions {predictions.shape} and targets do not align"
            )
        # log(1 + exp(-|z|)) + max(z, 0) - z*y  is the stable BCE form.
        loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0)
        loss -= logits * targets
        self._probs = sigmoid(logits)
        self._targets = targets
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None or self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = (self._probs - self._targets) / self._targets.size
        return grad.reshape(self._shape)

    def batched(self) -> "BatchedSigmoidBinaryCrossEntropy":
        return BatchedSigmoidBinaryCrossEntropy()


class BatchedSigmoidBinaryCrossEntropy(BatchedLoss):
    """Counterpart of :class:`SigmoidBinaryCrossEntropy` over stacked
    ``(C, batch)`` or ``(C, batch, 1)`` logits."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._shape: tuple | None = None

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        if predictions.ndim < 2:
            raise ValueError(
                f"expected stacked logits with a leading client axis, got "
                f"shape {predictions.shape}"
            )
        self._shape = predictions.shape
        c = predictions.shape[0]
        logits = predictions.reshape(c, -1)
        targets = np.asarray(targets, dtype=float).reshape(c, -1)
        if logits.shape != targets.shape:
            raise ValueError(
                f"predictions {predictions.shape} and targets do not align"
            )
        # Same stable BCE form as the serial loss, elementwise.
        loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0)
        loss -= logits * targets
        self._probs = sigmoid(logits)
        self._targets = targets
        return np.mean(loss, axis=1)

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None or self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = (self._probs - self._targets) / self._targets.shape[1]
        return grad.reshape(self._shape)

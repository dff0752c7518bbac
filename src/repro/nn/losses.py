"""Loss functions with fused, numerically stable gradients.

Each loss exposes ``forward(predictions, targets, training=...) ->
float`` (mean loss over the batch) and ``backward() -> grad`` w.r.t.
the predictions; like a layer, it caches for ``backward`` only on a
training forward, and ``backward`` consumes that cache.  The
softmax/sigmoid are fused into the cross-entropy losses so the gradient
is the plain ``probabilities - onehot`` form.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.activations import sigmoid, softmax
from repro.nn.module import BatchedUnsupported, claim_cache, keep_cache

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

    _cache: Optional[tuple] = None  # see repro.nn.module.keep_cache

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> float:
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

    def __call__(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> float:
        return self.forward(predictions, targets, training=training)


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

    _cache: Optional[tuple] = None  # see repro.nn.module.keep_cache

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> np.ndarray:
        return self.forward(predictions, targets, training=training)


class SoftmaxCrossEntropy(Loss):
    """Multi-class cross-entropy over logits with integer class targets.

    ``predictions``: logits ``(batch, classes)``;
    ``targets``: integer labels ``(batch,)``.
    """

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> float:
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
        probs = softmax(predictions, axis=1)
        keep_cache(self, training, None, (probs, targets))
        picked = probs[np.arange(targets.size), targets]
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))

    def backward(self) -> np.ndarray:
        probs, targets = claim_cache(self)
        grad = probs.copy()
        grad[np.arange(targets.size), targets] -= 1.0
        return grad / targets.size

    def batched(self) -> "BatchedSoftmaxCrossEntropy":
        return BatchedSoftmaxCrossEntropy()


class BatchedSoftmaxCrossEntropy(BatchedLoss):
    """Counterpart of :class:`SoftmaxCrossEntropy` over ``(C, batch,
    classes)`` logits and ``(C, batch)`` integer targets."""

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
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
        probs = softmax(predictions, axis=2)
        keep_cache(self, training, None, (probs, targets))
        c, n = targets.shape
        picked = probs[np.arange(c)[:, None], np.arange(n)[None, :], targets]
        return -np.mean(np.log(np.clip(picked, 1e-12, None)), axis=1)

    def backward(self) -> np.ndarray:
        probs, targets = claim_cache(self)
        c, n = targets.shape
        grad = probs.copy()
        grad[np.arange(c)[:, None], np.arange(n)[None, :], targets] -= 1.0
        return grad / n


class SigmoidBinaryCrossEntropy(Loss):
    """Binary cross-entropy over a single logit per example.

    ``predictions``: logits ``(batch,)`` or ``(batch, 1)``;
    ``targets``: labels in {0, 1} of matching shape.
    """

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> float:
        logits = predictions.reshape(-1)
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if logits.shape != targets.shape:
            raise ValueError(
                f"predictions {predictions.shape} and targets do not align"
            )
        # log(1 + exp(-|z|)) + max(z, 0) - z*y  is the stable BCE form.
        loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0)
        loss -= logits * targets
        keep_cache(
            self, training, None, (sigmoid(logits), targets, predictions.shape)
        )
        return float(np.mean(loss))

    def backward(self) -> np.ndarray:
        probs, targets, shape = claim_cache(self)
        return ((probs - targets) / targets.size).reshape(shape)

    def batched(self) -> "BatchedSigmoidBinaryCrossEntropy":
        return BatchedSigmoidBinaryCrossEntropy()


class BatchedSigmoidBinaryCrossEntropy(BatchedLoss):
    """Counterpart of :class:`SigmoidBinaryCrossEntropy` over stacked
    ``(C, batch)`` or ``(C, batch, 1)`` logits."""

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> np.ndarray:
        if predictions.ndim < 2:
            raise ValueError(
                f"expected stacked logits with a leading client axis, got "
                f"shape {predictions.shape}"
            )
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
        keep_cache(
            self, training, None, (sigmoid(logits), targets, predictions.shape)
        )
        return np.mean(loss, axis=1)

    def backward(self) -> np.ndarray:
        probs, targets, shape = claim_cache(self)
        return ((probs - targets) / targets.shape[1]).reshape(shape)

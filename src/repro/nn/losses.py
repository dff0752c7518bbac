"""Loss functions with fused, numerically stable gradients.

Each loss exposes ``forward(predictions, targets, training=...) ->
float`` (mean loss over the batch) and ``backward() -> grad`` w.r.t.
the predictions; like a layer, it caches for ``backward`` only on a
training forward, and ``backward`` consumes that cache.  The
softmax/sigmoid are fused into the cross-entropy losses so the gradient
is the plain ``probabilities - onehot`` form.  As with the layers, a
loss has one body, its stacked twin's: the serial loss is the one-row
case (:class:`Loss`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.activations import sigmoid, softmax
from repro.nn.module import TwinHolder, claim_cache, keep_cache

__all__ = [
    "BatchedLoss",
    "BatchedSigmoidBinaryCrossEntropy",
    "BatchedSoftmaxCrossEntropy",
    "Loss",
    "SigmoidBinaryCrossEntropy",
    "SoftmaxCrossEntropy",
]


class Loss(TwinHolder):
    """Base class: call ``forward`` then ``backward`` once per step.

    ``forward`` / ``backward`` run the stacked twin (:meth:`batched`) on
    ``predictions[None]`` / ``targets[None]`` and return row 0; the
    loss itself only records that a training forward happened.
    """

    _cache: Optional[tuple] = None  # see repro.nn.module.keep_cache
    _twin: "BatchedLoss"

    def _build_twin(self) -> "BatchedLoss":
        # Through the class, as TwinView builds a layer's twin.
        return type(self).batched(self)

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> float:
        loss = self._twin.forward(
            predictions[None], np.asarray(targets)[None], training=training
        )
        keep_cache(self, training, None, None)
        return float(loss[0])

    def backward(self) -> np.ndarray:
        claim_cache(self)
        return self._twin.backward()[0]

    def batched(self) -> "BatchedLoss":
        """Build this loss's batched-leading-axis counterpart.

        A loss without one cannot run on the batched executor; the
        serial executor runs it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched twin; "
            "the serial executor runs it"
        )

    def __call__(
        self, predictions: np.ndarray, targets: np.ndarray, training: bool = False
    ) -> float:
        return self.forward(predictions, targets, training=training)


class BatchedLoss:
    """Per-client loss over stacked predictions.

    ``forward`` takes ``(clients, batch, ...)`` predictions/targets and
    returns a ``(clients,)`` float64 vector whose every entry is
    bitwise what that client's slice gets alone — each client's mean
    reduces over its own contiguous row, never across the client axis.
    ``backward`` returns the stacked prediction gradient, scaled per
    client by that client's element count.
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

    def batched(self) -> "BatchedSoftmaxCrossEntropy":
        return BatchedSoftmaxCrossEntropy()


class BatchedSoftmaxCrossEntropy(BatchedLoss):
    """Body of :class:`SoftmaxCrossEntropy` over ``(C, batch,
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

    def batched(self) -> "BatchedSigmoidBinaryCrossEntropy":
        return BatchedSigmoidBinaryCrossEntropy()


class BatchedSigmoidBinaryCrossEntropy(BatchedLoss):
    """Body of :class:`SigmoidBinaryCrossEntropy` over stacked
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
        # log(1 + exp(-|z|)) + max(z, 0) - z*y  is the stable BCE form.
        loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0)
        loss -= logits * targets
        keep_cache(
            self, training, None, (sigmoid(logits), targets, predictions.shape)
        )
        return np.mean(loss, axis=1)

    def backward(self) -> np.ndarray:
        probs, targets, shape = claim_cache(self)
        return ((probs - targets) / targets.shape[1]).reshape(shape)

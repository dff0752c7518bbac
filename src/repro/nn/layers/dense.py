"""Fully connected layer."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.initializers import get_initializer
from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    TwinView,
    claim_cache,
    keep_cache,
)
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike

__all__ = ["BatchedDense", "Dense"]


class Dense(TwinView):
    """Affine map ``y = x @ W + b`` over the last axis.

    Accepts inputs of shape ``(batch, in_features)``; the body is
    :class:`BatchedDense`'s, with one row.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: RngLike = None,
        weight_init: str = "glorot_uniform",
        use_bias: bool = True,
        name: str = "dense",
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("in_features and out_features must be positive")
        init = get_initializer(weight_init)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init((in_features, out_features), rng), name=f"{name}.weight"
        )
        self.bias = (
            Parameter(np.zeros(out_features, dtype=float), name=f"{name}.bias")
            if use_bias
            else None
        )

    def parameters(self) -> List[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def batched(self, binder: BatchedParamBinder) -> "BatchedDense":
        return BatchedDense(self, binder)


class BatchedDense(BatchedModule):
    """Leading-client-axis body of :class:`Dense`.

    Takes ``(clients, batch, in)`` inputs against stacked weight views
    ``(clients, in, out)``.  Every per-client slice of the stacked
    operands has the shape and strides of the one-row operands, so the
    3-D ``matmul`` dispatches the identical per-slice GEMM and each
    client's output/gradients are bitwise what it gets alone; the
    bias-gradient ``sum(axis=1)`` accumulates over the batch axis only.
    """

    def __init__(self, layer: Dense, binder: BatchedParamBinder) -> None:
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self._w, self._dw = binder.bind(layer.weight)
        if layer.bias is not None:
            self._b, self._db = binder.bind(layer.bias)
        else:
            self._b = None
            self._db = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"expected input (clients, batch, {self.in_features}), "
                f"got {x.shape}"
            )
        out = x @ self._w
        if self._b is not None:
            out = out + self._b[:, None, :]
        keep_cache(self, training, out.shape, x)
        return out

    def _accumulate(self, grad_output: np.ndarray) -> None:
        x = claim_cache(self, grad_output.shape)
        self._dw += x.transpose(0, 2, 1) @ grad_output
        if self._db is not None:
            self._db += grad_output.sum(axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._accumulate(grad_output)
        return grad_output @ self._w.transpose(0, 2, 1)

    def head_backward(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)
        return None  # input gradient elided (see Module.head_backward)

"""Token embedding lookup layer."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.initializers import normal
from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    Module,
    claim_cache,
    keep_cache,
)
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike

__all__ = ["BatchedEmbedding", "Embedding"]


class Embedding(Module):
    """Map integer token ids ``(batch, time)`` to vectors ``(batch, time, dim)``."""

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        rng: RngLike = None,
        name: str = "embedding",
    ) -> None:
        if vocab_size < 1 or embedding_dim < 1:
            raise ValueError("vocab_size and embedding_dim must be positive")
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            normal((vocab_size, embedding_dim), rng, std=0.05), name=f"{name}.weight"
        )

    def parameters(self) -> List[Parameter]:
        return [self.weight]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ids = np.asarray(x)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise ValueError("token id out of range for vocabulary")
        out = self.weight.data[ids]
        keep_cache(self, training, out.shape, ids)
        return out

    def _accumulate(self, grad_output: np.ndarray) -> None:
        np.add.at(self.weight.grad, claim_cache(self, grad_output.shape), grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._accumulate(grad_output)
        # Token ids are not differentiable; return a zero placeholder of
        # the input's shape (the gradient's, less the vector axis).
        return np.zeros(grad_output.shape[:-1], dtype=float)

    def head_backward(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)
        return None  # zero placeholder elided (see Module.head_backward)

    def batched(self, binder: BatchedParamBinder) -> "BatchedEmbedding":
        return BatchedEmbedding(self, binder)


class BatchedEmbedding(BatchedModule):
    """Leading-client-axis counterpart of :class:`Embedding`.

    Gathers each client's token vectors from its own table row of the
    stacked ``(C, vocab, dim)`` weight view; the scatter-add in
    ``backward`` pairs a broadcast client index with the token ids, so
    ``np.add.at`` iterates the ids in flat C order — per client the
    identical in-order accumulation the serial layer performs, and
    never across clients (distinct tables).
    """

    def __init__(self, layer: Embedding, binder: BatchedParamBinder) -> None:
        self.vocab_size = layer.vocab_size
        self.embedding_dim = layer.embedding_dim
        self._w, self._dw = binder.bind(layer.weight)  # (C, vocab, dim)

    def _client_index(self, ids: np.ndarray) -> np.ndarray:
        shape = (-1,) + (1,) * (ids.ndim - 1)
        return np.arange(self._w.shape[0]).reshape(shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ids = np.asarray(x)
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError(f"Embedding expects integer ids, got dtype {ids.dtype}")
        if ids.ndim < 2 or ids.shape[0] != self._w.shape[0]:
            raise ValueError(
                f"expected ids (clients={self._w.shape[0]}, ...), got {ids.shape}"
            )
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab_size:
            raise ValueError("token id out of range for vocabulary")
        out = self._w[self._client_index(ids), ids]
        keep_cache(self, training, out.shape, ids)
        return out

    def _accumulate(self, grad_output: np.ndarray) -> None:
        ids = claim_cache(self, grad_output.shape)
        c_idx = np.broadcast_to(self._client_index(ids), ids.shape)
        np.add.at(self._dw, (c_idx, ids), grad_output)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._accumulate(grad_output)
        return np.zeros(grad_output.shape[:-1], dtype=float)

    def head_backward(self, grad_output: np.ndarray) -> None:
        self._accumulate(grad_output)
        return None  # zero placeholder elided (see Module.head_backward)

"""The paper's next-word-prediction LSTM (Sec. V-A workload 2).

A word-level 2-layer LSTM language model: after reading a fixed-length
word window it predicts the next word.  The paper uses 256 units per
layer; every experiment preset, ``paper`` included, trains the smaller
default (DESIGN.md §2 says why width is a substitution).
"""

from __future__ import annotations

from repro.nn.layers.dense import Dense
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.recurrent import LSTM
from repro.nn.module import Sequential
from repro.utils.rng import RngLike, child_rngs

__all__ = ["make_nwp_lstm"]


def make_nwp_lstm(
    vocab_size: int,
    embedding_dim: int = 16,
    hidden: int = 32,
    n_layers: int = 2,
    rng: RngLike = None,
) -> Sequential:
    """Build the embedding -> stacked LSTM -> softmax-logits model."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    rngs = child_rngs(rng, n_layers + 2)
    layers = [Embedding(vocab_size, embedding_dim, rng=rngs[0])]
    in_size = embedding_dim
    for i in range(n_layers):
        last = i == n_layers - 1
        layers.append(
            LSTM(
                in_size,
                hidden,
                rng=rngs[1 + i],
                return_sequences=not last,
                name=f"lstm{i + 1}",
            )
        )
        in_size = hidden
    layers.append(Dense(hidden, vocab_size, rng=rngs[-1], name="out"))
    return Sequential(layers)

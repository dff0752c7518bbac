"""A federated client: private data plus local optimisation.

Per the paper's Eq. (2), a client's *update* for round t is the total
parameter motion of its local training started from the broadcast
global model: u_{k,t} = x_local_final - x_{t-1} (the sum of its
-eta * gradient steps over E local epochs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.workspace import ModelWorkspace
from repro.utils.rng import RngLike, ensure_rng, restore_generator

__all__ = ["ClientUpdate", "FLClient"]


@dataclass
class ClientUpdate:
    """Result of one client's local round."""

    client_id: int
    update: np.ndarray
    n_samples: int
    train_loss: float


class FLClient:
    """One participating device: a data shard and a batching stream."""

    def __init__(
        self,
        client_id: int,
        train_data: Dataset,
        rng: RngLike = None,
    ) -> None:
        if client_id < 0:
            raise ValueError("client_id must be >= 0")
        self.client_id = client_id
        self.train_data = train_data  # ckpt: transient — immutable dataset, re-supplied at build
        self._rng = ensure_rng(rng)

    @property
    def n_samples(self) -> int:
        return len(self.train_data)

    def rng_state(self) -> Dict[str, Any]:
        """Picklable snapshot of the client's RNG stream position.

        Checkpoints and the population store persist this, so a resumed
        or re-materialized client continues its stream exactly where
        the original left off.
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`rng_state`."""
        if type(self._rng.bit_generator).__name__ != state["bit_generator"]:
            self._rng = restore_generator(state)
        else:
            self._rng.bit_generator.state = state

    def epoch_order(self) -> np.ndarray:
        """Draw one epoch's sample permutation from this client's stream.

        Exactly the single ``shuffle`` that ``Dataset.batches`` performs
        per epoch, exposed so the batched executor can drive per-client
        minibatch order while computing many clients jointly.  Local
        training consumes no other client randomness, so drawing all E
        epoch permutations up front leaves the stream in the same state
        as E serial epoch iterations — the client object stays the
        single source of RNG truth.
        """
        order = np.arange(self.n_samples)
        self._rng.shuffle(order)
        return order

    def compute_update(
        self,
        workspace: ModelWorkspace,
        global_params: np.ndarray,
        lr: float,
        local_epochs: int,
        batch_size: int,
    ) -> ClientUpdate:
        """Run E local epochs of minibatch SGD from ``global_params``.

        The workspace is loaded with the global model first, so calling
        this for many clients from a single shared workspace is safe.

        ``train_loss`` is the **flat mean over all E x B batch losses**
        — epochs and batches weighted equally, including the ragged
        final batch of each epoch (whose loss is already a mean over
        fewer samples).  This reduction is part of the cross-backend
        contract: the batched executor reproduces exactly the same
        per-client list of batch-loss floats and the same ``np.mean``
        over it, so loss histories digest-match bit for bit.
        """
        if lr <= 0:
            raise ValueError("lr must be positive")
        rng = self._rng  # first: a retired store view refuses before any work
        workspace.load_flat(global_params)
        losses = []
        for _ in range(local_epochs):
            for xb, yb in self.train_data.batches(batch_size, rng=rng):
                losses.append(workspace.train_step(xb, yb, lr))
        # Flatten straight into the update buffer and subtract in place:
        # one n_params allocation per client instead of two (the update
        # array itself must be fresh — it outlives this call).
        update = workspace.get_flat(
            out=np.empty(workspace.n_params, dtype=float)
        )
        update -= global_params
        return ClientUpdate(
            client_id=self.client_id,
            update=update,
            n_samples=self.n_samples,
            train_loss=float(np.mean(losses)),
        )

    def __repr__(self) -> str:
        return f"FLClient(id={self.client_id}, n={self.n_samples})"

"""Per-round client participation.

The paper assumes every client participates in every synchronous round.
Real deployments (McMahan et al., the paper's reference [5]) select a
cohort of clients per round out of whoever is online.  These samplers
slot into :class:`~repro.fl.trainer.FederatedTrainer` to model that
(devices dropping out mid-round are the async engine's ``drop_rate``);
CMFL is unchanged -- whoever participates still runs the relevance
check before uploading.

Samplers are **index-space**: :meth:`ClientSampler.select_indices`
draws client indices from ``range(n_population)`` without ever
materializing the pool, so the same sampler drives a 30-object client
list and a million-row :class:`~repro.fl.store.ClientStateStore`
(ROADMAP #2).  :meth:`ClientSampler.select` is a thin wrapper that
indexes into an eager client list; both paths consume identical RNG
draws, so digests are unchanged for existing workloads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.fl.client import FLClient
from repro.utils.rng import RngLike, ensure_rng, restore_generator

__all__ = [
    "ClientSampler",
    "FullParticipation",
    "UniformSampler",
]


class ClientSampler:
    """Chooses which clients train in a given round.

    Subclasses implement :meth:`select_indices` over the population
    index space; :meth:`select` derives the object-list form from it.
    ``state_dict``/``load_state_dict`` persist whatever a sampler needs
    to keep its selection sequence going across a checkpoint/resume
    (the RNG state, for the random samplers); deterministic samplers
    carry nothing.
    """

    def select_indices(self, iteration: int, n_population: int) -> np.ndarray:
        """Indices of this round's cohort, drawn from ``range(n_population)``.

        Cost must scale with the cohort, not the population: no
        O(n_population) Python list building per round.
        """
        raise NotImplementedError

    def select(self, iteration: int, clients: Sequence[FLClient]) -> List[FLClient]:
        indices = self.select_indices(iteration, len(clients))
        return [clients[int(i)] for i in indices]

    def state_dict(self) -> Dict[str, Any]:
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless, but the snapshot "
                f"carries state: {sorted(state)}"
            )


class FullParticipation(ClientSampler):
    """Every client, every round (the paper's setting)."""

    def select_indices(self, iteration: int, n_population: int) -> np.ndarray:
        del iteration
        return np.arange(n_population, dtype=np.int64)

    def select(self, iteration: int, clients: Sequence[FLClient]) -> List[FLClient]:
        del iteration
        return list(clients)


class UniformSampler(ClientSampler):
    """A uniformly random cohort of ``count`` clients per round — the
    cross-device setting where the cohort does not scale with the pool.
    The draw is one index-space ``rng.choice`` without replacement —
    O(cohort), independent of population size.
    """

    def __init__(self, count: int, rng: RngLike = None) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count  # ckpt: transient — constructor constant
        self._rng = ensure_rng(rng)

    def select_indices(self, iteration: int, n_population: int) -> np.ndarray:
        del iteration
        if self.count > n_population:
            raise ValueError(
                f"cohort count {self.count} exceeds population "
                f"{n_population}"
            )
        idx = self._rng.choice(n_population, size=self.count, replace=False)
        return np.sort(idx).astype(np.int64)

    def state_dict(self) -> Dict[str, Any]:
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._rng = restore_generator(state["rng"])

"""Client partitioners.

The paper's non-IID MNIST split sorts samples by label and hands each of
the 100 clients one contiguous 600-sample slice, so most clients see one
or two digit classes only (:func:`label_shard_partition` with
``shards_per_client=1``).  An IID partitioner is provided for
comparison, and :func:`group_partition` implements the
one-role-per-client Shakespeare split.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "group_partition",
    "iid_partition",
    "label_shard_partition",
]


def _validate(n_items: int, n_clients: int) -> None:
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if n_items < n_clients:
        raise ValueError(
            f"cannot split {n_items} samples across {n_clients} clients"
        )


def iid_partition(
    n_samples: int, n_clients: int, rng: RngLike = None
) -> List[np.ndarray]:
    """Uniformly random, near-equal-size partition."""
    _validate(n_samples, n_clients)
    order = np.arange(n_samples)
    ensure_rng(rng).shuffle(order)
    return [np.sort(part) for part in np.array_split(order, n_clients)]


def label_shard_partition(
    labels: Sequence[int],
    n_clients: int,
    shards_per_client: int = 1,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Sort-by-label shard split (the paper's pathological non-IID MNIST split).

    Samples are sorted by label, cut into ``n_clients * shards_per_client``
    contiguous shards, and each client receives ``shards_per_client``
    randomly chosen shards.
    """
    labels = np.asarray(labels)
    _validate(labels.size, n_clients)
    if shards_per_client < 1:
        raise ValueError("shards_per_client must be >= 1")
    n_shards = n_clients * shards_per_client
    if labels.size < n_shards:
        raise ValueError(
            f"{labels.size} samples cannot form {n_shards} shards"
        )
    sorted_idx = np.argsort(labels, kind="stable")
    shards = np.array_split(sorted_idx, n_shards)
    order = np.arange(n_shards)
    ensure_rng(rng).shuffle(order)
    parts: List[np.ndarray] = []
    for c in range(n_clients):
        mine = order[c * shards_per_client : (c + 1) * shards_per_client]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts


def group_partition(groups: Sequence[int]) -> List[np.ndarray]:
    """One client per distinct group id (e.g. one Shakespeare role each)."""
    groups = np.asarray(groups)
    if groups.size == 0:
        raise ValueError("groups cannot be empty")
    return [np.flatnonzero(groups == g) for g in np.unique(groups)]

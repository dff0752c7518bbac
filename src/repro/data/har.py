"""Synthetic Human-Activity-Recognition tasks (UCI HAR stand-in).

The paper's MTL experiment predicts *sitting vs. every other activity*
from 561 accelerometer features, with 142 clients holding 10-100
samples each.  We generate a Gaussian-prototype equivalent: a global
direction separates the two classes, every client perturbs it slightly
(task heterogeneity), and a configurable fraction of clients are
*outliers* whose class direction is strongly rotated -- the population
whose updates CMFL ends up filtering (paper Fig. 6 finds 37/142 such
clients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["TaskData", "make_har_tasks"]


@dataclass
class TaskData:
    """One client's (train, test) split plus its ground-truth outlier flag."""

    train: Dataset
    test: Dataset
    is_outlier: bool


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector cannot be normalised")
    return v / norm


def _make_binary_task(
    gen: np.random.Generator,
    prototype: np.ndarray,
    n_samples: int,
    noise_std: float,
    test_fraction: float,
    is_outlier: bool,
    label_flip_fraction: float,
) -> TaskData:
    n_features = prototype.size
    n_test = max(2, int(round(n_samples * test_fraction)))
    total = n_samples + n_test
    y = (np.arange(total) % 2).astype(np.int64)
    gen.shuffle(y)
    signs = np.where(y == 1, 1.0, -1.0)
    x = signs[:, None] * prototype[None, :] / 2.0
    x += gen.normal(0.0, noise_std, size=(total, n_features))
    y_train = y[:n_samples].copy()
    if is_outlier and label_flip_fraction > 0:
        # Outlier clients have corrupted *training* labels (a faulty
        # labelling pipeline); their test data follows the population
        # distribution, so a clean consensus model serves them too.
        flip = gen.random(n_samples) < label_flip_fraction
        y_train[flip] = 1 - y_train[flip]
    return TaskData(
        train=Dataset(x[:n_samples], y_train),
        test=Dataset(x[n_samples:], y[n_samples:]),
        is_outlier=is_outlier,
    )


def make_har_tasks(
    n_clients: int = 142,
    n_features: int = 561,
    outlier_fraction: float = 0.26,
    min_samples: int = 10,
    max_samples: int = 100,
    noise_std: float = 1.0,
    client_shift_std: float = 0.25,
    label_flip_fraction: float = 0.5,
    informative_fraction: float = 1.0,
    test_fraction: float = 0.25,
    rng: RngLike = None,
) -> List[TaskData]:
    """Generate the per-client HAR-like binary tasks.

    All clients share the global class direction up to a small
    perturbation, but *outlier* clients train on labels corrupted with
    ``label_flip_fraction`` flips: their local optimisations point away
    from the federation (low CMFL relevance) while their clean test data
    still follows the population distribution.
    """
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    if min_samples < 4 or max_samples < min_samples:
        raise ValueError("invalid sample range")
    if not 0.0 < informative_fraction <= 1.0:
        raise ValueError("informative_fraction must be in (0, 1]")
    gen = ensure_rng(rng)

    # Global class direction, spread over a configurable fraction of the
    # features (real accelerometer statistics are widely correlated).
    n_informative = max(8, int(round(informative_fraction * n_features)))
    informative = gen.choice(n_features, size=min(n_informative, n_features),
                             replace=False)
    mu = np.zeros(n_features)
    mu[informative] = gen.normal(0.0, 1.0, size=informative.size)
    mu = _unit(mu) * 2.0

    n_outliers = int(round(outlier_fraction * n_clients))
    outlier_flags = np.zeros(n_clients, dtype=bool)
    outlier_flags[gen.choice(n_clients, size=n_outliers, replace=False)] = True

    tasks: List[TaskData] = []
    for client in range(n_clients):
        shift = gen.normal(0.0, client_shift_std, size=n_features)
        prototype = mu + shift
        n_samples = int(gen.integers(min_samples, max_samples + 1))
        tasks.append(
            _make_binary_task(
                gen,
                prototype,
                n_samples,
                noise_std,
                test_fraction,
                bool(outlier_flags[client]),
                label_flip_fraction,
            )
        )
    return tasks

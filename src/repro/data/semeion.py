"""Synthetic Semeion handwritten-digit tasks.

The Semeion dataset is 1593 handwritten digits scanned to 16x16 binary
images; the paper predicts *zero vs. every other digit* across 15
clients holding 10-200 samples each.  We reuse the procedural digit
renderer at 16x16, binarise, and give each client a personal writing
style (a per-client rotation bias) so the multi-task structure is real.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.data.dataset import Dataset
from repro.data.har import TaskData
from repro.data.synthetic_digits import binarize_images, render_digit
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["make_semeion_tasks"]


def make_semeion_tasks(
    n_clients: int = 15,
    total_samples: int = 1593,
    min_samples: int = 10,
    max_samples: int = 200,
    positive_fraction: float = 0.5,
    outlier_fraction: float = 0.2,
    label_flip_fraction: float = 0.5,
    test_fraction: float = 0.25,
    image_size: int = 16,
    rng: RngLike = None,
) -> List[TaskData]:
    """Generate per-client Semeion-like binary tasks (is the digit a 0?).

    Client sample counts are drawn in ``[min_samples, max_samples]`` and
    rescaled to sum to ``total_samples``.  Each client's digits share a
    style bias (a fixed rotation offset), making tasks related but
    distinct -- the regime MOCHA targets.  A fraction of clients are
    outliers whose *training* labels carry heavy flip noise (their test
    labels stay clean), mirroring the HAR generator.
    """
    from scipy import ndimage  # see render_digit

    if n_clients < 1:
        raise ValueError("need at least 1 client")
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError("positive_fraction must be in (0, 1)")
    if not 0.0 <= outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in [0, 1)")
    gen = ensure_rng(rng)

    raw_counts = gen.integers(min_samples, max_samples + 1, size=n_clients)
    counts = np.maximum(
        min_samples, (raw_counts / raw_counts.sum() * total_samples).astype(int)
    )
    n_outliers = int(round(outlier_fraction * n_clients))
    outlier_flags = np.zeros(n_clients, dtype=bool)
    if n_outliers:
        outlier_flags[gen.choice(n_clients, size=n_outliers, replace=False)] = True

    tasks: List[TaskData] = []
    for client in range(n_clients):
        n = int(counts[client])
        n_test = max(2, int(round(n * test_fraction)))
        total = n + n_test
        style_rotation = float(gen.uniform(-20.0, 20.0))

        labels = (gen.random(total) < positive_fraction).astype(np.int64)
        images = []
        for is_zero in labels:
            digit = 0 if is_zero else int(gen.integers(1, 10))
            img = render_digit(
                digit, gen, image_size=image_size, max_rotation_deg=8.0, max_shift=1
            )
            img = ndimage.rotate(
                img, style_rotation, reshape=False, order=1, mode="constant"
            )
            images.append(img)
        x = binarize_images(np.stack(images), threshold=0.45).reshape(total, -1)
        y_train = labels[:n].copy()
        if outlier_flags[client] and label_flip_fraction > 0:
            flip = gen.random(n) < label_flip_fraction
            y_train[flip] = 1 - y_train[flip]
        tasks.append(
            TaskData(
                train=Dataset(x[:n], y_train),
                test=Dataset(x[n:], labels[n:]),
                is_outlier=bool(outlier_flags[client]),
            )
        )
    return tasks

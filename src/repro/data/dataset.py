"""A minimal in-memory dataset with deterministic batching."""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Dataset", "train_test_split"]


class Dataset:
    """Paired arrays ``x`` (features) and ``y`` (targets) of equal length.

    Row ``i`` is row ``(start + i) % len(source)`` of ``source``: the
    dataset itself from row 0, unless it came from :meth:`window` — so
    rows of many windows of one source can be gathered from it at once.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x)
        y = np.asarray(y)
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} rows but y has {len(y)}")
        if len(x) == 0:
            raise ValueError("dataset cannot be empty")
        self.x = x
        self.y = y
        self._source: Optional["Dataset"] = None  # None: itself (no cycle)
        self.start = 0

    @property
    def source(self) -> "Dataset":
        return self if self._source is None else self._source

    def __len__(self) -> int:
        return len(self.x)

    def window(self, start: int, stop: int) -> "Dataset":
        """Rows ``(start + i) % len(self)`` for ``i < stop - start``: a
        zero-copy view while ``stop <= len(self)``, else a gathered copy."""
        n = len(self)
        if not (0 <= start < n and start < stop <= start + n):
            raise ValueError(
                f"window [{start}, {stop}) does not fit a dataset of {n} rows"
            )
        rows = slice(start, stop) if stop <= n else np.arange(start, stop) % n
        window = Dataset(self.x[rows], self.y[rows])
        window._source, window.start = self, start
        return window

    def split(self, parts: Sequence[Sequence[int]]) -> List["Dataset"]:
        """One dataset per part of row indices, each a :meth:`window` of
        one new source that holds the parts' rows gathered once, in part
        order."""
        idx = [np.asarray(part, dtype=np.intp) for part in parts]
        if not idx or min(part.size for part in idx) == 0:
            raise ValueError("cannot split into an empty part")
        order = np.concatenate(idx)
        return Dataset(self.x[order], self.y[order]).windows(
            [part.size for part in idx]
        )

    def windows(self, sizes: Sequence[int]) -> List["Dataset"]:
        """Consecutive windows (:meth:`window`) of ``sizes`` rows each, from row 0."""
        stops = np.cumsum(sizes).tolist()
        return [self.window(stop - size, stop) for size, stop in zip(sizes, stops)]

    def batches(
        self, batch_size: int, rng: RngLike = None, shuffle: bool = True
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x, y)`` minibatches covering the dataset once.

        The final batch may be smaller than ``batch_size``.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        order = np.arange(len(self))
        if shuffle:
            ensure_rng(rng).shuffle(order)
        for start in range(0, len(self), batch_size):
            idx = order[start : start + batch_size]
            yield self.x[idx], self.y[idx]

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, x_shape={self.x.shape[1:]})"


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, rng: RngLike = None
) -> Tuple[Dataset, Dataset]:
    """Random split into (train, test), windows of one shuffled copy;
    both parts are non-empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise ValueError("dataset too small to split")
    order = np.arange(n)
    ensure_rng(rng).shuffle(order)
    train, test = dataset.split([order[n_test:], order[:n_test]])
    return train, test

"""Procedurally rendered handwritten-digit stand-in for MNIST.

Each digit 0-9 has a 7x5 stroke bitmap (a classic seven-segment-style
glyph font).  A sample is produced by upscaling the glyph, applying a
random rotation, shift and intensity jitter, and adding pixel noise --
enough within-class variation that the paper's CNN has something to
learn, while the between-class structure keeps the task solvable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["binarize_images", "make_digit_dataset", "render_digit"]

# 7 rows x 5 columns stroke bitmaps for digits 0..9.
_GLYPHS_RAW = [
    # 0
    ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    # 1
    ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    # 2
    ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    # 3
    ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    # 4
    ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    # 5
    ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    # 6
    ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    # 7
    ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    # 8
    ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    # 9
    ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
]

GLYPHS = np.array(
    [[[int(ch) for ch in row] for row in glyph] for glyph in _GLYPHS_RAW],
    dtype=float,
)

N_CLASSES = 10


def render_digit(
    digit: int,
    rng: RngLike = None,
    image_size: int = 28,
    max_rotation_deg: float = 10.0,
    max_shift: int = 2,
    noise_std: float = 0.05,
) -> np.ndarray:
    """Render one ``(image_size, image_size)`` sample of ``digit`` in [0, 1]."""
    # Imported on first use, so that ``import repro`` does not load
    # scipy: only the digit and Semeion generators and MOCHA need it.
    from scipy import ndimage

    if not 0 <= digit < N_CLASSES:
        raise ValueError(f"digit must be in [0, {N_CLASSES}), got {digit}")
    if image_size < 16:
        raise ValueError("image_size must be >= 16")
    gen = ensure_rng(rng)

    scale = max(1, (image_size - 2 * max_shift - 2) // 7)
    glyph = np.kron(GLYPHS[digit], np.ones((scale, scale)))
    # Slight stroke-weight variation.
    glyph = ndimage.gaussian_filter(glyph, sigma=gen.uniform(0.4, 0.9))

    canvas = np.zeros((image_size, image_size))
    gh, gw = glyph.shape
    top = (image_size - gh) // 2
    left = (image_size - gw) // 2
    canvas[top : top + gh, left : left + gw] = glyph

    angle = gen.uniform(-max_rotation_deg, max_rotation_deg)
    canvas = ndimage.rotate(canvas, angle, reshape=False, order=1, mode="constant")
    shift = gen.integers(-max_shift, max_shift + 1, size=2)
    canvas = ndimage.shift(canvas, shift, order=1, mode="constant")

    canvas *= gen.uniform(0.8, 1.2)
    canvas += gen.normal(0.0, noise_std, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def make_digit_dataset(
    n_samples: int,
    rng: RngLike = None,
    image_size: int = 28,
    flat: bool = False,
    class_balance: bool = True,
) -> Dataset:
    """Generate a digit dataset.

    Images have shape ``(1, image_size, image_size)`` (NCHW single
    channel), or ``(image_size**2,)`` with ``flat=True``.  Labels are
    the digits 0-9.  ``class_balance=True`` cycles classes so counts
    differ by at most one.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = ensure_rng(rng)
    if class_balance:
        labels = np.arange(n_samples) % N_CLASSES
        gen.shuffle(labels)
    else:
        labels = gen.integers(0, N_CLASSES, size=n_samples)
    images = np.stack(
        [render_digit(int(d), gen, image_size=image_size) for d in labels]
    )
    if flat:
        x = images.reshape(n_samples, -1)
    else:
        x = images[:, None, :, :]
    return Dataset(x, labels.astype(np.int64))


def binarize_images(images: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Threshold grayscale images to {0, 1} (Semeion-style features)."""
    return (np.asarray(images) >= threshold).astype(float)

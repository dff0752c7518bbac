"""Procedurally rendered handwritten-digit stand-in for MNIST.

Each digit 0-9 has a 7x5 stroke bitmap (a classic seven-segment-style
glyph font).  A sample is produced by upscaling the glyph, applying a
random rotation, shift and intensity jitter, and adding pixel noise --
enough within-class variation that the paper's CNN has something to
learn, while the between-class structure keeps the task solvable.

Each image takes its draws one at a time -- blur sigma, rotation angle,
integer shift, gain, pixel noise, in that order -- and the images are
rendered with numpy a chunk at a time.  The blur and the rotation copy
scipy's order-1 image arithmetic operation for operation, so every
image is bit for bit what scipy's ``gaussian_filter`` / ``rotate`` /
``shift`` made of the same draws when this module called them; the scipy
original is kept in ``tests/reference_kernels.py`` and
``tests/test_reference_kernels.py`` compares the bytes.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "binarize_images",
    "draw_digit_labels",
    "make_digit_dataset",
    "render_digit",
    "render_digits",
    "rotate_images",
]

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


#: Images rendered per numpy pass.  Bounds the renderer's temporaries
#: (about a dozen ``(chunk, size, size)`` float arrays) whatever the
#: dataset size: building ``DigitsWorkload("bench")`` (1,450 20-px
#: images) peaks 1.7 MiB above what it keeps, against 13.1 MiB at 256
#: (tracemalloc).  Builds at 32 are no slower than at 256; at 16 a
#: 6,000-image render took a third longer.
RENDER_CHUNK = 32

# cephes ``sindg`` / ``cosdg`` (``scipy.special``): polynomial
# coefficients on one octant, and pi / 180.
_SIN_COEF = (
    1.58962301572218447952e-10, -2.50507477628503540135e-8,
    2.75573136213856773549e-6, -1.98412698295895384658e-4,
    8.33333333332211858862e-3, -1.66666666666666307295e-1,
)
_COS_COEF = (
    1.13678171382044553091e-11, -2.08758833757683644217e-9,
    2.75573155429816611547e-7, -2.48015872936186303776e-5,
    1.38888888888806666760e-3, -4.16666666666666348141e-2,
    4.99999999999999999798e-1,
)
_PI180 = 1.74532925199432957692e-2


def _polevl(x: np.ndarray, coef: Tuple[float, ...]) -> np.ndarray:
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out = out * x + c
    return out


def _cos_sin_deg(degrees: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """cephes ``cosdg`` and ``sindg``, elementwise, operation for operation."""
    negative = degrees < 0
    x = np.where(negative, -degrees, degrees)
    y = np.floor(x / 45.0)
    octant = (y - np.ldexp(np.floor(np.ldexp(y, -4)), 4)).astype(np.int64)
    odd = (octant & 1).astype(bool)  # map zeros to origin
    octant = (octant + odd) & 7
    z = (x - (y + odd) * 45.0) * _PI180  # x mod 45 degrees, in radians
    zz = z * z
    sin_series = z + z * (zz * _polevl(zz, _SIN_COEF))
    cos_series = 1.0 - zz * _polevl(zz, _COS_COEF)
    swap = (octant & 3 == 1) | (octant & 3 == 2)
    cos = np.where(swap, sin_series, cos_series)
    sin = np.where(swap, cos_series, sin_series)
    flip_cos = (octant > 3) ^ (octant & 3 > 1)
    flip_sin = (octant > 3) ^ negative
    return np.where(flip_cos, -cos, cos), np.where(flip_sin, -sin, sin)


def _gaussian_taps(sigma: np.ndarray) -> np.ndarray:
    """``w[b, j]``: image ``b``'s Gaussian weight at distance ``j``.

    scipy's order-0 kernel (radius ``int(4 sigma + 0.5)``, normalised
    by its own sum), zero past each image's radius.
    """
    radius = (4.0 * sigma + 0.5).astype(np.int64)
    taps = np.zeros((sigma.size, int(radius.max()) + 1))
    for r in np.unique(radius):
        rows = radius == r
        x = np.arange(-r, r + 1)
        phi = np.exp((-0.5 / (sigma[rows] * sigma[rows]))[:, None] * x**2)
        phi = phi / phi.sum(axis=1, keepdims=True)
        taps[rows, : r + 1] = phi[:, r:]
    return taps


def _blur(images: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``gaussian_filter(image, sigma)`` (mode "reflect") per image.

    scipy's symmetric-kernel ``correlate1d`` on axis 0 then axis 1:
    ``x * w[0]``, then ``+= (x[-j] + x[+j]) * w[j]`` for ``j = r .. 1``.
    A tap past an image's own radius weighs zero and adds ``+0.0``.
    """
    taps = _gaussian_taps(sigma)[:, :, None, None]
    r = taps.shape[1] - 1
    for _ in range(2):
        n = images.shape[1]
        padded = np.pad(images, ((0, 0), (r, r), (0, 0)), mode="symmetric")
        out = images * taps[:, 0]
        for j in range(r, 0, -1):
            left, right = padded[:, r - j : r - j + n], padded[:, r + j : r + j + n]
            out += (left + right) * taps[:, j]
        images = out.swapaxes(1, 2)
    return images


def rotate_images(images: np.ndarray, angle: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """scipy's ``rotate(img, angle, reshape=False, order=1, mode="constant")``,
    then ``shift(img, shift, order=1, mode="constant")``, per image of a
    ``(b, size, size)`` stack; ``shift`` is ``(b, 2)`` integers.

    An integer shift at order 1 is an exact translate with zero fill,
    so output pixel ``p`` reads the rotation at ``p - shift``.  The
    rotation follows scipy's affine transform: ``offset = centre - M @
    centre`` (a matmul, as scipy computes it), source coordinate
    ``(offset[h] + o0 * M[h, 0]) + o1 * M[h, 1]``, zero outside
    ``[0, size - 1]``, and four ``(v * w_row) * w_col`` terms summed in
    row-major order.
    """
    b, size, _ = images.shape
    cos, sin = _cos_sin_deg(angle)
    matrix = np.stack([cos, sin, -sin, cos], axis=1).reshape(b, 2, 2)
    centre = np.full(2, (size - 1) / 2)
    offset = centre - matrix @ centre
    grid = np.arange(size)
    o0 = (grid - shift[:, :1])[:, :, None]  # (b, size, 1) rows of the rotation
    o1 = (grid - shift[:, 1:])[:, None, :]  # (b, 1, size) columns
    inside = (o0 >= 0) & (o0 < size) & (o1 >= 0) & (o1 < size)
    corners = []
    for h in range(2):
        m = matrix[:, h, :, None, None]
        coord = (offset[:, h, None, None] + o0 * m[:, 0]) + o1 * m[:, 1]
        inside &= (coord >= 0) & (coord <= size - 1)
        start = np.floor(coord)
        w0 = 1.0 - (coord - start)
        # At coord == size - 1 the far neighbour weighs 0, so reading
        # the edge pixel in its place changes nothing.
        first = np.clip(start, 0, size - 1).astype(np.intp)
        corners.append(((first, w0), (np.minimum(first + 1, size - 1), 1.0 - w0)))
    flat = images.reshape(-1)
    base = np.arange(b)[:, None, None] * (size * size)
    out = 0.0
    for row, w_row in corners[0]:
        for col, w_col in corners[1]:
            out = out + (flat[base + row * size + col] * w_row) * w_col
    return np.where(inside, out, 0.0)


def _draw(
    gen: np.random.Generator,
    image_size: int,
    max_rotation_deg: float,
    max_shift: int,
    noise_std: float,
) -> tuple:
    """One image's draws, in the order the renderer has always taken them."""
    return (
        gen.uniform(0.4, 0.9),  # blur sigma: stroke weight
        gen.uniform(-max_rotation_deg, max_rotation_deg),
        gen.integers(-max_shift, max_shift + 1, size=2),
        gen.uniform(0.8, 1.2),  # intensity gain
        gen.normal(0.0, noise_std, size=(image_size, image_size)),
    )


def _render_chunk(digits: List[int], draws: List[tuple], max_shift: int) -> np.ndarray:
    sigma, angle, shift, gain, noise = (np.array(col) for col in zip(*draws))
    b, size = noise.shape[:2]
    scale = max(1, (size - 2 * max_shift - 2) // 7)
    glyph = _blur(GLYPHS[digits].repeat(scale, axis=1).repeat(scale, axis=2), sigma)
    canvas = np.zeros((b, size, size))
    gh, gw = glyph.shape[1:]
    top = (size - gh) // 2
    left = (size - gw) // 2
    canvas[:, top : top + gh, left : left + gw] = glyph
    canvas = rotate_images(canvas, angle, shift)
    canvas *= gain[:, None, None]
    canvas += noise
    return np.clip(canvas, 0.0, 1.0, out=canvas)


def render_digits(
    digits: Iterable[int],
    n: int,
    rng: RngLike = None,
    image_size: int = 28,
    max_rotation_deg: float = 10.0,
    max_shift: int = 2,
    noise_std: float = 0.05,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One sample of each of ``n`` digits, ``(n, image_size, image_size)`` in [0, 1].

    ``digits`` is read one image at a time, just before that image's
    draws, so a digit drawn from ``rng`` keeps its place in the stream.
    Images are rendered in that order whatever their destination: image
    ``i`` lands in row ``rows[i]`` (``i`` by default) of the result.
    """
    if image_size < 16:
        raise ValueError("image_size must be >= 16")
    gen = ensure_rng(rng)
    digits = iter(digits)
    out = np.empty((n, image_size, image_size))
    for start in range(0, n, RENDER_CHUNK):
        chunk_digits, draws = [], []
        for _ in range(min(RENDER_CHUNK, n - start)):
            digit = int(next(digits))
            if not 0 <= digit < N_CLASSES:
                raise ValueError(f"digit must be in [0, {N_CLASSES}), got {digit}")
            chunk_digits.append(digit)
            draws.append(
                _draw(gen, image_size, max_rotation_deg, max_shift, noise_std)
            )
        stop = start + len(draws)
        dest = slice(start, stop) if rows is None else rows[start:stop]
        out[dest] = _render_chunk(chunk_digits, draws, max_shift)
    return out


def render_digit(
    digit: int,
    rng: RngLike = None,
    image_size: int = 28,
    max_rotation_deg: float = 10.0,
    max_shift: int = 2,
    noise_std: float = 0.05,
) -> np.ndarray:
    """Render one ``(image_size, image_size)`` sample of ``digit`` in [0, 1]."""
    return render_digits(
        [digit], 1, rng, image_size, max_rotation_deg, max_shift, noise_std
    )[0]


def draw_digit_labels(
    n_samples: int, rng: RngLike = None, class_balance: bool = True
) -> np.ndarray:
    """The labels :func:`make_digit_dataset` draws from ``rng`` before
    rendering: ``class_balance=True`` shuffles a cycle of the classes,
    so counts differ by at most one."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = ensure_rng(rng)
    if class_balance:
        labels = np.arange(n_samples) % N_CLASSES
        gen.shuffle(labels)
        return labels
    return gen.integers(0, N_CLASSES, size=n_samples)


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
    the digits 0-9 (:func:`draw_digit_labels`), then each image is
    rendered from the same ``rng``.
    """
    gen = ensure_rng(rng)
    labels = draw_digit_labels(n_samples, gen, class_balance)
    images = render_digits(labels, n_samples, gen, image_size=image_size)
    if flat:
        x = images.reshape(n_samples, -1)
    else:
        x = images[:, None, :, :]
    return Dataset(x, labels.astype(np.int64))


def binarize_images(images: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Threshold grayscale images to {0, 1} (Semeion-style features)."""
    return (np.asarray(images) >= threshold).astype(float)

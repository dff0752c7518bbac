"""2-D convolution and max pooling, implemented with im2col.

Inputs use the NCHW layout: ``(batch, channels, height, width)``.

:class:`Conv2D` is the one-row case of its stacked twin
:class:`BatchedConv2D`, whose kernels are written over a leading
client axis (see :class:`repro.nn.module.TwinView`).  The unfold
(:func:`im2col`) and the pooling window split take any leading batch
shape; the fold (:func:`_fold_clients`) takes a leading client axis.
DESIGN 6b says what these kernels move and which arithmetic they pin.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.activations import select_grad
from repro.nn.initializers import get_initializer
from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    BatchedStateless,
    Module,
    TwinView,
    claim_cache,
    keep_cache,
)
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike

__all__ = [
    "BatchedConv2D",
    "Conv2D",
    "MaxPool2D",
    "col2im",
    "im2col",
]

#: Images per unfold on an inference forward.  A training forward keeps
#: its whole batch's columns for backward; an evaluation batch of 250
#: 20-px images would unfold into 12.2 MiB of conv1 columns at once.
INFER_BLOCK = 32


def _out_size(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def _out_shape(h: int, w: int, kh: int, kw: int, stride: int) -> Tuple[int, int]:
    out_h, out_w = _out_size(h, kh, stride), _out_size(w, kw, stride)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel ({kh}x{kw}) larger than input ({h}x{w})")
    return out_h, out_w


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Unfold sliding windows of ``x`` into columns.

    ``x`` is ``(..., channels, height, width)`` with any strides.
    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(..., channels * kh * kw, out_h * out_w)``.
    """
    *lead, c, h, w = x.shape
    out_h, out_w = _out_shape(h, w, kh, kw, stride)
    *lead_strides, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(*lead, c, kh, kw, out_h, out_w),
        strides=(*lead_strides, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    cols = windows.reshape(*lead, c * kh * kw, out_h * out_w)
    # Reshaping the window view already materialises a fresh
    # C-contiguous array whenever the kernel spans more than one element,
    # so an unconditional ``np.ascontiguousarray`` would only re-check
    # the flags.  The check below keeps the 1x1-kernel edge case, where
    # reshape can return a read-only view aliasing ``x``, from escaping
    # uncopied (``test_im2col_returns_an_owned_contiguous_array``).
    if not cols.flags["C_CONTIGUOUS"] or not cols.flags["WRITEABLE"]:
        cols = cols.copy()
    return cols, out_h, out_w


@functools.lru_cache(maxsize=16)
def _fold_index(
    n: int, ch: int, h: int, w: int, kh: int, kw: int, stride: int
) -> np.ndarray:
    """Where each window gradient of one client lands.

    Entry ``e`` of a client's ``(ch, kh, kw, n, out_h, out_w)`` window
    gradients, flattened, adds into element ``index[e]`` of its
    flattened ``(n, ch, h, w)`` input gradient.  One client's geometry
    only — K·n·L entries whatever the cohort — and read-only, since the
    cache hands the same array to every caller.
    """
    out_h, out_w = _out_size(h, kh, stride), _out_size(w, kw, stride)
    c, i, j, img, oy, ox = np.ogrid[:ch, :kh, :kw, :n, :out_h, :out_w]
    index = ((img * ch + c) * h + i + stride * oy) * w + j + stride * ox
    index = index.reshape(-1)
    index.flags.writeable = False
    return index


def _fold_clients(
    dcols: np.ndarray, n: int, ch: int, h: int, w: int, kh: int, kw: int,
    stride: int,
) -> np.ndarray:
    """Accumulate window gradients back onto the ``h x w`` planes.

    ``dcols`` is ``(clients, ch * kh * kw, n * out_h * out_w)``, the
    layout the ``dcols`` GEMM writes; the result is the input gradient
    ``(clients, n, ch, h, w)``.  Per client, one ``np.bincount`` adds
    the window gradients in memory order onto a ``+0.0`` buffer, so
    every plane element receives its overlapping windows in
    ``(i, j)``-lexicographic order — the accumulation chain DESIGN 6b
    pins — and lands directly in the result layout.  bincount
    accumulates in float64.
    """
    c = dcols.shape[0]
    index = _fold_index(n, ch, h, w, kh, kw, stride)
    size = n * ch * h * w
    out = np.empty((c, size), dtype=np.float64)
    for row, src in zip(out, dcols.reshape(c, -1)):
        row[...] = np.bincount(index, weights=src, minlength=size)
    return out.reshape(c, n, ch, h, w)


def col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int
) -> np.ndarray:
    """Fold column gradients back into an image-shaped gradient.

    Inverse (adjoint) of :func:`im2col`: overlapping windows accumulate.
    Each image's ``(c * kh * kw, L)`` columns are a one-image client of
    :func:`_fold_clients`.
    """
    n, c, h, w = x_shape
    return _fold_clients(cols, 1, c, h, w, kh, kw, stride).reshape(x_shape)


class Conv2D(TwinView):
    """Valid-padding 2-D convolution (optionally with symmetric zero padding).

    The body is :class:`BatchedConv2D`'s, with one row.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: RngLike = None,
        weight_init: str = "glorot_uniform",
        name: str = "conv",
    ) -> None:
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid kernel_size/stride/padding")
        init = get_initializer(weight_init)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init((out_channels, in_channels, kernel_size, kernel_size), rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(
            np.zeros(out_channels, dtype=float), name=f"{name}.bias"
        )

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def batched(self, binder: BatchedParamBinder) -> "BatchedConv2D":
        return BatchedConv2D(self, binder)


class BatchedConv2D(BatchedModule):
    """Leading-client-axis body of :class:`Conv2D`.

    Inputs are ``(clients, batch, channels, H, W)``, convolved against
    views of the binder's stacked parameter and gradient rows.
    """

    def __init__(self, layer: Conv2D, binder: BatchedParamBinder) -> None:
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self._w, self._dw = binder.bind(layer.weight)  # (C, F, ch, k, k)
        self._b, self._db = binder.bind(layer.bias)  # (C, F)
        # Each client's row of the stacked flat vector is contiguous, so
        # collapsing the kernel axes stays a view into the binder arrays.
        self._w_rows = self._w.reshape(
            self._w.shape[0], self.out_channels, -1
        )
        if self._w_rows.base is None:
            raise RuntimeError(
                "stacked conv weight rows materialised a copy; forward "
                "would read stale parameters"
            )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"expected input (clients, batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        k, pad = self.kernel_size, self.padding
        c, n, _, h, w = x.shape
        out_h, out_w = _out_shape(h + 2 * pad, w + 2 * pad, k, k, self.stride)
        out = np.empty((c, n, self.out_channels, out_h * out_w), dtype=np.float64)
        # Training unfolds the whole batch as one block (backward reads
        # its columns and padded shape); inference unfolds INFER_BLOCK
        # images at a time, so its columns are bounded by the block,
        # not the batch.  An empty batch still unfolds once.
        step = n if training else INFER_BLOCK
        for start in range(0, n, step) if n else (0,):
            cols = None  # the last block's columns go before the next unfold
            block = x[:, start : start + step]
            if pad:
                block = np.pad(block, ((0, 0),) * 3 + ((pad, pad),) * 2)
            cols = im2col(block, k, k, self.stride)[0]
            # One BLAS GEMM per image (broadcast matmul) rather than a
            # c_einsum contraction: dgemm is SIMD-blocked where einsum
            # runs naive loops.  matmul loops BLAS over 2-D slices, and
            # each per-client slice has the same operand shapes and
            # strides whatever the client or block count (binder rows
            # are contiguous per client, every image's output slab is
            # contiguous), so every slice is bitwise the one-row,
            # whole-batch result.
            np.matmul(self._w_rows[:, None], cols, out=out[:, start : start + step])
        out += self._b[:, None, :, None]
        out = out.reshape(c, n, self.out_channels, out_h, out_w)
        keep_cache(self, training, out.shape, (cols, block.shape))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._backward(grad_output, head=False)

    def head_backward(self, grad_output: np.ndarray) -> None:
        # Parameter gradients are bitwise those of ``backward``.
        return self._backward(grad_output, head=True)

    def _backward(self, grad_output: np.ndarray, head: bool) -> Optional[np.ndarray]:
        """Accumulate into the stacked ``dw`` / ``db`` in place and
        return the stacked input gradient — or None for the network
        ``head``, whose input gradient (the dcols GEMM plus the fold,
        the layer's most expensive backward ops) is dead work.
        """
        cols, (c, n, ch, h, w) = claim_cache(self, grad_output.shape)
        k, stride, pad = self.kernel_size, self.stride, self.padding
        f = self.out_channels
        grad_flat = grad_output.reshape(c, n, f, -1)
        # One (F, L) x (L, K) dgemm per image, then a sum over the image
        # axis in image order: the transpose is a stride swap (no copy)
        # that BLAS absorbs as its transposed-operand form.
        self._dw += (
            np.matmul(grad_flat, cols.transpose(0, 1, 3, 2))
            .sum(axis=1)
            .reshape(self._dw.shape)
        )
        self._db += grad_flat.sum(axis=(1, 3))
        if head:
            return None
        # Fold the image axis into the GEMM's column dimension: one
        # (K, F) x (F, n*L) dgemm per client instead of one tiny GEMM per
        # image.  Only output columns are folded — the contraction axis
        # (F) is untouched, so each output element is the same
        # ascending-f accumulation whatever the image count.
        grad_cols = grad_flat.transpose(0, 2, 1, 3).reshape(c, f, -1)
        dcols = np.matmul(self._w_rows.transpose(0, 2, 1), grad_cols)
        dx = _fold_clients(dcols, n, ch, h, w, k, k, stride)
        if pad:
            dx = np.ascontiguousarray(dx[..., pad:-pad, pad:-pad])
        return dx


class MaxPool2D(Module):
    """Non-overlapping max pooling (``stride == kernel_size``) over the
    last two axes of a ``(..., H, W)`` input.

    The spatial extent must be divisible by the pool size; the paper's
    models (28x28 images, 2x2 pools) satisfy this.  Pooling is
    per-plane and parameter-free, so the stacked twin is a fresh
    instance fed the ``(clients, batch, channels, H, W)`` tensor as is.
    """

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim < 3:
            raise ValueError(
                f"expected (..., channels, H, W) input, got shape {x.shape}"
            )
        *lead, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(f"input {h}x{w} not divisible by pool size {p}")
        if not training:
            # Nothing to route: fold the window positions in slab order
            # (the order ``slabs.max`` reduces in) straight off strided
            # views of the input, with no de-interleaved copy.
            windows = x.reshape(*lead, h // p, p, w // p, p)
            out = windows[..., 0, :, 0].copy()
            for k in range(1, p * p):
                np.maximum(out, windows[..., k // p, :, k % p], out=out)
            keep_cache(self, training, out.shape, None)
            return out
        # De-interleave once: slab k = i*p + j holds window position
        # (i, j) of every window, contiguously, so the maxima and
        # comparisons below are flat passes instead of stride-p ones.
        nd = len(lead)
        slabs = np.ascontiguousarray(
            x.reshape(*lead, h // p, p, w // p, p).transpose(
                nd + 1, nd + 3, *range(nd), nd, nd + 2
            )
        ).reshape(p * p, *lead, h // p, w // p)
        # The output is pure selection, so values are exact under any
        # evaluation order.  The gradient goes to the first slab that
        # equals the maximum — row-major within the window, ties (the
        # common case after ReLU) to the lower index, argmax's rule.
        out = slabs.max(axis=0)
        wins = slabs == out
        seen = wins[0].copy()
        for k in range(1, p * p):
            np.greater(wins[k], seen, out=wins[k])  # equal here, nowhere before
            seen |= wins[k]
        keep_cache(self, training, out.shape, (wins, x.shape))
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        wins, in_shape = claim_cache(self, grad_output.shape)
        w = in_shape[-1]
        p = self.pool_size
        # Windows are disjoint, so every input element is its window's
        # gradient or +0.0: select per slab in one flat pass, then
        # interleave the slabs back with one stride-p store per j.
        picked = select_grad(wins.reshape(p, p, -1), grad_output.reshape(-1))
        dx = np.empty(in_shape, dtype=np.float64)
        rows = dx.reshape(-1, p, w // p, p)  # (window row, i, window, j)
        for j in range(p):
            rows[:, :, :, j] = picked[:, j].reshape(p, -1, w // p).transpose(1, 0, 2)
        return dx

    def batched(self, binder: BatchedParamBinder) -> BatchedStateless:
        del binder  # parameter-free
        return BatchedStateless(MaxPool2D(self.pool_size))

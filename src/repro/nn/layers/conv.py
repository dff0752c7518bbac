"""2-D convolution and max pooling, implemented with im2col.

Inputs use the NCHW layout: ``(batch, channels, height, width)``.

:class:`Conv2D` is the one-row case of its stacked twin
:class:`BatchedConv2D`, whose kernels are written over a leading
client axis (see :class:`repro.nn.module.TwinView`).  The
data-movement half — :func:`im2col`, :func:`_fold`, the pooling window
split — takes any leading batch shape.  DESIGN 6b says what these
kernels move and which arithmetic they pin.
"""

from __future__ import annotations

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


def _out_size(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Unfold sliding windows of ``x`` into columns.

    ``x`` is ``(..., channels, height, width)`` with any strides.
    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(..., channels * kh * kw, out_h * out_w)``.
    """
    *lead, c, h, w = x.shape
    out_h, out_w = _out_size(h, kh, stride), _out_size(w, kw, stride)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel ({kh}x{kw}) larger than input ({h}x{w})")
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


def _fold(cols: np.ndarray, h: int, w: int, stride: int) -> np.ndarray:
    """Accumulate window gradients back onto the ``h x w`` plane.

    ``cols`` is a ``(*batch, kh, kw, out_h, out_w)`` view with any
    strides; the result is the accumulator itself, ``(h, w, *batch)``
    — batch axes innermost, so each of the ``kh * kw`` adds below is
    ``out_h`` long contiguous runs on both sides instead of one
    ``out_w``-element run per (batch, row).  Every plane element still
    receives its overlapping windows in ``(i, j)``-lexicographic order
    on top of ``+0.0``.  Callers crop and transpose back in one copy.
    """
    *batch, kh, kw, out_h, out_w = cols.shape
    nb = len(batch)
    src = np.ascontiguousarray(
        cols.transpose(nb, nb + 1, nb + 2, nb + 3, *range(nb))
    )
    acc = np.zeros((h, w, *batch), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + stride * out_h, stride)
            window = acc[rows, j : j + stride * out_w : stride]
            window += src[i, j]
    return acc


def col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int
) -> np.ndarray:
    """Fold column gradients back into an image-shaped gradient.

    Inverse (adjoint) of :func:`im2col`: overlapping windows accumulate.
    """
    n, c, h, w = x_shape
    windows = cols.reshape(
        n, c, kh, kw, _out_size(h, kh, stride), _out_size(w, kw, stride)
    )
    return np.ascontiguousarray(_fold(windows, h, w, stride).transpose(2, 3, 0, 1))


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
        k = self.kernel_size
        if self.padding:
            pad = (self.padding, self.padding)
            x = np.pad(x, ((0, 0), (0, 0), (0, 0), pad, pad))
        cols, out_h, out_w = im2col(x, k, k, self.stride)
        # One BLAS GEMM per image (broadcast matmul) rather than a
        # c_einsum contraction: dgemm is SIMD-blocked where einsum runs
        # naive loops.  matmul loops BLAS over 2-D slices, and each
        # per-client slice has the same operand shapes and strides
        # whatever the client count (binder rows are contiguous per
        # client), so every client slice is bitwise the one-row result.
        out = np.matmul(self._w_rows[:, None], cols)
        out += self._b[:, None, :, None]
        out = out.reshape(out.shape[:3] + (out_h, out_w))
        keep_cache(self, training, out.shape, (cols, x.shape))
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
        # A pure-view permutation of the (client, K, n*L) layout; image
        # before client, so the fold's innermost source run is the
        # merged (client, channel) axis rather than ``ch`` elements.
        windows = dcols.reshape(
            c, ch, k, k, n, _out_size(h, k, stride), -1
        ).transpose(4, 0, 1, 2, 3, 5, 6)
        acc = _fold(windows, h, w, stride)  # (h, w, n, c, ch)
        if pad:
            acc = acc[pad:-pad, pad:-pad]
        return np.ascontiguousarray(acc.transpose(3, 2, 4, 0, 1))


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

"""2-D convolution and max pooling, implemented with im2col.

Inputs use the NCHW layout: ``(batch, channels, height, width)``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.nn.initializers import get_initializer
from repro.nn.module import BatchedModule, BatchedParamBinder, Module
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike

__all__ = [
    "BatchedConv2D",
    "BatchedMaxPool2D",
    "Conv2D",
    "MaxPool2D",
    "col2im",
    "im2col",
]


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> Tuple[np.ndarray, int, int]:
    """Unfold sliding windows of ``x`` into columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(batch, channels * kh * kw, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(f"kernel ({kh}x{kw}) larger than input ({h}x{w})")
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    # Reshaping the transposed window view already materialises a fresh
    # C-contiguous array whenever the kernel spans more than one element,
    # so an unconditional ``np.ascontiguousarray`` would only re-check
    # the flags.  The check below keeps the 1x1-kernel edge case, where
    # reshape can return a read-only view aliasing ``x``, from escaping
    # uncopied (``test_im2col_returns_an_owned_contiguous_array``).
    if not cols.flags["C_CONTIGUOUS"] or not cols.flags["WRITEABLE"]:
        cols = cols.copy()
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int, stride: int
) -> np.ndarray:
    """Fold column gradients back into an image-shaped gradient.

    Inverse (adjoint) of :func:`im2col`: overlapping windows accumulate.
    """
    n, c, h, w = x_shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    dx = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                cols6[:, :, i, j]
            )
    return dx


class Conv2D(Module):
    """Valid-padding 2-D convolution (optionally with symmetric zero padding)."""

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
        self._cols: np.ndarray | None = None
        self._x_padded_shape: Tuple[int, int, int, int] | None = None
        self._out_hw: Tuple[int, int] | None = None

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        if self.padding:
            pad = self.padding
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        cols, out_h, out_w = im2col(x, self.kernel_size, self.kernel_size, self.stride)
        self._cols = cols
        self._x_padded_shape = x.shape
        self._out_hw = (out_h, out_w)
        w_rows = self.weight.data.reshape(self.out_channels, -1)
        # One BLAS GEMM per image (broadcast matmul) rather than a
        # c_einsum contraction: dgemm is SIMD-blocked where einsum runs
        # naive loops, and the batched executor reuses the identical
        # per-slice GEMM, which keeps the backends bitwise-equal.
        out = np.matmul(w_rows[None], cols)
        out += self.bias.data[None, :, None]
        return out.reshape(x.shape[0], self.out_channels, out_h, out_w)

    def _param_grads(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate dW/db; returns grad_output flattened to (n, F, L)."""
        if self._cols is None or self._out_hw is None or self._x_padded_shape is None:
            raise RuntimeError("backward called before forward")
        n = grad_output.shape[0]
        out_h, out_w = self._out_hw
        grad_flat = grad_output.reshape(n, self.out_channels, out_h * out_w)
        # One (F, L) x (L, K) dgemm per image, then a sum over the
        # image axis: the transpose is a stride swap (no copy) that
        # BLAS absorbs as its transposed-operand form, and the batched
        # layer repeats the identical per-slice GEMMs and sum order.
        dw = np.matmul(grad_flat, self._cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        self.bias.grad += grad_flat.sum(axis=(0, 2))
        return grad_flat

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_flat = self._param_grads(grad_output)
        w_rows = self.weight.data.reshape(self.out_channels, -1)
        dcols = np.matmul(w_rows.T[None], grad_flat)
        dx = col2im(
            dcols, self._x_padded_shape, self.kernel_size, self.kernel_size, self.stride
        )
        if self.padding:
            pad = self.padding
            dx = dx[:, :, pad:-pad, pad:-pad]
        return dx

    def head_backward(self, grad_output: np.ndarray) -> None:
        # As the network head the input gradient — the dcols GEMM plus
        # the col2im fold, the layer's most expensive backward ops —
        # is dead work; parameter gradients are bitwise-unchanged.
        self._param_grads(grad_output)
        return None

    def batched(self, binder: BatchedParamBinder) -> "BatchedConv2D":
        return BatchedConv2D(self, binder)


class BatchedConv2D(BatchedModule):
    """Leading-client-axis counterpart of :class:`Conv2D`.

    Inputs are ``(clients, batch, channels, H, W)``.  The unfold/fold
    halves (:func:`im2col`, :func:`col2im`) carry no weights, so the
    client and image axes are collapsed into one big image batch and
    the serial helpers are reused verbatim (pure data movement).  The
    contractions are the serial layer's broadcast ``np.matmul`` GEMMs
    with one more leading batch axis: matmul loops BLAS over 2-D
    slices, and each per-client slice has exactly the serial operand
    shapes and strides (binder rows are contiguous per client), so the
    very same dgemm calls run and every client slice stays bitwise
    equal to the serial layer.
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
        self._cols: np.ndarray | None = None
        self._x_padded_shape: Tuple[int, ...] | None = None
        self._out_hw: Tuple[int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"expected input (clients, batch, {self.in_channels}, H, W), "
                f"got {x.shape}"
            )
        if self.padding:
            pad = self.padding
            x = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)))
        c, n = x.shape[0], x.shape[1]
        folded = x.reshape((c * n,) + x.shape[2:])
        cols, out_h, out_w = im2col(
            folded, self.kernel_size, self.kernel_size, self.stride
        )
        self._cols = cols.reshape(c, n, cols.shape[1], cols.shape[2])
        self._x_padded_shape = x.shape
        self._out_hw = (out_h, out_w)
        out = np.matmul(self._w_rows[:, None], self._cols)
        out += self._b[:, None, :, None]
        return out.reshape(c, n, self.out_channels, out_h, out_w)

    def _param_grads(self, grad_output: np.ndarray) -> np.ndarray:
        """Accumulate dW/db; returns grad_output as (c, n, F, L)."""
        if self._cols is None or self._out_hw is None or self._x_padded_shape is None:
            raise RuntimeError("backward called before forward")
        c, n = grad_output.shape[0], grad_output.shape[1]
        out_h, out_w = self._out_hw
        grad_flat = grad_output.reshape(c, n, self.out_channels, out_h * out_w)
        # The serial backward's per-image GEMMs and image-axis sum with
        # one more leading batch axis; summing axis 1 visits images in
        # the serial order for every (c, f, k) output element.
        dw = np.matmul(
            grad_flat, self._cols.transpose(0, 1, 3, 2)
        ).sum(axis=1)
        self._dw += dw.reshape(self._dw.shape)
        self._db += grad_flat.sum(axis=(1, 3))
        return grad_flat

    def head_backward(self, grad_output: np.ndarray) -> None:
        self._param_grads(grad_output)
        return None  # input gradient elided (see Module.head_backward)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_flat = self._param_grads(grad_output)
        c, n = grad_flat.shape[0], grad_flat.shape[1]
        # Fold the image axis into the GEMM's column dimension: one
        # (K, F) x (F, n*L) dgemm per client instead of one tiny GEMM
        # per image.  Only output columns are folded — the contraction
        # axis (F) is untouched, so each output element is the same
        # ascending-f accumulation the per-image GEMM performs and the
        # result stays bitwise equal to the serial layer's dcols.
        grad_cols = grad_flat.transpose(0, 2, 1, 3).reshape(
            c, self.out_channels, -1
        )
        dcols = np.matmul(self._w_rows.transpose(0, 2, 1), grad_cols)
        # Inline col2im on a pure-view permutation of the folded
        # (client, K, n*L) layout — same (i, j) accumulation order per
        # input element as the serial fold, without re-copying dcols
        # into per-image layout first.
        k = self.kernel_size
        out_h, out_w = self._out_hw
        cols7 = dcols.reshape(
            c, self.in_channels, k, k, n, out_h, out_w
        ).transpose(0, 4, 1, 2, 3, 5, 6)
        dx = np.zeros(self._x_padded_shape, dtype=dcols.dtype)
        s = self.stride
        for i in range(k):
            for j in range(k):
                dx[
                    :, :, :, i : i + s * out_h : s, j : j + s * out_w : s
                ] += cols7[:, :, :, i, j]
        if self.padding:
            pad = self.padding
            dx = dx[:, :, :, pad:-pad, pad:-pad]
        return dx


class MaxPool2D(Module):
    """Non-overlapping max pooling (``stride == kernel_size``).

    The input spatial extent must be divisible by the pool size; the
    paper's models (28x28 images, 2x2 pools) satisfy this.
    """

    def __init__(self, pool_size: int = 2) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.pool_size = pool_size
        self._idx: np.ndarray | None = None
        self._in_shape: Tuple[int, ...] | None = None
        # Flat offsets of each block's top-left corner, cached per input
        # shape: backward's scatter then needs no index-grid rebuild.
        self._base: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        del training
        if x.ndim != 4:
            raise ValueError(f"expected 4-D input, got shape {x.shape}")
        n, c, h, w = x.shape
        p = self.pool_size
        if h % p or w % p:
            raise ValueError(f"input {h}x{w} not divisible by pool size {p}")
        self._in_shape = x.shape
        # Route via the index of the block maximum (row-major within
        # each p*p window, ties to the first maximum).  The output is
        # pure selection — the element the block max would return — so
        # values are exact under any evaluation order.
        if p == 2:
            # Pairwise-maximum fast path: four strided views of the
            # 2x2 block corners, three elementwise maxima, and a
            # branchless first-max index — no block transpose copy, no
            # argmax pass.  ``b > a`` is False on ties, so every
            # comparison resolves ties toward the lower flat index,
            # exactly argmax's first-max rule.
            x6 = x.reshape(n, c, h // 2, 2, w // 2, 2)
            a = x6[:, :, :, 0, :, 0]
            b = x6[:, :, :, 0, :, 1]
            cc = x6[:, :, :, 1, :, 0]
            d = x6[:, :, :, 1, :, 1]
            top = np.maximum(a, b)
            bottom = np.maximum(cc, d)
            self._idx = np.where(bottom > top, (d > cc) + 2, (b > a) + 0)
            return np.maximum(top, bottom)
        blocks = x.reshape(n, c, h // p, p, w // p, p).transpose(0, 1, 2, 4, 3, 5)
        flat = blocks.reshape(n, c, h // p, w // p, p * p)
        idx = flat.argmax(axis=-1)
        self._idx = idx
        return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._idx is None or self._in_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._in_shape
        p = self.pool_size
        # Scatter each block's gradient straight to its argmax position
        # in the flat input: blocks are disjoint, so this writes exactly
        # the elements a put_along_axis over unfolded blocks would.  The
        # top-left-corner offsets depend only on the input shape and are
        # cached across steps.
        base = self._base
        if base is None or base.shape != self._idx.shape:
            base = (
                (
                    np.arange(n)[:, None, None, None] * c
                    + np.arange(c)[None, :, None, None]
                )
                * h
                + np.arange(0, h, p)[None, None, :, None]
            ) * w + np.arange(0, w, p)[None, None, None, :]
            self._base = base
        flat = base + (self._idx // p) * w + self._idx % p
        dx = np.zeros(n * c * h * w, dtype=grad_output.dtype)
        dx[flat.reshape(-1)] = grad_output.reshape(-1)
        return dx.reshape(n, c, h, w)

    def batched(self, binder: BatchedParamBinder) -> "BatchedMaxPool2D":
        del binder  # parameter-free
        return BatchedMaxPool2D(self)


class BatchedMaxPool2D(BatchedModule):
    """Leading-client-axis counterpart of :class:`MaxPool2D`.

    Pooling is per-image and parameter-free, so the client and image
    axes fold into one big batch through a fresh serial instance (fresh
    so the batched pass never clobbers the serial workspace's mask
    cache); block max/argmax are pure data selection, hence bitwise
    identical per client slice.
    """

    def __init__(self, layer: MaxPool2D) -> None:
        self._inner = MaxPool2D(layer.pool_size)
        self._lead: Tuple[int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 5:
            raise ValueError(f"expected 5-D input, got shape {x.shape}")
        self._lead = (x.shape[0], x.shape[1])
        folded = x.reshape((x.shape[0] * x.shape[1],) + x.shape[2:])
        out = self._inner.forward(folded, training=training)
        return out.reshape(self._lead + out.shape[1:])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._lead is None:
            raise RuntimeError("backward called before forward")
        folded = grad_output.reshape(
            (grad_output.shape[0] * grad_output.shape[1],) + grad_output.shape[2:]
        )
        dx = self._inner.backward(folded)
        return dx.reshape(self._lead + dx.shape[1:])

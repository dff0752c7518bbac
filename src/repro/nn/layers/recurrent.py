"""LSTM layer with full backpropagation through time.

:class:`LSTM` and its stacked twin :class:`BatchedLSTM` share **one**
time loop, :func:`_lstm_forward` / :func:`_lstm_backward`, written over
a leading client axis.  The serial layer calls it with ``x[None]`` and
``w[None]``: a one-row stacked ``matmul`` issues the same per-slice
dgemm as the 2-D product and every elementwise op is stacking-
invariant, so serial is — bit for bit — the C = 1 case of batched.
DESIGN 6b lists what the loop hoists and the fusions it refuses.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.module import (
    BatchedModule,
    BatchedParamBinder,
    Module,
    claim_cache,
    keep_cache,
)
from repro.nn.parameter import Parameter
from repro.utils.rng import RngLike, child_rngs

__all__ = ["BatchedLSTM", "LSTM"]


def _lstm_forward(
    x: np.ndarray, params: Sequence[np.ndarray], return_sequences: bool
) -> Tuple[np.ndarray, tuple]:
    """The LSTM recurrence over ``(clients, batch, time, features)``.

    ``params`` is ``w_x (C, in, 4h)``, ``w_h (C, h, 4h)``, ``bias
    (C, 4h)``; gate order ``[input, forget, cell, output]``.  Returns
    the stacked hidden sequence ``(C, n, T, h)`` or final state
    ``(C, n, h)``, and the cache for :func:`_lstm_backward`.

    The arithmetic is the textbook loop's, operation for operation;
    what it avoids is memory traffic.  Gates go straight into the
    ``(T, C, n, 4h)`` buffer — one ``sigmoid`` over the whole
    contiguous ``z`` (cheaper than two over strided gate slices; the
    ``g`` quarter is overwritten by the ``tanh`` that belongs there) —
    and ``tanh(c_t)`` is kept for backward.
    """
    w_x, w_h, bias = params
    c, n, t, _ = x.shape
    h = w_h.shape[1]
    hs = np.zeros((t + 1, c, n, h), dtype=float)
    cs = np.zeros((t + 1, c, n, h), dtype=float)
    gates = np.empty((t, c, n, 4 * h), dtype=float)
    tanh_c = np.empty((t, c, n, h), dtype=float)
    bias = bias[:, None, :]
    for step in range(t):
        z = x[:, :, step, :] @ w_x
        z += hs[step] @ w_h
        z += bias
        gate = gates[step]
        gate[...] = sigmoid(z)
        np.tanh(z[..., 2 * h : 3 * h], out=gate[..., 2 * h : 3 * h])
        cs[step + 1] = (
            gate[..., h : 2 * h] * cs[step]
            + gate[..., :h] * gate[..., 2 * h : 3 * h]
        )
        np.tanh(cs[step + 1], out=tanh_c[step])
        hs[step + 1] = gate[..., 3 * h :] * tanh_c[step]
    cache = (x, hs, cs, gates, tanh_c)
    if return_sequences:
        return hs[1:].transpose(1, 2, 0, 3), cache
    return hs[-1].copy(), cache


def _lstm_backward(
    cache: tuple,
    grad_output: np.ndarray,
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
) -> np.ndarray:
    """Backpropagation through time for :func:`_lstm_forward`.

    Parameter gradients are **added** to ``grads`` (``dw_x``, ``dw_h``,
    ``db``: strided views into the stacked flat gradient on the batched
    path); the stacked input gradient is returned.  The cache is
    consumed — ``gates`` and ``tanh_c`` are overwritten once read.

    Only what feeds the recurrence is stepped.  The factors that do not
    (``1-i``, ``1-f``, ``1-g^2``, ``1-o``, ``1-tanh^2 c`` and the slabs
    ``[g, c_{t-1}, i, tanh c]`` / ``[i, f, 1, o]``) are computed once,
    so a step's ``dz`` is three ``(C, n, 4h)`` multiplies in the
    textbook association order (``dg`` gains an exact ``*1.0``); the
    input gradient and bias sums come after the loop from the stored
    ``dz``, as the same per-(step, client) GEMM / batch-axis sum.  The
    weight gradients keep the per-step ``grad += x_t^T dz_t`` chain,
    added through a ``(C, in * 4h)`` view of the gradient rows (numpy
    adds that at contiguous speed, the 3-D view four times slower).
    """
    x, hs, cs, gates, tanh_c = cache
    w_x, w_h, _ = params
    dw_x, dw_h, db = grads
    c, n, t, _ = x.shape
    h = hs.shape[-1]
    if grad_output.ndim == 4:
        grad_h_seq = grad_output.transpose(2, 0, 1, 3)
    else:
        grad_h_seq = np.zeros((t, c, n, h), dtype=float)
        grad_h_seq[-1] = grad_output

    # dz = ((d * first) * second) * third with d = [dc, dc, dc, dh].
    gate_g = gates[..., 2 * h : 3 * h]
    first = np.empty_like(gates, dtype=float)
    first[..., :h] = gate_g
    first[..., h : 2 * h] = cs[:-1]
    first[..., 2 * h : 3 * h] = gates[..., :h]
    first[..., 3 * h :] = tanh_c
    third = 1.0 - gates
    third[..., 2 * h : 3 * h] = 1.0 - gate_g**2
    second = gates
    gate_g[...] = 1.0
    gate_f = gates[..., h : 2 * h]
    gate_o = gates[..., 3 * h :]
    dtanh_c = np.square(tanh_c, out=tanh_c)
    np.subtract(1.0, dtanh_c, out=dtanh_c)

    x_t = x.transpose(2, 0, 3, 1)  # [step] == x[:, :, step, :].T per client
    hs_t = hs.transpose(0, 1, 3, 2)
    w_h_t = w_h.transpose(0, 2, 1)
    step_dw_x = np.empty(w_x.shape, dtype=float)
    step_dw_h = np.empty(w_h.shape, dtype=float)
    dw_x2 = dw_x.reshape(c, -1)
    dw_h2 = dw_h.reshape(c, -1)
    if not (np.may_share_memory(dw_x2, dw_x) and np.may_share_memory(dw_h2, dw_h)):
        raise RuntimeError("gradient rows do not flatten to a view")

    d = np.empty((c, n, 4 * h), dtype=float)
    d_cell = d[..., : 3 * h].reshape(c, n, 3, h)
    d_out = d[..., 3 * h :]
    dh_next = np.zeros((c, n, h), dtype=float)
    dc_next = np.zeros((c, n, h), dtype=float)
    for step in range(t - 1, -1, -1):
        dh = grad_h_seq[step] + dh_next
        dc = dc_next + dh * gate_o[step] * dtanh_c[step]
        d_cell[...] = dc[:, :, None, :]
        d_out[...] = dh
        dz = np.multiply(d, first[step], out=first[step])
        dz *= second[step]
        dz *= third[step]

        np.matmul(x_t[step], dz, out=step_dw_x)
        dw_x2 += step_dw_x.reshape(c, -1)
        np.matmul(hs_t[step], dz, out=step_dw_h)
        dw_h2 += step_dw_h.reshape(c, -1)

        dh_next = dz @ w_h_t
        dc_next = dc * gate_f[step]
    # ``first`` now holds every step's dz; the bias chain keeps the
    # t = T-1 ... 0 order.
    for step_db in first.sum(axis=2)[::-1]:
        db += step_db
    return (first @ w_x.transpose(0, 2, 1)).transpose(1, 2, 0, 3)


class LSTM(Module):
    """A single LSTM layer over ``(batch, time, features)`` inputs.

    Gate ordering inside the fused kernels is ``[input, forget, cell,
    output]``.  With ``return_sequences=True`` the layer emits the full
    hidden sequence ``(batch, time, hidden)``; otherwise only the final
    hidden state ``(batch, hidden)``.  The forget-gate bias is
    initialised to 1, the standard trick for stable early training.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: RngLike = None,
        return_sequences: bool = True,
        name: str = "lstm",
    ) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError("input_size and hidden_size must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences
        rng_x, rng_h = child_rngs(rng, 2)
        h = hidden_size
        self.w_x = Parameter(
            glorot_uniform((input_size, 4 * h), rng_x), name=f"{name}.w_x"
        )
        recurrent = np.concatenate(
            [orthogonal((h, h), rng_h) for _ in range(4)], axis=1
        )
        self.w_h = Parameter(recurrent, name=f"{name}.w_h")
        bias = np.zeros(4 * h, dtype=float)
        bias[h : 2 * h] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, name=f"{name}.bias")

    def parameters(self) -> List[Parameter]:
        return [self.w_x, self.w_h, self.bias]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ValueError(
                f"expected input (batch, time, {self.input_size}), got {x.shape}"
            )
        out, cache = _lstm_forward(
            x[None], [p.data[None] for p in self.parameters()],
            self.return_sequences,
        )
        keep_cache(self, training, out.shape[1:], cache)
        return out[0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cache = claim_cache(self, grad_output.shape)
        return _lstm_backward(
            cache,
            grad_output[None],
            [p.data[None] for p in self.parameters()],
            [p.grad[None] for p in self.parameters()],
        )[0]

    def batched(self, binder: BatchedParamBinder) -> "BatchedLSTM":
        return BatchedLSTM(self, binder)


class BatchedLSTM(BatchedModule):
    """Leading-client-axis counterpart of :class:`LSTM`.

    Inputs are ``(clients, batch, time, features)``; the layer runs the
    very loop the serial layer runs with one row, each step's matmuls
    once over the whole client stack.  Per-client operand slices keep
    the serial shapes and strides — including the strided
    ``x[:, :, step, :]`` time slice, whose per-client layout matches
    the serial ``x[:, step, :]`` — so every gate, state and gradient is
    bitwise equal to the serial layer per client; the bias gradient
    reduces over the batch axis, never across clients.
    """

    def __init__(self, layer: LSTM, binder: BatchedParamBinder) -> None:
        self.input_size = layer.input_size
        self.hidden_size = layer.hidden_size
        self.return_sequences = layer.return_sequences
        # w_x (C, in, 4h), w_h (C, h, 4h), bias (C, 4h)
        bound = [binder.bind(p) for p in layer.parameters()]
        self._params = [data for data, _ in bound]
        self._grads = [grad for _, grad in bound]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.input_size:
            raise ValueError(
                "expected input (clients, batch, time, "
                f"{self.input_size}), got {x.shape}"
            )
        out, cache = _lstm_forward(x, self._params, self.return_sequences)
        keep_cache(self, training, out.shape, cache)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cache = claim_cache(self, grad_output.shape)
        return _lstm_backward(cache, grad_output, self._params, self._grads)

"""Reference kernels: the arithmetic the shipped kernels must reproduce.

These are the pre-rewrite ``sigmoid`` (boolean-mask form) and LSTM time
loops (four gate temporaries + ``np.concatenate`` per step, one
gradient read-modify-write per step), kept verbatim so "same bits as
before" is something the tier-1 suite asserts rather than something only
a digest file remembers.  They are deliberately slow and deliberately
not shared with ``src/``: a reference that imports the code under test
checks nothing.
"""

import numpy as np


def masked_sigmoid(x):
    """Numerically stable logistic function, boolean-mask form."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_forward(x, w_x, w_h, bias, return_sequences):
    """Serial LSTM forward over ``(batch, time, features)``.

    Returns ``(output, cache)``.
    """
    n, t, _ = x.shape
    h = w_h.shape[0]
    hs = np.zeros((t + 1, n, h), dtype=float)
    cs = np.zeros((t + 1, n, h), dtype=float)
    gates = np.zeros((t, n, 4 * h), dtype=float)
    for step in range(t):
        z = x[:, step, :] @ w_x + hs[step] @ w_h + bias
        i = masked_sigmoid(z[:, :h])
        f = masked_sigmoid(z[:, h : 2 * h])
        g = np.tanh(z[:, 2 * h : 3 * h])
        o = masked_sigmoid(z[:, 3 * h :])
        cs[step + 1] = f * cs[step] + i * g
        hs[step + 1] = o * np.tanh(cs[step + 1])
        gates[step] = np.concatenate([i, f, g, o], axis=1)
    cache = {"x": x, "hs": hs, "cs": cs, "gates": gates}
    if return_sequences:
        return hs[1:].transpose(1, 0, 2), cache
    return hs[-1].copy(), cache


def lstm_backward(cache, grad_output, w_x, w_h, dw_x, dw_h, db, return_sequences):
    """Serial LSTM backward; accumulates into ``dw_x``/``dw_h``/``db``
    in place and returns ``dx``."""
    x = cache["x"]
    hs = cache["hs"]
    cs = cache["cs"]
    gates = cache["gates"]
    n, t, _ = x.shape
    h = w_h.shape[0]

    if return_sequences:
        grad_h_seq = grad_output.transpose(1, 0, 2)
    else:
        grad_h_seq = np.zeros((t, n, h), dtype=float)
        grad_h_seq[-1] = grad_output

    dx = np.zeros_like(x)
    dh_next = np.zeros((n, h), dtype=float)
    dc_next = np.zeros((n, h), dtype=float)
    for step in range(t - 1, -1, -1):
        i = gates[step][:, :h]
        f = gates[step][:, h : 2 * h]
        g = gates[step][:, 2 * h : 3 * h]
        o = gates[step][:, 3 * h :]
        c = cs[step + 1]
        tanh_c = np.tanh(c)

        dh = grad_h_seq[step] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)

        di = dc * g * i * (1.0 - i)
        df = dc * cs[step] * f * (1.0 - f)
        dg = dc * i * (1.0 - g**2)
        do = dh * tanh_c * o * (1.0 - o)
        dz = np.concatenate([di, df, dg, do], axis=1)

        dw_x += x[:, step, :].T @ dz
        dw_h += hs[step].T @ dz
        db += dz.sum(axis=0)

        dx[:, step, :] = dz @ w_x.T
        dh_next = dz @ w_h.T
        dc_next = dc * f
    return dx


def stacked_lstm_forward(x, w_x, w_h, bias, return_sequences):
    """Leading-client-axis LSTM forward over
    ``(clients, batch, time, features)``.  Returns ``(output, cache)``."""
    c, n, t, _ = x.shape
    h = w_h.shape[1]
    hs = np.zeros((t + 1, c, n, h), dtype=float)
    cs = np.zeros((t + 1, c, n, h), dtype=float)
    gates = np.zeros((t, c, n, 4 * h), dtype=float)
    bias = bias[:, None, :]
    for step in range(t):
        z = x[:, :, step, :] @ w_x + hs[step] @ w_h + bias
        i = masked_sigmoid(z[:, :, :h])
        f = masked_sigmoid(z[:, :, h : 2 * h])
        g = np.tanh(z[:, :, 2 * h : 3 * h])
        o = masked_sigmoid(z[:, :, 3 * h :])
        cs[step + 1] = f * cs[step] + i * g
        hs[step + 1] = o * np.tanh(cs[step + 1])
        gates[step] = np.concatenate([i, f, g, o], axis=2)
    cache = {"x": x, "hs": hs, "cs": cs, "gates": gates}
    if return_sequences:
        return hs[1:].transpose(1, 2, 0, 3), cache
    return hs[-1].copy(), cache


def stacked_lstm_backward(
    cache, grad_output, w_x, w_h, dw_x, dw_h, db, return_sequences
):
    """Leading-client-axis LSTM backward; accumulates into the stacked
    gradient arrays in place and returns the stacked ``dx``."""
    x = cache["x"]
    hs = cache["hs"]
    cs = cache["cs"]
    gates = cache["gates"]
    c, n, t, _ = x.shape
    h = w_h.shape[1]

    if return_sequences:
        grad_h_seq = grad_output.transpose(2, 0, 1, 3)
    else:
        grad_h_seq = np.zeros((t, c, n, h), dtype=float)
        grad_h_seq[-1] = grad_output

    dx = np.zeros_like(x)
    dh_next = np.zeros((c, n, h), dtype=float)
    dc_next = np.zeros((c, n, h), dtype=float)
    for step in range(t - 1, -1, -1):
        i = gates[step][:, :, :h]
        f = gates[step][:, :, h : 2 * h]
        g = gates[step][:, :, 2 * h : 3 * h]
        o = gates[step][:, :, 3 * h :]
        cell = cs[step + 1]
        tanh_c = np.tanh(cell)

        dh = grad_h_seq[step] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c**2)

        di = dc * g * i * (1.0 - i)
        df = dc * cs[step] * f * (1.0 - f)
        dg = dc * i * (1.0 - g**2)
        do = dh * tanh_c * o * (1.0 - o)
        dz = np.concatenate([di, df, dg, do], axis=2)

        dw_x += x[:, :, step, :].transpose(0, 2, 1) @ dz
        dw_h += hs[step].transpose(0, 2, 1) @ dz
        db += dz.sum(axis=1)

        dx[:, :, step, :] = dz @ w_x.transpose(0, 2, 1)
        dh_next = dz @ w_h.transpose(0, 2, 1)
        dc_next = dc * f
    return dx

"""Reference kernels: the arithmetic the shipped kernels must reproduce.

These are the pre-rewrite ``sigmoid`` (boolean-mask form), LSTM time
loops (four gate temporaries + ``np.concatenate`` per step, one
gradient read-modify-write per step) and CNN kernels (``np.where``
ReLU backward, index-routed max pooling with its flat-scatter backward,
single-batch-axis ``im2col`` / ``col2im``, and the serial and stacked
conv layers around them), the serial ``Dense``, ``Embedding``,
``Flatten`` and cross-entropy bodies from before each became the
one-row case of its stacked twin — and, at the end, the per-client code of the
population-soak round (stream seeding, store checkout, epoch gather,
event ordering, the CMFL decision), the digits workload's
generated-order build and the buffered checkpoint writer —
kept verbatim so "same bits as
before" is something the tier-1 suite asserts rather than something
only a digest file remembers.  They are deliberately slow and deliberately not shared
with ``src/``: a reference that imports the code under test checks
nothing.
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


def relu_backward(mask, grad_output):
    """ReLU backward: the branching select."""
    return np.where(mask, grad_output, 0.0)


def maxpool_forward(x, p):
    """Max pooling over ``(n, c, h, w)``: returns ``(output, idx)``,
    ``idx`` the row-major position of each block's first maximum."""
    n, c, h, w = x.shape
    if p == 2:
        x6 = x.reshape(n, c, h // 2, 2, w // 2, 2)
        a = x6[:, :, :, 0, :, 0]
        b = x6[:, :, :, 0, :, 1]
        cc = x6[:, :, :, 1, :, 0]
        d = x6[:, :, :, 1, :, 1]
        top = np.maximum(a, b)
        bottom = np.maximum(cc, d)
        idx = np.where(bottom > top, (d > cc) + 2, (b > a) + 0)
        return np.maximum(top, bottom), idx
    blocks = x.reshape(n, c, h // p, p, w // p, p).transpose(0, 1, 2, 4, 3, 5)
    flat = blocks.reshape(n, c, h // p, w // p, p * p)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def maxpool_backward(idx, in_shape, p, grad_output):
    """Scatter each block's gradient to its ``idx`` position."""
    n, c, h, w = in_shape
    base = (
        (
            np.arange(n)[:, None, None, None] * c
            + np.arange(c)[None, :, None, None]
        )
        * h
        + np.arange(0, h, p)[None, None, :, None]
    ) * w + np.arange(0, w, p)[None, None, None, :]
    flat = base + (idx // p) * w + idx % p
    dx = np.zeros(n * c * h * w, dtype=grad_output.dtype)
    dx[flat.reshape(-1)] = grad_output.reshape(-1)
    return dx.reshape(n, c, h, w)


def im2col(x, kh, kw, stride):
    """Unfold ``(n, c, h, w)`` into ``(n, c * kh * kw, out_h * out_w)``."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    if not cols.flags["C_CONTIGUOUS"] or not cols.flags["WRITEABLE"]:
        cols = cols.copy()
    return cols, out_h, out_w


def col2im(cols, x_shape, kh, kw, stride):
    """Fold ``(n, c * kh * kw, out_h * out_w)`` back onto ``x_shape``."""
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


def conv_forward(x, weight, bias, stride, padding):
    """Serial conv forward over ``(n, ch, h, w)``.  Returns
    ``(output, cache)``."""
    f, _, k, _ = weight.shape
    if padding:
        pad = padding
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols, out_h, out_w = im2col(x, k, k, stride)
    w_rows = weight.reshape(f, -1)
    out = np.matmul(w_rows[None], cols)
    out += bias[None, :, None]
    return out.reshape(x.shape[0], f, out_h, out_w), (cols, x.shape, (out_h, out_w))


def conv_backward(cache, grad_output, weight, dw, db, stride, padding):
    """Serial conv backward; accumulates into ``dw`` / ``db`` in place
    and returns ``dx``."""
    cols, x_padded_shape, (out_h, out_w) = cache
    f, _, k, _ = weight.shape
    n = grad_output.shape[0]
    grad_flat = grad_output.reshape(n, f, out_h * out_w)
    dw += np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(dw.shape)
    db += grad_flat.sum(axis=(0, 2))
    w_rows = weight.reshape(f, -1)
    dcols = np.matmul(w_rows.T[None], grad_flat)
    dx = col2im(dcols, x_padded_shape, k, k, stride)
    if padding:
        pad = padding
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx


def stacked_conv_forward(x, weight, bias, stride, padding):
    """Leading-client-axis conv forward over ``(c, n, ch, h, w)`` with
    ``weight`` ``(c, f, ch, k, k)`` and ``bias`` ``(c, f)``.  Returns
    ``(output, cache)``."""
    f, k = weight.shape[1], weight.shape[3]
    if padding:
        pad = padding
        x = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)))
    c, n = x.shape[0], x.shape[1]
    folded = x.reshape((c * n,) + x.shape[2:])
    cols, out_h, out_w = im2col(folded, k, k, stride)
    cols = cols.reshape(c, n, cols.shape[1], cols.shape[2])
    w_rows = weight.reshape(c, f, -1)
    out = np.matmul(w_rows[:, None], cols)
    out += bias[:, None, :, None]
    return out.reshape(c, n, f, out_h, out_w), (cols, x.shape, (out_h, out_w))


def stacked_conv_backward(cache, grad_output, weight, dw, db, stride, padding):
    """Leading-client-axis conv backward (folded dcols GEMM + inline
    col2im on a pure-view permutation); accumulates into the stacked
    ``dw`` / ``db`` in place and returns the stacked ``dx``."""
    cols, x_padded_shape, (out_h, out_w) = cache
    f, in_channels, k = weight.shape[1], weight.shape[2], weight.shape[3]
    c, n = grad_output.shape[0], grad_output.shape[1]
    grad_flat = grad_output.reshape(c, n, f, out_h * out_w)
    dw += np.matmul(
        grad_flat, cols.transpose(0, 1, 3, 2)
    ).sum(axis=1).reshape(dw.shape)
    db += grad_flat.sum(axis=(1, 3))
    w_rows = weight.reshape(c, f, -1)
    grad_cols = grad_flat.transpose(0, 2, 1, 3).reshape(c, f, -1)
    dcols = np.matmul(w_rows.transpose(0, 2, 1), grad_cols)
    cols7 = dcols.reshape(
        c, in_channels, k, k, n, out_h, out_w
    ).transpose(0, 4, 1, 2, 3, 5, 6)
    dx = np.zeros(x_padded_shape, dtype=dcols.dtype)
    s = stride
    for i in range(k):
        for j in range(k):
            dx[
                :, :, :, i : i + s * out_h : s, j : j + s * out_w : s
            ] += cols7[:, :, :, i, j]
    if padding:
        pad = padding
        dx = dx[:, :, :, pad:-pad, pad:-pad]
    return dx


# -- the serial Dense, Embedding, Flatten and loss bodies ---------------------
#
# What the serial layers and losses ran before they became the one-row
# case of their stacked twins, verbatim less the forward-cache
# bookkeeping; ``head`` is ``head_backward`` (input gradient elided).


def dense_forward(x, weight, bias):
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def dense_backward(x, grad_output, weight, dw, db, head):
    """Accumulates into ``dw`` / ``db`` (None without a bias) in place
    and returns ``dx``, or None for the head."""
    dw += x.T @ grad_output
    if db is not None:
        db += grad_output.sum(axis=0)
    if head:
        return None
    return grad_output @ weight.T


def embedding_forward(ids, weight):
    return weight[ids]


def embedding_backward(ids, grad_output, dw, head):
    np.add.at(dw, ids, grad_output)
    if head:
        return None
    return np.zeros(grad_output.shape[:-1], dtype=float)


def flatten_forward(x):
    return x.reshape(x.shape[0], -1)


def flatten_backward(x_shape, grad_output):
    return grad_output.reshape(x_shape)


def softmax(logits, axis=-1):
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def softmax_cross_entropy(predictions, targets):
    """``(loss, grad)`` over ``(batch, classes)`` logits."""
    probs = softmax(predictions, axis=1)
    picked = probs[np.arange(targets.size), targets]
    loss = float(-np.mean(np.log(np.clip(picked, 1e-12, None))))
    grad = probs.copy()
    grad[np.arange(targets.size), targets] -= 1.0
    return loss, grad / targets.size


def sigmoid_binary_cross_entropy(predictions, targets):
    """``(loss, grad)`` over ``(batch,)`` or ``(batch, 1)`` logits."""
    logits = predictions.reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    # log(1 + exp(-|z|)) + max(z, 0) - z*y  is the stable BCE form.
    loss = np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0)
    loss -= logits * targets
    grad = ((masked_sigmoid(logits) - targets) / targets.size).reshape(predictions.shape)
    return float(np.mean(loss)), grad


# -- the population-soak round: seeding, streams, gather, events, decide ------
#
# The pre-rewrite per-client code of ``LatencyModel.timing``,
# ``ClientStateStore.checkout``, ``CyclicPartition.materialize``, the
# batched executor's per-client epoch gather, the ``order=True``
# dataclass ``Event`` and ``CMFLPolicy.decide`` (with the relevance
# functions under it), verbatim.

import dataclasses  # noqa: E402
from typing import Optional  # noqa: E402

LATENCY_STREAM_TAG = 0x1A7E9C


def latency_timing(seed, n_params, speed_sigma, drop_rate,
                   iteration, client_id, n_samples, local_epochs):
    """``(dropped, latency_s)`` of one dispatch.  The link and compute
    models were objects; their methods' arithmetic is inlined with the
    values the engine used (0.05 s + bytes at 5 Mbit/s; 2 ms a sample
    and epoch)."""
    from repro.nn.serialization import update_nbytes

    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=(seed, LATENCY_STREAM_TAG, int(iteration), int(client_id))
        )
    )
    dropped = bool(rng.random() < drop_rate)
    model_bytes = update_nbytes(n_params)
    down = 0.05 + 8.0 * model_bytes / 5e6
    train = 2e-3 * n_samples * local_epochs
    if speed_sigma > 0.0:
        train *= float(np.exp(speed_sigma * rng.standard_normal()))
    up = 0.05 + 8.0 * model_bytes / 5e6
    return dropped, down + train + up


def fresh_stream(seed, index):
    """The stream of a never-touched store row."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=(seed, index)))
    )


def live_stream(row):
    """The stream captured in a live store row (6 ``uint64``)."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (int(row[0]) << 64) | int(row[1]),
            "inc": (int(row[2]) << 64) | int(row[3]),
        },
        "has_uint32": int(row[4]),
        "uinteger": int(row[5]),
    }
    return rng


def cyclic_materialize(x, y, start, size):
    """``(x, y)`` of the wrap-around shard starting at row ``start``."""
    n = len(x)
    end = start + size
    if end <= n:
        return x[start:end], y[start:end]
    wrap = end - n
    return (
        np.concatenate([x[start:], x[:wrap]]),
        np.concatenate([y[start:], y[:wrap]]),
    )


def _equal_runs(values):
    cuts = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
    return list(zip([0] + cuts, cuts + [len(values)]))


def lockstep_schedule(sizes, batch_size):
    schedule = []
    for step, start in enumerate(range(0, sizes[-1], batch_size)):
        samples = [min(batch_size, max(n - start, 0)) for n in sizes]
        for a, b in _equal_runs(samples):
            if samples[a]:
                schedule.append((step, a, b, slice(start, start + samples[a])))
    return schedule


def cohort_minibatches(shards, orders, batch_size):
    """Every stacked minibatch of a cohort (ascending shard size), as
    ``(epoch, step, (a, b), x, y)``: one ``np.take`` per client per
    array per epoch into a fresh gather buffer, then the lock-step
    slices.  ``shards[k]`` is client ``k``'s ``(x, y)``, ``orders[k][e]``
    its epoch-``e`` permutation."""
    sizes = [len(x) for x, _ in shards]
    n_rows, epochs = len(shards), len(orders[0])
    first_x, first_y = shards[0]
    x_epoch = np.empty((n_rows, sizes[-1]) + first_x.shape[1:], dtype=first_x.dtype)
    y_epoch = np.empty((n_rows, sizes[-1]) + first_y.shape[1:], dtype=first_y.dtype)
    schedule = lockstep_schedule(sizes, batch_size)
    out = []
    for epoch in range(epochs):
        for ci, (x, y) in enumerate(shards):
            order, n = orders[ci][epoch], sizes[ci]
            np.take(x, order, axis=0, out=x_epoch[ci, :n])
            np.take(y, order, axis=0, out=y_epoch[ci, :n])
        for step, a, b, cut in schedule:
            out.append(
                (epoch, step, (a, b), x_epoch[a:b, cut].copy(), y_epoch[a:b, cut].copy())
            )
    return out


@dataclasses.dataclass(frozen=True, order=True)
class DataclassEvent:
    time: float
    kind: int
    iteration: int
    client_id: int = -1


def sign_agreement_counts(u, u_bar, u_bar_sign=None):
    u = np.asarray(u, dtype=float).reshape(-1)
    if u_bar_sign is None:
        u_bar = np.asarray(u_bar, dtype=float).reshape(-1)
        if u.shape != u_bar.shape:
            raise ValueError(
                f"update shapes differ: {u.shape} vs {u_bar.shape}"
            )
        u_bar_sign = np.sign(u_bar)
    else:
        u_bar_sign = np.asarray(u_bar_sign, dtype=float).reshape(-1)
        if u.shape != u_bar_sign.shape:
            raise ValueError(
                f"update shapes differ: {u.shape} vs {u_bar_sign.shape}"
            )
    if u.size == 0:
        raise ValueError("updates cannot be empty")
    agree = int(np.count_nonzero(np.sign(u) == u_bar_sign))
    return agree, int(u.size)


def relevance(u, u_bar, u_bar_sign: Optional[np.ndarray] = None):
    if u_bar_sign is None:
        u_bar_arr = np.asarray(u_bar, dtype=float)
        if not np.any(u_bar_arr):
            np.asarray(u, dtype=float)  # still validate the partner argument
            return 1.0
        agree, total = sign_agreement_counts(u, u_bar_arr)
    else:
        sign = np.asarray(u_bar_sign, dtype=float).reshape(-1)
        if not np.any(sign):
            np.asarray(u, dtype=float)  # still validate the partner argument
            return 1.0
        agree, total = sign_agreement_counts(u, u_bar, u_bar_sign=sign)
    return agree / total


def cmfl_decide(update, feedback, v_t):
    """``(upload, score, threshold)`` of one CMFL relevance check, the
    feedback sign computed as the round cache did."""
    sign = np.sign(np.asarray(feedback, dtype=float).reshape(-1))
    score = relevance(update, feedback, u_bar_sign=sign)
    v_t = min(1.0, v_t)
    return score >= v_t, score, v_t


# -- digit rendering ----------------------------------------------------------
#
# The scipy renderer of ``repro.data.synthetic_digits`` and the per-image
# loop of ``make_semeion_tasks``, verbatim apart from validation and
# their return types (plain arrays, not ``Dataset`` / ``TaskData``): one
# ``scipy.ndimage`` call per blur, rotation and shift.  The shipped
# numpy renderer must reproduce their bytes and leave the generator in
# the same state.  Only the glyph font is shared: it is input, not
# arithmetic.

from repro.data.synthetic_digits import GLYPHS  # noqa: E402


def render_digit(digit, gen, image_size=28, max_rotation_deg=10.0,
                 max_shift=2, noise_std=0.05):
    from scipy import ndimage

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


def make_digit_dataset(n_samples, gen, image_size=28, flat=False, class_balance=True):
    if class_balance:
        labels = np.arange(n_samples) % 10
        gen.shuffle(labels)
    else:
        labels = gen.integers(0, 10, size=n_samples)
    images = np.stack(
        [render_digit(int(d), gen, image_size=image_size) for d in labels]
    )
    if flat:
        x = images.reshape(n_samples, -1)
    else:
        x = images[:, None, :, :]
    return x, labels.astype(np.int64)


def make_semeion_tasks(n_clients=15, total_samples=1593, min_samples=10,
                       max_samples=200, positive_fraction=0.5,
                       outlier_fraction=0.2, label_flip_fraction=0.5,
                       test_fraction=0.25, image_size=16, gen=None):
    """``[(x_train, y_train, x_test, y_test, is_outlier), ...]``."""
    from scipy import ndimage

    raw_counts = gen.integers(min_samples, max_samples + 1, size=n_clients)
    counts = np.maximum(
        min_samples, (raw_counts / raw_counts.sum() * total_samples).astype(int)
    )
    n_outliers = int(round(outlier_fraction * n_clients))
    outlier_flags = np.zeros(n_clients, dtype=bool)
    if n_outliers:
        outlier_flags[gen.choice(n_clients, size=n_outliers, replace=False)] = True

    tasks = []
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
        x = (np.stack(images) >= 0.45).astype(float).reshape(total, -1)
        y_train = labels[:n].copy()
        if outlier_flags[client] and label_flip_fraction > 0:
            flip = gen.random(n) < label_flip_fraction
            y_train[flip] = 1 - y_train[flip]
        tasks.append((x[:n], y_train, x[n:], labels[n:], bool(outlier_flags[client])))
    return tasks



# -- the digits workload's data -------------------------------------------------
#
# What ``DigitsWorkload.__post_init__`` built before it rendered straight
# into client order: the whole training set in generation order
# (``make_digit_dataset``), then ``Dataset.split`` gathering it into
# client order while the generated copy was still alive.  The pieces
# are the shipped ones, each pinned on its own above and in
# ``tests/test_data.py``; what this keeps is their composition.


def digits_workload_data(seed, n_clients, samples_per_client, shards_per_client,
                         n_test, image_size):
    """``(shards, partition, test, rngs)``; ``rngs`` the four streams
    the build drew from, in their end states."""
    from repro.data.partition import label_shard_partition
    from repro.data.synthetic_digits import make_digit_dataset
    from repro.utils.rng import child_rngs

    rngs = child_rngs(seed, 4)
    generated = make_digit_dataset(
        n_clients * samples_per_client, rng=rngs[0], image_size=image_size
    )
    test = make_digit_dataset(n_test, rng=rngs[1], image_size=image_size)
    partition = label_shard_partition(
        generated.y, n_clients, shards_per_client=shards_per_client, rng=rngs[2]
    )
    return generated.split(partition), partition, test, rngs

# -- the checkpoint writer ------------------------------------------------------
#
# ``repro.ckpt.format.write_checkpoint`` from before it streamed members
# into the zip: every member's bytes built in memory (``np.save`` into a
# buffer, a store column concatenated by the caller), hashed, then
# handed to ``writestr``.  Verbatim apart from the names; the schema tag
# and the member name are the format's, copied, not imported.

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import zipfile  # noqa: E402

from repro.utils.atomic_io import atomic_write  # noqa: E402

_CKPT_SCHEMA = "repro-ckpt/v4"
_MANIFEST_MEMBER = "manifest.json"
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_DEFLATE_LEVEL = 1


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _array_member(key):
    return f"arrays/{key}.npy"


def write_checkpoint(path, manifest, arrays, texts=None):
    """The buffered writer; returns the container's size in bytes."""
    from pathlib import Path

    target = Path(path)
    members = {}
    array_index = {}
    for key in sorted(arrays):
        member = _array_member(key)
        data = np.ascontiguousarray(arrays[key])
        members[member] = _npy_bytes(data)
        array_index[key] = {
            "member": member,
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    for name in sorted(texts or {}):
        if name == _MANIFEST_MEMBER or name in members:
            raise ValueError(f"duplicate checkpoint member {name!r}")
        members[name] = (texts or {})[name].encode("utf-8")

    manifest["schema"] = _CKPT_SCHEMA
    manifest["arrays"] = array_index
    manifest["members"] = {
        name: {"sha256": _sha256(data), "bytes": len(data)}
        for name, data in sorted(members.items())
    }
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, indent=2, default=_json_default
    ).encode("utf-8")

    with atomic_write(target, "wb") as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED) as zf:
            _write_member(zf, _MANIFEST_MEMBER, manifest_bytes)
            for name in sorted(members):
                _write_member(zf, name, members[name])
    return target.stat().st_size


def _write_member(zf, name, data):
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    zf.writestr(info, data, compresslevel=_DEFLATE_LEVEL)


def _json_default(obj):
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")

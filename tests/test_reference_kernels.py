"""The shipped ``sigmoid``, LSTM, CNN, dense, embedding, flatten and
cross-entropy kernels against the reference kernels in
:mod:`tests.reference_kernels`: same bits, not close bits."""

import numpy as np
import pytest

from repro.nn.activations import ReLU, select_grad, sigmoid
from repro.nn.layers.conv import (
    INFER_BLOCK,
    Conv2D,
    MaxPool2D,
    _fold_index,
    col2im,
    im2col,
)
from repro.nn.layers.dense import Dense
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.recurrent import LSTM
from repro.nn.layers.reshape import Flatten
from repro.nn.losses import SigmoidBinaryCrossEntropy, SoftmaxCrossEntropy
from repro.nn.module import BatchedParamBinder
from repro.nn.serialization import parameter_count
from tests import reference_kernels as ref

#: (input_size, hidden): a small odd shape and the two NWP bench layers.
SHAPES = [(3, 5), (16, 32), (32, 32)]
T = 6


class TestSigmoid:
    def test_bitwise_equal_to_masked_form(self):
        rng = np.random.default_rng(0)
        special = np.array([
            0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.78, -709.78,
            745.2, -745.2, 1e308, -1e308,
        ])
        x = np.concatenate([
            rng.normal(size=100_000),
            rng.normal(size=100_000) * 30,
            rng.uniform(-750, 750, size=100_000),
            np.ldexp(rng.normal(size=100_001),
                     rng.integers(-1070, 1020, size=100_001)),
            special,
        ])
        assert x.size == 400_013
        with np.errstate(over="ignore", under="ignore"):
            assert sigmoid(x).tobytes() == ref.masked_sigmoid(x).tobytes()

    @pytest.mark.parametrize(
        "index",
        [np.s_[..., :64], np.s_[..., 96:], np.s_[:, ::2], np.s_[..., ::3]],
    )
    def test_strided_views_and_short_tails(self, index):
        """Callers may hand ``sigmoid`` a slice of a wider buffer."""
        z = np.random.default_rng(1).normal(size=(7, 10, 4, 128)) * 8
        view = z[index]
        assert sigmoid(view).tobytes() == ref.masked_sigmoid(view).tobytes()
        for n in range(1, 20):
            tail = z.reshape(-1)[5 : 5 + n]
            assert sigmoid(tail).tobytes() == ref.masked_sigmoid(tail).tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()


def _random_params(rng, clients, input_size, hidden):
    return (
        rng.normal(size=(clients, input_size, 4 * hidden)) * 0.4,
        rng.normal(size=(clients, hidden, 4 * hidden)) * 0.4,
        rng.normal(size=(clients, 4 * hidden)),
    )


def _grad_output(rng, clients, n, hidden, return_sequences):
    shape = (clients, n, T, hidden) if return_sequences else (clients, n, hidden)
    return rng.normal(size=shape)


@pytest.mark.parametrize("return_sequences", [True, False])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("input_size,hidden", SHAPES)
class TestLSTMKernelBits:
    def test_serial_layer(self, input_size, hidden, n, return_sequences):
        rng = np.random.default_rng(input_size * 100 + n)
        w_x, w_h, bias = (p[0] for p in _random_params(rng, 1, input_size, hidden))
        x = rng.normal(size=(n, T, input_size))
        grad_out = _grad_output(rng, 1, n, hidden, return_sequences)[0]

        layer = LSTM(input_size, hidden, rng=0, return_sequences=return_sequences)
        layer.w_x.data[...] = w_x
        layer.w_h.data[...] = w_h
        layer.bias.data[...] = bias
        layer.zero_grad()
        out = layer.forward(x, training=True)
        dx = layer.backward(grad_out)

        want_out, cache = ref.lstm_forward(x, w_x, w_h, bias, return_sequences)
        grads = [np.zeros_like(w_x), np.zeros_like(w_h), np.zeros_like(bias)]
        want_dx = ref.lstm_backward(
            cache, grad_out, w_x, w_h, *grads, return_sequences
        )
        assert out.shape == want_out.shape and dx.shape == want_dx.shape
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()
        for param, want in zip(layer.parameters(), grads):
            assert param.grad.tobytes() == want.tobytes(), param.name

    @pytest.mark.parametrize("clients", [1, 3, 10])
    def test_stacked_layer(self, clients, input_size, hidden, n, return_sequences):
        """The twin on strided views of a stacked flat pair — including
        a row window of a wider stack, as the ragged tail runs it."""
        rng = np.random.default_rng(clients * 1000 + input_size * 10 + n)
        w_x, w_h, bias = _random_params(rng, clients, input_size, hidden)
        x = rng.normal(size=(clients, n, T, input_size))
        grad_out = _grad_output(rng, clients, n, hidden, return_sequences)

        want_out, cache = ref.stacked_lstm_forward(
            x, w_x, w_h, bias, return_sequences
        )
        grads = [np.zeros_like(w_x), np.zeros_like(w_h), np.zeros_like(bias)]
        want_dx = ref.stacked_lstm_backward(
            cache, grad_out, w_x, w_h, *grads, return_sequences
        )
        want_flat = np.concatenate(
            [g.reshape(clients, -1) for g in grads], axis=1
        )

        layer = LSTM(input_size, hidden, rng=0, return_sequences=return_sequences)
        full = BatchedParamBinder(clients + 2, parameter_count(layer))
        for binder in (BatchedParamBinder(clients, parameter_count(layer)),
                       full.window(1, clients + 1)):
            twin = layer.batched(binder)
            binder.finish()
            binder.data[...] = np.concatenate(
                [p.reshape(clients, -1) for p in (w_x, w_h, bias)], axis=1
            )
            out = twin.forward(x, training=True)
            dx = twin.backward(grad_out)
            assert out.tobytes() == want_out.tobytes()
            assert dx.tobytes() == want_dx.tobytes()
            assert binder.grad.tobytes() == want_flat.tobytes()
        # The window's writes landed in the wide stack, and only there.
        np.testing.assert_array_equal(full.grad[1:-1], want_flat, strict=True)
        assert not full.grad[0].any() and not full.grad[-1].any()


class TestLSTMGradientAccumulation:
    def test_accumulates_across_backward_calls(self):
        """Without ``zero_grad`` between them two backward calls add up
        — and continue the reference's per-step chain bit for bit, not
        only from a zero gradient."""
        rng = np.random.default_rng(3)
        layer = LSTM(4, 6, rng=1, return_sequences=True)
        xs = [rng.normal(size=(3, T, 4)) for _ in range(2)]
        gs = [rng.normal(size=(3, T, 6)) for _ in range(2)]
        singles = []
        for x, g in zip(xs, gs):
            layer.zero_grad()
            layer.forward(x, training=True)
            layer.backward(g)
            singles.append([p.grad.copy() for p in layer.parameters()])
        layer.zero_grad()
        want = [np.zeros_like(p.data) for p in layer.parameters()]
        w_x, w_h, bias = (p.data for p in layer.parameters())
        for x, g in zip(xs, gs):
            layer.forward(x, training=True)
            layer.backward(g)
            _, cache = ref.lstm_forward(x, w_x, w_h, bias, True)
            ref.lstm_backward(cache, g, w_x, w_h, *want, True)
        for param, first, second, chained in zip(
            layer.parameters(), *singles, want
        ):
            np.testing.assert_allclose(
                param.grad, first + second, rtol=0, atol=1e-12
            )
            assert param.grad.tobytes() == chained.tobytes(), param.name

    def test_forward_cache_is_single_use(self):
        """backward releases the forward cache (it is what held the
        stacked path's resident memory between steps)."""
        layer = LSTM(3, 4, rng=0, return_sequences=False)
        x = np.random.default_rng(0).normal(size=(2, T, 3))
        layer.forward(x, training=True)
        with pytest.raises(ValueError, match="expected gradient shape"):
            layer.backward(np.ones((2, T, 4)))  # a bad shape keeps the cache
        layer.backward(np.ones((2, 4)))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones((2, 4)))
        twin = layer.batched(BatchedParamBinder(2, parameter_count(layer)))
        twin.forward(x[None].repeat(2, axis=0), training=True)
        twin.backward(np.ones((2, 2, 4)))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            twin.backward(np.ones((2, 2, 4)))


#: Gradients a cheap select gets wrong: a float multiply turns a dropped
#: Inf into NaN and a dropped negative into -0.0.
HOSTILE = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5])

#: (clients, batch, channels, H, W) entering each pooling stage: the
#: bench federation, then the paper's B = 2 model on a few clients.
POOL_INPUTS = [(30, 5, 4, 16, 16), (30, 5, 8, 4, 4), (3, 2, 32, 24, 24),
               (3, 2, 64, 8, 8)]

#: (clients, batch, in, out, size, kernel, stride, padding): both bench
#: stages, both paper stages, a strided and a padded layer, the paper
#: cohort's conv2 at bench width, a 1x1 kernel and a kernel as large as
#: its input.
CONVS = [
    (30, 5, 1, 4, 20, 5, 1, 0),
    (30, 5, 4, 8, 8, 5, 1, 0),
    (3, 2, 1, 32, 28, 5, 1, 0),
    (3, 2, 32, 64, 12, 5, 1, 0),
    (3, 4, 2, 3, 9, 3, 2, 0),
    (3, 4, 2, 3, 6, 3, 1, 1),
    (100, 2, 4, 8, 8, 5, 1, 0),
    (3, 4, 2, 3, 6, 1, 1, 0),
    (3, 4, 2, 3, 5, 5, 1, 0),
]


def _hostile_grad(rng, shape):
    """Random gradients with every hostile value under kept and dropped
    positions alike (the caller's mask is independent of these)."""
    grad = rng.normal(size=shape)
    flat = grad.reshape(-1)
    where = rng.choice(flat.size, size=flat.size // 3, replace=False)
    flat[where] = rng.choice(HOSTILE, size=where.size)
    return grad


def _activations(rng, shape):
    """Post-ReLU-like values: about half exact zeros, so ties between
    window positions are the common case, as in a real round."""
    return np.maximum(rng.normal(size=shape), 0.0)


class TestSelectGrad:
    @pytest.mark.parametrize("shape", [(150, 4, 16, 16), (150, 8, 4, 4), (7,)])
    def test_bitwise_equal_to_where(self, shape):
        rng = np.random.default_rng(len(shape))
        mask = rng.random(shape) < 0.5
        grad = _hostile_grad(rng, shape)
        got = select_grad(mask, grad)
        want = ref.relu_backward(mask, grad)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_every_hostile_value_under_both_mask_values(self):
        grad = np.concatenate([HOSTILE, HOSTILE])
        mask = np.arange(grad.size) < HOSTILE.size
        got = select_grad(mask, grad)
        assert got.tobytes() == ref.relu_backward(mask, grad).tobytes()
        with np.errstate(invalid="ignore"):  # what a multiply would do
            assert got.tobytes() != (grad * mask).tobytes()
        assert not np.signbit(got[HOSTILE.size :]).any()
        assert (got[HOSTILE.size :] == 0.0).all()

    def test_strided_operands_and_broadcasting(self):
        rng = np.random.default_rng(5)
        grad = _hostile_grad(rng, (6, 10, 8))[:, ::2, 1:7]
        mask = (rng.random((6, 10, 8)) < 0.5)[:, ::2, 1:7]
        want = ref.relu_backward(mask, grad)
        assert select_grad(mask, grad).tobytes() == want.tobytes()
        rows = rng.random((3, 6, 5, 6)) < 0.5
        assert (
            select_grad(rows, grad[None]).tobytes()
            == ref.relu_backward(rows, grad[None]).tobytes()
        )

    def test_relu_layer_routes_through_it(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 4, 16, 16))
        x.reshape(-1)[::7] = 0.0
        grad = _hostile_grad(rng, x.shape)
        layer = ReLU()
        layer.forward(x, training=True)
        assert (
            layer.backward(grad).tobytes()
            == ref.relu_backward(x > 0, grad).tobytes()
        )


def _check_pool(x, p, grad):
    """``MaxPool2D(p)`` on ``x`` — folded to 4-D, and with its leading
    axes as they are, training and inference — against the index-routed
    kernel."""
    folded = x.reshape((-1,) + x.shape[-3:])
    want_out, idx = ref.maxpool_forward(folded, p)
    want_dx = ref.maxpool_backward(idx, folded.shape, p, grad.reshape(want_out.shape))
    for view, g in ((folded, grad.reshape(want_out.shape)), (x, grad)):
        pool = MaxPool2D(p)
        out = pool.forward(view, training=True)
        dx = pool.backward(g)
        assert out.shape == g.shape and dx.shape == view.shape
        assert out.tobytes() == want_out.tobytes()
        assert dx.tobytes() == want_dx.tobytes()
        inferred = MaxPool2D(p).forward(view, training=False)
        assert inferred.tobytes() == want_out.tobytes()
    return want_dx


class TestMaxPoolBits:
    @pytest.mark.parametrize("shape", POOL_INPUTS)
    def test_two_by_two_on_bench_and_paper_shapes(self, shape):
        rng = np.random.default_rng(shape[2])
        x = _activations(rng, shape)
        grad = _hostile_grad(rng, shape[:3] + (shape[3] // 2, shape[4] // 2))
        _check_pool(x, 2, grad)

    @pytest.mark.parametrize("p,size", [(3, 12), (4, 8), (1, 5)])
    def test_other_pool_sizes(self, p, size):
        rng = np.random.default_rng(p)
        x = _activations(rng, (4, 3, 5, size, size))
        grad = _hostile_grad(rng, (4, 3, 5, size // p, size // p))
        _check_pool(x, p, grad)

    @pytest.mark.parametrize("p", [2, 3])
    def test_tied_windows_route_to_the_first_maximum(self, p):
        """All-zero input, one constant, a constant per window, and a
        few distinct levels (ties inside and across windows)."""
        rng = np.random.default_rng(10 + p)
        shape = (6, 2, 4 * p, 4 * p)
        grad = _hostile_grad(rng, (6, 2, 4, 4))
        per_window = np.repeat(
            np.repeat(rng.normal(size=(6, 2, 4, 4)), p, axis=2), p, axis=3
        )
        levels = rng.integers(-1, 2, size=shape).astype(np.float64)
        for x in (np.zeros(shape), np.full(shape, -3.0), per_window, levels,
                  np.where(levels > 0, np.inf, -np.inf)):
            dx = _check_pool(x, p, grad)
            # One position per window carries the gradient.
            routed = dx.reshape(6, 2, 4, p, 4, p) != 0.0
            assert (routed.sum(axis=(3, 5)) <= 1).all()
        dx = _check_pool(np.zeros(shape), p, np.ones((6, 2, 4, 4)))
        assert (dx[:, :, ::p, ::p] == 1.0).all() and dx.sum() == 6 * 2 * 16

    def test_non_contiguous_input_and_gradient(self):
        rng = np.random.default_rng(12)
        x = _activations(rng, (8, 9, 4, 8, 8))[2:7, 3:8]
        grad = _hostile_grad(rng, (5, 5, 4, 4, 8))[..., ::2]
        assert not x.flags["C_CONTIGUOUS"] and not grad.flags["C_CONTIGUOUS"]
        _check_pool(x, 2, grad)

    @pytest.mark.parametrize("p", [2, 3])
    def test_inference_selects_what_training_does_on_hostile_values(self, p):
        """±0, ±Inf and both NaNs: the inference fold over strided views
        picks the operand the training forward's slab reduction picks."""
        x = np.random.default_rng(13 + p).choice(HOSTILE, size=(3, 4, 2, 4 * p, 4 * p))
        want = MaxPool2D(p).forward(x, training=True)
        assert MaxPool2D(p).forward(x, training=False).tobytes() == want.tobytes()


class TestUnfoldFoldBits:
    @pytest.mark.parametrize("c,n,ch,f,size,k,stride,pad", CONVS)
    def test_im2col(self, c, n, ch, f, size, k, stride, pad):
        del f, pad
        rng = np.random.default_rng(size)
        x = rng.normal(size=(c, n, ch, size, size))
        want, out_h, out_w = ref.im2col(x.reshape(c * n, ch, size, size), k, k, stride)
        got = im2col(x.reshape(c * n, ch, size, size), k, k, stride)
        assert got[1:] == (out_h, out_w)
        assert got[0].shape == want.shape and got[0].tobytes() == want.tobytes()
        # A leading batch shape, and the executor's strided step window.
        stacked, _, _ = im2col(x, k, k, stride)
        assert stacked.shape == (c, n) + want.shape[1:]
        assert stacked.tobytes() == want.tobytes()
        epoch = rng.normal(size=(c + 2, 3 * n, ch, size, size))
        window = epoch[1 : c + 1, n : 2 * n]
        assert not window.flags["C_CONTIGUOUS"]
        want, _, _ = ref.im2col(
            np.ascontiguousarray(window).reshape(c * n, ch, size, size), k, k, stride
        )
        got, _, _ = im2col(window, k, k, stride)
        assert got.flags["C_CONTIGUOUS"] and got.flags["WRITEABLE"]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c,n,ch,f,size,k,stride,pad", CONVS)
    def test_col2im(self, c, n, ch, f, size, k, stride, pad):
        del f, pad
        rng = np.random.default_rng(size + 1)
        out = (size - k) // stride + 1
        cols = _hostile_grad(rng, (c * n, ch * k * k, out * out))
        shape = (c * n, ch, size, size)
        with np.errstate(invalid="ignore"):
            want = ref.col2im(cols, shape, k, k, stride)
            got = col2im(cols, shape, k, k, stride)
        assert got.shape == want.shape and got.flags["C_CONTIGUOUS"]
        assert got.tobytes() == want.tobytes()

    def test_col2im_starts_from_positive_zero(self):
        """A plane element covered only by -0.0 terms is +0.0: the
        accumulation starts from a +0.0 buffer, not from the first term."""
        cols = np.full((1, 4, 4), -0.0)
        got = col2im(cols, (1, 1, 3, 3), 2, 2, 1)
        assert got.tobytes() == ref.col2im(cols, (1, 1, 3, 3), 2, 2, 1).tobytes()
        assert not np.signbit(got).any()


def test_the_fold_index_is_one_clients_geometry():
    """The stacked backward loops its fold over the clients, so the
    cached index holds one client's K·n·L entries: a cohort of 100
    caches what a cohort of 1 does."""
    n, ch, f, size, k = 2, 4, 8, 8, 5
    sizes = []
    for c in (1, 30, 100):
        _fold_index.cache_clear()
        layer = Conv2D(ch, f, kernel_size=k, rng=0)
        binder = BatchedParamBinder(c, parameter_count(layer))
        twin = layer.batched(binder)
        binder.finish()
        out = twin.forward(np.ones((c, n, ch, size, size)), training=True)
        twin.backward(np.ones(out.shape))
        assert _fold_index.cache_info().currsize == 1
        index = _fold_index(n, ch, size, size, k, k, 1)
        assert _fold_index.cache_info().hits == 1  # the array backward used
        sizes.append(index.nbytes)
    out_size = size - k + 1
    assert sizes == [ch * k * k * n * out_size**2 * np.intp(0).itemsize] * 3


def _conv_case(c, n, ch, f, size, k, stride, pad):
    rng = np.random.default_rng(100 * size + k)
    out = (size + 2 * pad - k) // stride + 1
    return (
        rng.normal(size=(c, n, ch, size, size)),
        rng.normal(size=(c, f, ch, k, k)) * 0.3,
        rng.normal(size=(c, f)),
        rng.normal(size=(c, n, f, out, out)),
    )


@pytest.mark.parametrize("c,n,ch,f,size,k,stride,pad", CONVS)
class TestConvLayerBits:
    def test_serial_layer(self, c, n, ch, f, size, k, stride, pad):
        """The one-row case of the stacked kernels against the old
        serial layer (per-image dcols GEMM, single-batch-axis fold)."""
        x, weight, bias, grad_out = (
            a[0] for a in _conv_case(c, n, ch, f, size, k, stride, pad)
        )
        for head in (False, True):
            layer = Conv2D(ch, f, kernel_size=k, stride=stride, padding=pad, rng=0)
            layer.weight.data[...] = weight
            layer.bias.data[...] = bias
            out = layer.forward(x, training=True)
            dx = layer.head_backward(grad_out) if head else layer.backward(grad_out)

            want_out, cache = ref.conv_forward(x, weight, bias, stride, pad)
            grads = [np.zeros_like(weight), np.zeros_like(bias)]
            want_dx = ref.conv_backward(
                cache, grad_out, weight, *grads, stride, pad
            )
            if grad_out[0, 0].size == 1:
                # One output position: the old per-image dcols product
                # had one column, a matrix-vector product whose sums
                # need not be dgemm's (under the OpenBLAS of numpy's
                # wheels they are not), so the old serial and stacked
                # bodies can disagree here.  The one body keeps the
                # stacked bits.
                want_dx = ref.stacked_conv_backward(
                    ref.stacked_conv_forward(
                        x[None], weight[None], bias[None], stride, pad
                    )[1],
                    grad_out[None], weight[None], np.zeros((1,) + weight.shape),
                    np.zeros((1,) + bias.shape), stride, pad,
                )[0]
            assert out.shape == want_out.shape
            assert out.tobytes() == want_out.tobytes()
            if head:
                assert dx is None
            else:
                assert dx.shape == want_dx.shape
                assert dx.tobytes() == want_dx.tobytes()
            for param, want in zip(layer.parameters(), grads):
                assert param.grad.tobytes() == want.tobytes(), param.name

    def test_stacked_layer(self, c, n, ch, f, size, k, stride, pad):
        """The twin on a stacked flat pair and on a row window of a
        wider one, fed the executor's strided ``x_epoch[a:b, cut]``."""
        x, weight, bias, grad_out = _conv_case(c, n, ch, f, size, k, stride, pad)
        want_out, cache = ref.stacked_conv_forward(x, weight, bias, stride, pad)
        grads = [np.zeros_like(weight), np.zeros_like(bias)]
        want_dx = ref.stacked_conv_backward(
            cache, grad_out, weight, *grads, stride, pad
        )
        want_flat = np.concatenate([g.reshape(c, -1) for g in grads], axis=1)
        epoch = np.zeros((c, 3 * n) + x.shape[2:])
        epoch[:, n : 2 * n] = x

        layer = Conv2D(ch, f, kernel_size=k, stride=stride, padding=pad, rng=0)
        full = BatchedParamBinder(c + 2, parameter_count(layer))
        for binder in (BatchedParamBinder(c, parameter_count(layer)),
                       full.window(1, c + 1)):
            twin = layer.batched(binder)
            binder.finish()
            binder.data[...] = np.concatenate(
                [p.reshape(c, -1) for p in (weight, bias)], axis=1
            )
            out = twin.forward(epoch[:, n : 2 * n], training=True)
            dx = twin.backward(grad_out)
            assert out.tobytes() == want_out.tobytes()
            assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()
            assert binder.grad.tobytes() == want_flat.tobytes()
            binder.grad[...] = 0.0
            twin.forward(epoch[:, n : 2 * n], training=True)
            assert twin.head_backward(grad_out) is None
            assert binder.grad.tobytes() == want_flat.tobytes()
        assert not full.grad[0].any() and not full.grad[-1].any()


#: Images in an inference forward: one, either side of a block, and the
#: benchmark's 250-image evaluation batch.
INFER_ROWS = [1, INFER_BLOCK - 1, INFER_BLOCK, INFER_BLOCK + 1, 250]
#: (images, in, out, size, kernel, stride, padding): both bench stages
#: (the paper preset's too), the paper's own two stages, a strided and a
#: padded layer, at every ``INFER_ROWS``.
INFER_CONVS = [(n,) + conv[2:] for conv in CONVS[:6] for n in INFER_ROWS]
#: Past this many bytes of columns a reference conv runs on
#: ``REF_SLICE`` images at a time: the paper's 32-to-64-channel stage
#: would unfold 250 images into 100 MiB at once.
REF_COLS_LIMIT = 16 * 2**20
REF_SLICE = 10


def _cols_nbytes(images, ch, size, k, stride, pad):
    out = (size + 2 * pad - k) // stride + 1
    return images * ch * k * k * out * out * 8


def _assert_reference_conv(got, forward, x, weight, bias, stride, pad, axis):
    """``got`` is byte-equal to ``forward`` (a reference conv) over the
    images of ``x`` on ``axis``: run whole, or, when its columns would
    pass :data:`REF_COLS_LIMIT`, on consecutive ``REF_SLICE``-image
    slices.  The reference multiplies image by image (one broadcast
    matmul), so a slice holds the bytes the whole batch would;
    ``REF_SLICE`` does not divide ``INFER_BLOCK``, so the slices straddle
    the layer's blocks."""
    *lead, ch, size, _ = x.shape
    k = weight.shape[-1]
    n = x.shape[axis]
    step = n
    if _cols_nbytes(np.prod(lead), ch, size, k, stride, pad) > REF_COLS_LIMIT:
        step = REF_SLICE
    for start in range(0, n, step):
        images = (slice(None),) * axis + (slice(start, start + step),)
        want = forward(x[images], weight, bias, stride, pad)[0]
        assert got[images].shape == want.shape
        assert got[images].tobytes() == want.tobytes()
    assert got.shape[axis] == n


@pytest.mark.parametrize("n,ch,f,size,k,stride,pad", INFER_CONVS)
class TestBlockedInferenceBits:
    """An inference forward unfolds ``INFER_BLOCK`` images at a time;
    its output is byte-equal to the whole-batch reference conv."""

    def test_serial_layer(self, n, ch, f, size, k, stride, pad):
        x, weight, bias = (
            a[0] for a in _conv_case(1, n, ch, f, size, k, stride, pad)[:3]
        )
        layer = Conv2D(ch, f, kernel_size=k, stride=stride, padding=pad, rng=0)
        layer.weight.data[...] = weight
        layer.bias.data[...] = bias
        out = layer.forward(x, training=False)
        _assert_reference_conv(out, ref.conv_forward, x, weight, bias, stride, pad, 0)
        if _cols_nbytes(n, ch, size, k, stride, pad) <= REF_COLS_LIMIT:
            # A training forward unfolds the whole batch at once.
            assert layer.forward(x, training=True).tobytes() == out.tobytes()

    def test_stacked_layer(self, n, ch, f, size, k, stride, pad):
        """Three clients on a row window of a wider stack, fed a strided
        window of a longer batch."""
        c = 3
        x, weight, bias = _conv_case(c, n, ch, f, size, k, stride, pad)[:3]
        longer = np.zeros((c, n + 2) + x.shape[2:])
        longer[:, 1 : n + 1] = x
        x = longer[:, 1 : n + 1]
        layer = Conv2D(ch, f, kernel_size=k, stride=stride, padding=pad, rng=0)
        binder = BatchedParamBinder(c + 2, parameter_count(layer)).window(1, c + 1)
        twin = layer.batched(binder)
        binder.finish()
        binder.data[...] = np.concatenate(
            [p.reshape(c, -1) for p in (weight, bias)], axis=1
        )
        out = twin.forward(x, training=False)
        _assert_reference_conv(
            out, ref.stacked_conv_forward, x, weight, bias, stride, pad, 1
        )


# -- serial Dense, Embedding, Flatten and losses: the one-row case ------------

#: Batch sizes of a training step, and the rows of an evaluation batch
#: (the inference forward of the benchmark's evaluation path).
BATCHES = [1, 3, 7]
EVAL_ROWS = 250
#: Two full backward calls then the head's: gradients accumulate.
ROUTES = ["backward", "backward", "head_backward"]


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _check_routes(layer, wants, rng, make_x, ref_forward, ref_backward):
    """Forward, then each of :data:`ROUTES`, against the reference;
    ``wants`` are the reference gradient accumulators."""
    for route in ROUTES:
        x = make_x(rng)
        out = layer.forward(x, training=True)
        _same_bits(out, ref_forward(x))
        g = rng.normal(size=out.shape)
        dx = getattr(layer, route)(g)
        want_dx = ref_backward(x, g, route == "head_backward")
        if want_dx is None:
            assert dx is None
        else:
            _same_bits(dx, want_dx)
        for param, want in zip(layer.parameters(), wants):
            _same_bits(param.grad, want)
    x = make_x(rng, EVAL_ROWS)
    _same_bits(layer.forward(x), ref_forward(x))
    assert layer._cache is None


@pytest.mark.parametrize("n", BATCHES)
class TestOneRowLayerBits:
    """The serial layers, now their twins run with one row, against the
    bodies they had before."""

    @pytest.mark.parametrize(
        "use_bias, init",
        [(True, "glorot_uniform"), (False, "glorot_uniform"), (True, "zeros")],
    )
    def test_dense(self, n, use_bias, init):
        rng = np.random.default_rng(10 * n + use_bias)
        layer = Dense(6, 4, rng=1, weight_init=init, use_bias=use_bias)
        if use_bias:
            layer.bias.data[...] = rng.normal(size=4)
        weight = layer.weight.data
        bias = layer.bias.data if use_bias else None
        wants = [np.zeros_like(p.data) for p in layer.parameters()]
        dw, db = wants[0], wants[1] if use_bias else None
        _check_routes(
            layer, wants, rng,
            lambda g, rows=n: g.normal(size=(rows, 6)),
            lambda x: ref.dense_forward(x, weight, bias),
            lambda x, g, head: ref.dense_backward(x, g, weight, dw, db, head),
        )

    def test_embedding_with_repeated_ids(self, n):
        rng = np.random.default_rng(20 + n)
        layer = Embedding(4, 3, rng=1)
        [dw] = wants = [np.zeros_like(layer.weight.data)]
        # Four ids over n x 5 positions: every batch repeats some.
        _check_routes(
            layer, wants, rng,
            lambda g, rows=n: g.integers(0, 4, size=(rows, 5)),
            lambda ids: ref.embedding_forward(ids, layer.weight.data),
            lambda ids, g, head: ref.embedding_backward(ids, g, dw, head),
        )

    def test_flatten(self, n):
        rng = np.random.default_rng(30 + n)
        _check_routes(
            Flatten(), [], rng,
            lambda g, rows=n: g.normal(size=(rows, 2, 3, 4)),
            ref.flatten_forward,
            lambda x, g, head: ref.flatten_backward(x.shape, g),
        )


LOSS_CASES = {
    "softmax": (
        SoftmaxCrossEntropy,
        ref.softmax_cross_entropy,
        lambda g, n: (g.normal(size=(n, 5)) * 4, g.integers(0, 5, size=n)),
    ),
    "sigmoid_flat": (
        SigmoidBinaryCrossEntropy,
        ref.sigmoid_binary_cross_entropy,
        lambda g, n: (g.normal(size=n) * 4, g.integers(0, 2, size=n)),
    ),
    "sigmoid_column": (
        SigmoidBinaryCrossEntropy,
        ref.sigmoid_binary_cross_entropy,
        lambda g, n: (g.normal(size=(n, 1)) * 4, g.integers(0, 2, size=(n, 1))),
    ),
}


@pytest.mark.parametrize("n", BATCHES + [EVAL_ROWS])
@pytest.mark.parametrize("name", LOSS_CASES)
def test_one_row_loss_bits(name, n):
    """Loss float bits and the prediction gradient, training and
    inference forward alike."""
    factory, reference, make = LOSS_CASES[name]
    loss = factory()
    rng = np.random.default_rng(n)
    for training in (True, False, True):
        pred, target = make(rng, n)
        got = loss.forward(pred, target, training=training)
        want, want_grad = reference(pred, target)
        assert type(got) is float and got.hex() == want.hex()
        if training:
            _same_bits(loss.backward(), want_grad)


# -- the population-soak round ------------------------------------------------

import dataclasses  # noqa: E402
import heapq  # noqa: E402
import itertools  # noqa: E402

from repro.core.policy import CMFLPolicy, PolicyContext  # noqa: E402
from repro.core.thresholds import ConstantThreshold  # noqa: E402
from repro.data.dataset import Dataset  # noqa: E402
from repro.fl.batched import BatchedWorkspace  # noqa: E402
from repro.fl.client import FLClient  # noqa: E402
from repro.fl.events.latency import SPEED_SIGMA, LatencyModel  # noqa: E402
from repro.fl.events.queue import ARRIVAL, DISPATCH, Event, EventQueue  # noqa: E402
from repro.fl.executor import RoundPlan, make_executor  # noqa: E402
from repro.fl.store import ClientStateStore, CyclicPartition  # noqa: E402
from repro.fl.workspace import ModelWorkspace  # noqa: E402
from repro.models.linear import make_logistic_regression  # noqa: E402
from repro.nn.losses import SigmoidBinaryCrossEntropy  # noqa: E402
from repro.nn.optimizers import SGD  # noqa: E402
from repro.utils.rng import stream_seed  # noqa: E402

#: Entropy ints on both sides of the one-word boundary.
WORD_EDGES = [0, 1, 7, 0x1A7E9C, 2**31, 2**32 - 1, 2**32, 2**40]


class TestNumpyBehaviourReliedOn:
    """Tripwires: a numpy that changes either of these fails here, not
    by forking every stream or by silently re-buffering the gather."""

    def test_seed_sequence_coerces_words_like_the_int_tuple(self):
        for a in WORD_EDGES[:6]:
            for b in WORD_EDGES[:6]:
                words = np.random.SeedSequence(np.array([a, 3, b], dtype=np.uint32))
                ints = np.random.SeedSequence((a, 3, b))
                assert words.pool.tobytes() == ints.pool.tobytes(), (a, b)
        # An int of two words is two words: the tuple is not the array.
        wide = np.random.SeedSequence((2**32, 1)).pool
        assert wide.tobytes() != np.random.SeedSequence((0, 1)).pool.tobytes()

    def test_take_with_out_and_wrap_mode_writes_in_place(self):
        source = np.arange(40.0).reshape(10, 4)
        index = np.array([[9, 10, 11], [0, 19, 3]])
        out = np.full((2, 3, 4), -1.0)
        got = np.take(source, index, axis=0, out=out, mode="wrap")
        assert got is out and np.shares_memory(got, out)
        assert out.tobytes() == source[index % 10].tobytes()


class TestStreamSeeding:
    def test_stream_seed_is_the_tuple_seed_sequence(self):
        for n in (2, 4):
            for entropy in list(itertools.product(WORD_EDGES, repeat=n))[::7]:
                assert (
                    stream_seed(*entropy).generate_state(8).tobytes()
                    == np.random.SeedSequence(entropy).generate_state(8).tobytes()
                ), entropy

    def test_wide_and_negative_ints_take_the_tuple_route(self):
        assert isinstance(stream_seed(3, 2**32 - 1).entropy, np.ndarray)
        for entropy in [(3, 2**32), (2**40, 0), (2**32, 2**40, 1, 2)]:
            assert stream_seed(*entropy).entropy == entropy
        with pytest.raises(ValueError):
            stream_seed(-1, 2)

    @pytest.mark.parametrize("drop_rate", [0.05, 0.3, 0.0])
    def test_latency_timing(self, drop_rate):
        assert SPEED_SIGMA == 0.5
        for seed in (0, 3, 2**32 - 1, 2**32 + 5):
            model = LatencyModel(seed, 65, drop_rate=drop_rate)
            for iteration in (1, 2, 850, 2**32):
                for client in (0, 17, 99_999, 2**33):
                    for n_samples, epochs in ((50, 2), (1, 1), (158, 5)):
                        got = model.timing(iteration, client, n_samples, epochs)
                        want = ref.latency_timing(
                            seed, 65, SPEED_SIGMA, drop_rate,
                            iteration, client, n_samples, epochs,
                        )
                        assert (got.dropped, got.latency_s) == want


def _shuffled(rng, n):
    order = np.arange(n)
    rng.shuffle(order)
    return order


class TestStoreStreams:
    """``checkout`` hands out the streams the old code built: seeded
    from the ``(seed, index)`` tuple when fresh, a new PCG64 with its
    state overwritten when live."""

    @pytest.mark.parametrize("seed", [0, 11, 2**32 - 1, 2**32, 2**40 + 3])
    def test_fresh_and_live_rows(self, seed):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(60, 3)), rng.integers(0, 2, size=60))
        store = ClientStateStore(
            5_000, CyclicPartition(data, 5_000, 10), seed=seed, shard_size=64
        )
        indices = [0, 5, 63, 64, 4_999]
        olds = [ref.fresh_stream(seed, index) for index in indices]
        for _ in range(3):  # fresh rows, then the same rows live, twice
            views = store.checkout(indices)
            for view, old in zip(views, olds):
                assert view._rng.random() == old.random()
                for _ in range(2):
                    assert view.epoch_order().tobytes() == _shuffled(old, 10).tobytes()
                assert view.rng_state() == old.bit_generator.state
            store.writeback(views)
            olds = [
                ref.live_stream(store._shards[i // 64].rng[i % 64]) for i in indices
            ]


def _soak_workspace(n_features):
    model = make_logistic_regression(n_features, rng=np.random.default_rng(1))
    return ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), SGD(model.parameters(), 0.3)
    )


def _cohort(base, spec, seed):
    """Clients from ``spec``: ``("window", start, size)`` shards of
    ``base`` or ``("eager", size)`` datasets of their own, with the
    ``(x, y)`` the old per-client code would have gathered from."""
    rng = np.random.default_rng(seed)
    clients, shards = [], []
    for cid, entry in enumerate(spec):
        if entry[0] == "window":
            _, start, size = entry
            data = base.window(start, start + size)
            shards.append(ref.cyclic_materialize(base.x, base.y, start, size))
        else:
            size = entry[1]
            data = Dataset(rng.normal(size=(size, 4)), rng.integers(0, 2, size=size))
            shards.append((data.x, data.y))
        clients.append(FLClient(cid, data, rng=np.random.default_rng(100 + cid)))
    return clients, shards


COHORTS = {
    "all-window": [("window", s, 6) for s in (0, 6, 30, 12, 41)],
    "wrap-around": [("window", s, 6) for s in (0, 47, 12, 49, 44)],
    "ragged": [("window", 3, 4), ("window", 20, 4), ("window", 48, 7),
               ("window", 9, 7), ("window", 30, 9)],
    "mixed": [("eager", 5), ("window", 10, 5), ("window", 48, 5),
              ("eager", 8), ("window", 0, 8)],
}


class TestCohortGatherBits:
    """The stacked minibatches the batched executor trains on are, byte
    for byte, slices of the per-client epoch gather."""

    @pytest.mark.parametrize("name", sorted(COHORTS))
    def test_minibatches(self, name, monkeypatch):
        rng = np.random.default_rng(4)
        base = Dataset(rng.normal(size=(50, 4)), rng.integers(0, 2, size=50))
        clients, shards = _cohort(base, COHORTS[name], seed=9)
        twins, _ = _cohort(base, COHORTS[name], seed=9)
        epochs, batch = 3, 4
        want = ref.cohort_minibatches(
            shards,
            [[twin.epoch_order() for _ in range(epochs)] for twin in twins],
            batch,
        )
        got = []
        real = BatchedWorkspace.train_step_all

        def capturing(self, x, y, lr, rows=None):
            got.append((rows, x.copy(), y.copy()))
            return real(self, x, y, lr, rows=rows)

        monkeypatch.setattr(BatchedWorkspace, "train_step_all", capturing)
        workspace = _soak_workspace(4)
        plan = RoundPlan(iteration=1, lr=0.3, local_epochs=epochs,
                         batch_size=batch, global_params=workspace.get_flat())
        with make_executor("batched") as executor:
            executor.bind(workspace)
            executor.run_round(plan, clients)
        assert [c.rng_state() for c in clients] == [t.rng_state() for t in twins]
        assert len(got) == len(want) > 0
        for (rows, x, y), (_, _, ref_rows, ref_x, ref_y) in zip(got, want):
            assert rows == ref_rows
            assert (x.shape, x.dtype, x.tobytes()) == (ref_x.shape, ref_x.dtype, ref_x.tobytes())
            assert (y.shape, y.dtype, y.tobytes()) == (ref_y.shape, ref_y.dtype, ref_y.tobytes())


class TestEventOrder:
    def test_heap_pops_like_the_dataclass(self):
        rng = np.random.default_rng(8)
        times = rng.choice(rng.random(120), size=1_000)  # many exact ties
        fields = [
            (float(t), int(k), int(i), int(c))
            for t, k, i, c in zip(
                times, rng.integers(0, 2, 1_000), rng.integers(1, 6, 1_000),
                rng.integers(-1, 40, 1_000),
            )
        ]
        queue, old = EventQueue(), []
        for entry in fields:
            queue.push(Event(*entry))
            heapq.heappush(old, ref.DataclassEvent(*entry))
        popped = [tuple(queue.pop()) for _ in range(1_000)]
        assert popped == [
            dataclasses.astuple(heapq.heappop(old)) for _ in range(1_000)
        ]
        assert popped == sorted(fields)

    def test_kind_is_checked_where_events_enter_the_queue(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="unknown event kind 7"):
            queue.push(Event(1.0, 7, 1))
        with pytest.raises(ValueError, match="unknown event kind 7"):
            queue.load_state_dict({"events": [[1.0, 7, 1, -1]]})
        queue.push(Event(1.0, DISPATCH, 1))
        queue.push(Event(1.0, ARRIVAL, 1, 4))
        assert queue.state_dict() == {"events": [[1.0, 0, 1, 4], [1.0, 1, 1, -1]]}


class TestDecideBits:
    def _both(self, update, feedback, v_t=0.5):
        ctx = PolicyContext(iteration=3, global_params=np.zeros(1),
                            global_update_estimate=feedback)
        outcomes = []
        for decide in (
            lambda: dataclasses.astuple(
                CMFLPolicy(ConstantThreshold(v_t)).decide(update, ctx.for_client(2))
            ),
            lambda: ref.cmfl_decide(update, feedback, v_t),
        ):
            try:
                outcomes.append(decide())
            except ValueError as exc:
                outcomes.append(("ValueError", str(exc)))
        return outcomes

    def test_scores_and_decisions(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 65, 1_000):
            feedback = rng.normal(size=n)
            feedback[::5] = 0.0
            for v_t in (0.0, 0.5, 1.0, 1.7):
                update = rng.normal(size=n)
                update[::3] = 0.0
                new, old = self._both(update, feedback, v_t)
                assert new == old and not isinstance(new[0], str)

    def test_all_zero_feedback_uploads_everything(self):
        new, old = self._both(np.array([1.0, -2.0]), np.zeros(2))
        assert new == old == (True, 1.0, 0.5)
        # ... whatever the update's shape: there is nothing to compare.
        new, old = self._both(np.ones(3), np.zeros(2))
        assert new == old == (True, 1.0, 0.5)

    def test_shape_mismatch_and_empty_update_raise_alike(self):
        new, old = self._both(np.ones(3), np.array([1.0, -1.0]))
        assert new == old == ("ValueError", "update shapes differ: (3,) vs (2,)")
        new, old = self._both(np.array([]), np.array([1.0, -1.0]))
        assert new == old == ("ValueError", "update shapes differ: (0,) vs (2,)")
        new, old = self._both(np.array([]), np.array([]))
        assert new == old == (True, 1.0, 0.5)




# -- digit rendering ----------------------------------------------------------

from repro.data.semeion import make_semeion_tasks  # noqa: E402
from repro.data.synthetic_digits import (  # noqa: E402
    RENDER_CHUNK,
    _cos_sin_deg,
    make_digit_dataset,
    render_digit,
)
from repro.experiments import workloads  # noqa: E402
from repro.utils.rng import child_rngs  # noqa: E402


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


class TestDigitRendererBits:
    """The numpy renderer is scipy's ``gaussian_filter`` / ``rotate`` /
    ``shift`` to the bit, and takes the same draws in the same order."""

    @pytest.mark.parametrize("image_size", [16, 20, 28])
    @pytest.mark.parametrize("flat", [False, True])
    @pytest.mark.parametrize("class_balance", [True, False])
    def test_make_digit_dataset(self, image_size, flat, class_balance):
        for seed in range(5):
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            kwargs = dict(image_size=image_size, flat=flat, class_balance=class_balance)
            got = make_digit_dataset(23, gen, **kwargs)
            x, y = ref.make_digit_dataset(23, ref_gen, **kwargs)
            assert got.x.shape == x.shape and got.x.tobytes() == x.tobytes(), seed
            assert got.y.tobytes() == y.tobytes()
            assert _same_state(gen, ref_gen)

    def test_across_a_chunk_boundary(self):
        gen, ref_gen = np.random.default_rng(11), np.random.default_rng(11)
        got = make_digit_dataset(RENDER_CHUNK + 9, gen, image_size=20)
        x, _ = ref.make_digit_dataset(RENDER_CHUNK + 9, ref_gen, image_size=20)
        assert got.x.tobytes() == x.tobytes() and _same_state(gen, ref_gen)

    def test_one_image_with_wide_angles_shifts_and_sizes(self):
        rng = np.random.default_rng(5)
        for seed in range(40):
            size = int(rng.integers(16, 33))
            kwargs = dict(
                image_size=size,
                max_rotation_deg=float(rng.choice([0.0, 10.0, 90.0, 400.0])),
                max_shift=int(rng.integers(0, 4)),
                noise_std=float(rng.choice([0.0, 0.05])),
            )
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = render_digit(seed % 10, gen, **kwargs)
            want = ref.render_digit(seed % 10, ref_gen, **kwargs)
            assert got.tobytes() == want.tobytes(), kwargs
            assert _same_state(gen, ref_gen)

    @pytest.mark.parametrize(
        "sizes",
        [dict(n_clients=6, total_samples=180), dict(n_clients=15, total_samples=800)],
        ids=["test", "bench"],
    )
    def test_make_semeion_tasks(self, sizes):
        for seed in (0, 3):
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            tasks = make_semeion_tasks(rng=gen, **sizes)
            want = ref.make_semeion_tasks(gen=ref_gen, **sizes)
            assert len(tasks) == len(want)
            for task, (x_train, y_train, x_test, y_test, outlier) in zip(tasks, want):
                assert task.train.x.tobytes() == x_train.tobytes()
                assert task.train.y.tobytes() == y_train.tobytes()
                assert task.test.x.tobytes() == x_test.tobytes()
                assert task.test.y.tobytes() == y_test.tobytes()
                assert task.is_outlier == outlier
            assert _same_state(gen, ref_gen)


@pytest.mark.parametrize("scale", ["test", "bench"])
def test_digits_workload_renders_the_generated_set_in_client_order(scale, monkeypatch):
    """``DigitsWorkload`` renders its training set straight into client
    order: the bytes and streams of rendering it in generation order
    and gathering that into client order with ``split``."""
    streams = []

    def recording(*args):
        streams.append(child_rngs(*args))
        return streams[-1]

    monkeypatch.setattr(workloads, "child_rngs", recording)
    workload = workloads.DigitsWorkload(scale)
    p = workload.params
    shards, partition, test, rngs = ref.digits_workload_data(
        workload.seed, p.n_clients, p.samples_per_client,
        workloads._DIGIT_SPLITS[scale][0], len(workload.test), workload.image_size,
    )
    assert len(workload.shards) == len(shards)
    for got, want in zip(workload.shards, shards):
        assert (got.start, len(got)) == (want.start, len(want))
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
    train = shards[0].source
    assert workload.train.x.shape == train.x.shape
    assert workload.train.x.tobytes() == train.x.tobytes()
    assert workload.train.y.tobytes() == train.y.tobytes()
    assert [a.tobytes() for a in workload.partition] == [a.tobytes() for a in partition]
    assert workload.test.x.tobytes() == test.x.tobytes()
    assert workload.test.y.tobytes() == test.y.tobytes()
    assert len(streams) == 1
    assert all(_same_state(a, b) for a, b in zip(streams[0], rngs))


class TestDegreeTrig:
    """The cephes ``cosdg`` / ``sindg`` port is ``scipy.special``'s."""

    def _check(self, degrees):
        special = pytest.importorskip("scipy.special")
        degrees = np.asarray(degrees, dtype=float)
        cos, sin = _cos_sin_deg(degrees)
        assert cos.tobytes() == special.cosdg(degrees).tobytes()
        assert sin.tobytes() == special.sindg(degrees).tobytes()

    def test_multiples_of_45_degrees(self):
        self._check(np.arange(-1080, 1081, 45))

    def test_negative_and_signed_zero_angles(self):
        self._check([-0.0, 0.0, -1e-300, -0.5, -10.0, -19.99, -44.999, -90.0, -359.0])

    def test_plus_minus_a_thousand(self):
        self._check([-1e3, 1e3, -999.5, 999.5])

    def test_random_angles(self):
        rng = np.random.default_rng(0)
        self._check(rng.uniform(-25.0, 25.0, 50_000))
        self._check(rng.uniform(-1e3, 1e3, 50_000))


# -- the checkpoint writer ----------------------------------------------------

import copy  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.ckpt import checkpointer as ckpt_checkpointer  # noqa: E402
from repro.ckpt import write_checkpoint  # noqa: E402
from repro.fl.config import FLConfig  # noqa: E402
from repro.fl.events import AsyncConfig, AsyncFederatedTrainer  # noqa: E402
from repro.nn.schedules import ConstantLR  # noqa: E402
from repro.fl.sampling import UniformSampler  # noqa: E402
from repro.fl.trainer import FederatedTrainer  # noqa: E402


def _joined(arrays):
    """The buffered writer's input: each row-block member concatenated."""
    return {
        key: np.concatenate(value) if isinstance(value, list) else value
        for key, value in arrays.items()
    }


class TestCheckpointWriterBits:
    """The streaming writer's file is, byte for byte, the buffered
    writer's: same ``.npy`` headers, same deflate stream, same zip."""

    def _same_file(self, tmp_path, arrays, texts=None):
        ref.write_checkpoint(
            tmp_path / "old.ckpt", {"iteration": 1}, _joined(arrays), texts
        )
        write_checkpoint(tmp_path / "new.ckpt", {"iteration": 1}, arrays, texts)
        return (tmp_path / "new.ckpt").read_bytes() == (
            tmp_path / "old.ckpt"
        ).read_bytes()

    def test_store_columns_as_row_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        base = Dataset(rng.normal(size=(60, 4)), rng.integers(0, 2, size=60))
        store = ClientStateStore(
            100, CyclicPartition(base, 100, 10), seed=4, shard_size=32
        )
        store.writeback(store.checkout([1, 40, 41, 99]))  # shards 0, 1, 3
        store.record_round(1, [40], [99])
        columns = store.state_arrays()
        assert [len(block) for block in columns["rng"]] == [0, 32, 32, 4]
        assert self._same_file(
            tmp_path, {f"store/{k}": v for k, v in columns.items()}
        )

    def test_zero_d_and_empty_arrays(self, tmp_path):
        arrays = {
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 3)),
            "empty_int": np.zeros(0, dtype=np.int64),
            "no_rows": [np.zeros((0, 6), dtype=np.uint64)],
        }
        assert self._same_file(tmp_path, arrays)

    def test_text_members(self, tmp_path):
        texts = {
            "history.jsonl": '{"schema": "x"}\n' * 500,
            "notes.txt": "naïve ✓ δ\n" * 100,
            "empty.txt": "",
        }
        assert self._same_file(tmp_path, {"global_params": np.arange(5.0)}, texts)

    def test_soak_checkpoints_at_rounds_50_and_100(self, tmp_path, monkeypatch):
        """Every save of a store-backed async run: sharded store
        columns, ledger tables, in-flight rounds, trace state."""
        saved = []
        streaming = ckpt_checkpointer.write_checkpoint

        def both(path, manifest, arrays, texts):
            old = tmp_path / "old" / Path(path).name
            ref.write_checkpoint(old, copy.deepcopy(manifest), _joined(arrays), texts)
            nbytes = streaming(path, manifest, arrays, texts)
            saved.append(
                (
                    manifest["iteration"],
                    len(manifest["store"]["shards"]),
                    Path(path).read_bytes() == old.read_bytes(),
                )
            )
            return nbytes

        monkeypatch.setattr(ckpt_checkpointer, "write_checkpoint", both)
        with _soak_engine(tmp_path) as engine:
            # In chunks of 50, as the benchmark runs it: a run call
            # drains its in-flight rounds, so round 50 is a boundary.
            engine.run(50)
            engine.run(50)
        assert [(it, same) for it, _, same in saved] == [(50, True), (100, True)]
        assert all(shards > 1 for _, shards, _ in saved)


def _soak_engine(tmp_path):
    """A population_soak-shaped federation in miniature: sharded store,
    batched cohort, async engine, sampled tracing, a save every 50."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(256, 4))
    data = Dataset(x, (x @ rng.normal(size=4) > 0).astype(np.int64))
    config = FLConfig(
        rounds=100,
        local_epochs=1,
        batch_size=8,
        lr=ConstantLR(0.3),
        seed=5,
        executor="batched",
        trace_path=str(tmp_path / "trace.jsonl"),
        trace_sample=0.2,
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=50,
    )
    trainer = FederatedTrainer(
        _soak_workspace(4),
        ClientStateStore(5_000, CyclicPartition(data, 5_000, 16), seed=5, shard_size=256),
        CMFLPolicy(ConstantThreshold(0.5)),
        config,
        sampler=UniformSampler(count=20, rng=6),
    )
    return AsyncFederatedTrainer(trainer, AsyncConfig(staleness_bound=2, drop_rate=0.05))

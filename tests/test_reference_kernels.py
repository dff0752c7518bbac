"""The shipped ``sigmoid`` and LSTM kernel against the reference
kernels in :mod:`tests.reference_kernels`: same bits, not close bits."""

import numpy as np
import pytest

from repro.nn.activations import sigmoid
from repro.nn.layers.recurrent import LSTM
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

"""Unit tests for the layer zoo: shapes, errors, determinism."""

import numpy as np
import pytest

from repro.nn.activations import ReLU, sigmoid, softmax
from repro.nn.layers.conv import Conv2D, MaxPool2D, col2im, im2col
from repro.nn.layers.dense import Dense
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.recurrent import LSTM
from repro.nn.layers.reshape import Flatten
from repro.nn.module import Sequential


class TestDense:
    def test_output_shape(self):
        layer = Dense(4, 3, rng=0)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_rejects_wrong_input_width(self):
        layer = Dense(4, 3, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 7)))

    def test_no_bias_option(self):
        layer = Dense(4, 3, rng=0, use_bias=False)
        assert len(layer.parameters()) == 1

    def test_deterministic_under_seed(self):
        a = Dense(4, 3, rng=42).weight.data
        b = Dense(4, 3, rng=42).weight.data
        np.testing.assert_array_equal(a, b)

    def test_backward_before_forward_raises(self):
        layer = Dense(4, 3, rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((5, 3)))

    def test_gradient_accumulates_across_calls(self):
        layer = Dense(2, 2, rng=0)
        x = np.ones((3, 2))
        layer.forward(x, training=True)
        layer.backward(np.ones((3, 2)))
        first = layer.weight.grad.copy()
        layer.forward(x, training=True)
        layer.backward(np.ones((3, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestConv:
    def test_output_shape_valid_padding(self):
        conv = Conv2D(1, 4, kernel_size=5, rng=0)
        out = conv.forward(np.zeros((2, 1, 20, 20)))
        assert out.shape == (2, 4, 16, 16)

    def test_padding_preserves_size(self):
        conv = Conv2D(2, 3, kernel_size=3, padding=1, rng=0)
        out = conv.forward(np.zeros((1, 2, 8, 8)))
        assert out.shape == (1, 3, 8, 8)

    def test_im2col_col2im_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> -- the adjoint property that
        makes the conv backward pass correct."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, 1)
        y = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * col2im(y, x.shape, 3, 3, 1)))
        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("kernel, stride", [(1, 1), (3, 1), (2, 2)])
    def test_im2col_returns_an_owned_contiguous_array(self, rng, kernel, stride):
        """The conv layers cache ``cols`` for backward; for a 1x1
        stride-1 kernel the unfold's reshape is a read-only view
        aliasing ``x`` unless ``im2col`` copies it."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _, _ = im2col(x, kernel, kernel, stride)
        assert cols.flags["C_CONTIGUOUS"]
        assert cols.flags["WRITEABLE"]
        assert not np.shares_memory(cols, x)

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((1, 1, 3, 3)), 5, 5, 1)

    def test_known_convolution_value(self):
        conv = Conv2D(1, 1, kernel_size=2, rng=0)
        conv.weight.data[...] = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        conv.bias.data[...] = 0.5
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv.forward(x)
        # window sum of main diagonal + bias
        assert out[0, 0, 0, 0] == pytest.approx(0 + 4 + 0.5)
        assert out[0, 0, 1, 1] == pytest.approx(4 + 8 + 0.5)


class TestMaxPool:
    def test_forward_values(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_max(self):
        pool = MaxPool2D(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        pool.forward(x, training=True)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == 4.0
        assert grad[0, 0, 1, 1] == 1.0  # position of 5
        assert grad[0, 0, 3, 3] == 1.0  # position of 15

    def test_ties_do_not_duplicate_gradient(self):
        pool = MaxPool2D(2)
        x = np.ones((1, 1, 4, 4))
        pool.forward(x, training=True)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        assert grad.sum() == pytest.approx(4.0)

    def test_indivisible_input_raises(self):
        with pytest.raises(ValueError):
            MaxPool2D(2).forward(np.zeros((1, 1, 5, 5)))


class TestLSTM:
    def test_sequence_output_shape(self):
        lstm = LSTM(4, 8, rng=0, return_sequences=True)
        out = lstm.forward(np.zeros((3, 7, 4)))
        assert out.shape == (3, 7, 8)

    def test_last_state_shape(self):
        lstm = LSTM(4, 8, rng=0, return_sequences=False)
        out = lstm.forward(np.zeros((3, 7, 4)))
        assert out.shape == (3, 8)

    def test_zero_input_nonzero_output_via_bias(self):
        lstm = LSTM(2, 3, rng=0, return_sequences=False)
        out = lstm.forward(np.zeros((1, 4, 2)))
        # Forget bias of 1 does not create state from nothing; output
        # stays zero for zero input and zero initial state.
        assert np.allclose(out, 0.0)

    def test_backward_shape(self, rng):
        lstm = LSTM(3, 5, rng=0, return_sequences=True)
        x = rng.normal(size=(2, 6, 3))
        out = lstm.forward(x, training=True)
        grad = lstm.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_backward_wrong_grad_shape_raises(self, rng):
        lstm = LSTM(3, 5, rng=0, return_sequences=False)
        lstm.forward(rng.normal(size=(2, 6, 3)), training=True)
        with pytest.raises(ValueError):
            lstm.backward(np.ones((2, 6, 5)))


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=0)
        ids = np.array([[1, 2], [3, 1]])
        out = emb.forward(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out[0, 0], emb.weight.data[1])

    def test_rejects_float_ids(self):
        emb = Embedding(10, 4, rng=0)
        with pytest.raises(TypeError):
            emb.forward(np.ones((2, 2)))

    def test_rejects_out_of_range(self):
        emb = Embedding(10, 4, rng=0)
        with pytest.raises(ValueError):
            emb.forward(np.array([[11]]))

    def test_backward_accumulates_repeated_ids(self):
        emb = Embedding(5, 2, rng=0)
        ids = np.array([[1, 1, 1]])
        out = emb.forward(ids, training=True)
        emb.backward(np.ones_like(out))
        np.testing.assert_allclose(emb.weight.grad[1], [3.0, 3.0])
        assert np.allclose(emb.weight.grad[0], 0.0)


class TestReshape:
    def test_flatten_round_trip(self, rng):
        flat = Flatten()
        x = rng.normal(size=(3, 2, 4, 4))
        out = flat.forward(x, training=True)
        assert out.shape == (3, 32)
        back = flat.backward(out)
        np.testing.assert_array_equal(back, x)


class TestActivationsAndSequential:
    def test_relu_zeroes_negative(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_sigmoid_extreme_values_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(5, 7)) * 50)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), rtol=1e-9)

    def test_sequential_chains(self, rng):
        model = Sequential([Dense(4, 8, rng=0), ReLU(), Dense(8, 2, rng=1)])
        out = model.forward(rng.normal(size=(3, 4)), training=True)
        assert out.shape == (3, 2)
        grad = model.backward(np.ones((3, 2)))
        assert grad.shape == (3, 4)

    def test_sequential_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

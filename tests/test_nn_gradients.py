"""Finite-difference verification of every layer's backward pass."""

import numpy as np
import pytest

from repro.nn.activations import ReLU
from repro.nn.gradcheck import check_input_gradient, check_module_gradients
from repro.nn.layers.conv import Conv2D, MaxPool2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.embedding import Embedding
from repro.nn.layers.recurrent import LSTM
from repro.nn.layers.reshape import Flatten
from repro.nn.losses import SigmoidBinaryCrossEntropy, SoftmaxCrossEntropy
from repro.nn.module import Sequential

TOL = 1e-5


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_dense_gradients(rng):
    model = Sequential([Dense(4, 3, rng=0)])
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_dense_input_gradient(rng):
    model = Sequential([Dense(4, 3, rng=0)])
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    assert check_input_gradient(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_mlp_with_activations_gradients(rng):
    model = Sequential(
        [Dense(4, 6, rng=0), ReLU(), Dense(6, 5, rng=1), ReLU(), Dense(5, 2, rng=2)]
    )
    x = rng.normal(size=(4, 4))
    y = rng.integers(0, 2, size=4)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_relu_activation_gradients(rng):
    model = Sequential([Dense(3, 3, rng=0), ReLU(), Dense(3, 2, rng=1)])
    x = rng.normal(size=(4, 3))
    y = rng.integers(0, 2, size=4)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_conv_gradients(rng):
    model = Sequential(
        [Conv2D(1, 2, kernel_size=3, rng=0), Flatten(), Dense(2 * 16, 2, rng=1)]
    )
    x = rng.normal(size=(2, 1, 6, 6))
    y = rng.integers(0, 2, size=2)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_conv_with_padding_gradients(rng):
    model = Sequential(
        [Conv2D(1, 2, kernel_size=3, padding=1, rng=0), Flatten(),
         Dense(2 * 36, 2, rng=1)]
    )
    x = rng.normal(size=(2, 1, 6, 6))
    y = rng.integers(0, 2, size=2)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_conv_pool_pipeline_gradients(rng):
    model = Sequential(
        [
            Conv2D(1, 2, kernel_size=3, rng=0),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(2 * 9, 3, rng=1),
        ]
    )
    x = rng.normal(size=(2, 1, 8, 8))
    y = rng.integers(0, 3, size=2)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_conv_input_gradient(rng):
    model = Sequential(
        [Conv2D(2, 2, kernel_size=3, rng=0), Flatten(), Dense(2 * 9, 2, rng=1)]
    )
    x = rng.normal(size=(2, 2, 5, 5))
    y = rng.integers(0, 2, size=2)
    assert check_input_gradient(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_lstm_sequence_gradients(rng):
    model = Sequential(
        [LSTM(3, 4, rng=0, return_sequences=False), Dense(4, 2, rng=1)]
    )
    x = rng.normal(size=(3, 5, 3))
    y = rng.integers(0, 2, size=3)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_stacked_lstm_gradients(rng):
    model = Sequential(
        [
            LSTM(2, 3, rng=0, return_sequences=True),
            LSTM(3, 3, rng=1, return_sequences=False),
            Dense(3, 2, rng=2),
        ]
    )
    x = rng.normal(size=(2, 4, 2))
    y = rng.integers(0, 2, size=2)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_lstm_input_gradient(rng):
    model = Sequential(
        [LSTM(3, 4, rng=0, return_sequences=False), Dense(4, 2, rng=1)]
    )
    x = rng.normal(size=(2, 4, 3))
    y = rng.integers(0, 2, size=2)
    assert check_input_gradient(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_embedding_gradients(rng):
    """Embedding grads checked via the full LM pipeline."""
    from repro.nn.layers.embedding import Embedding as Emb

    emb = Emb(6, 3, rng=0)
    tail = Sequential([LSTM(3, 4, rng=1, return_sequences=False), Dense(4, 6, rng=2)])
    loss = SoftmaxCrossEntropy()
    ids = rng.integers(0, 6, size=(3, 4))
    y = rng.integers(0, 6, size=3)

    emb.zero_grad()
    tail.zero_grad()
    out = tail.forward(emb.forward(ids, training=True), training=True)
    loss.forward(out, y, training=True)
    emb.backward(tail.backward(loss.backward()))
    analytic = emb.weight.grad.copy()

    from repro.nn.gradcheck import max_relative_error, numerical_gradient

    def f():
        return loss.forward(tail.forward(emb.forward(ids)), y)

    numeric = numerical_gradient(f, emb.weight.data)
    assert max_relative_error(analytic, numeric) < TOL


def test_bce_gradients(rng):
    model = Sequential([Dense(3, 1, rng=0)])
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, size=(6, 1)).astype(float)
    assert check_module_gradients(model, SigmoidBinaryCrossEntropy(), x, y) < TOL


def test_strided_conv_gradients(rng):
    model = Sequential(
        [Conv2D(1, 2, kernel_size=3, stride=2, rng=0), Flatten(),
         Dense(2 * 9, 2, rng=1)]
    )
    x = rng.normal(size=(2, 1, 7, 7))
    y = rng.integers(0, 2, size=2)
    assert check_module_gradients(model, SoftmaxCrossEntropy(), x, y) < TOL


def test_strided_conv_input_gradient(rng):
    model = Sequential(
        [Conv2D(2, 2, kernel_size=3, stride=2, rng=0), Flatten(),
         Dense(2 * 4, 2, rng=1)]
    )
    x = rng.normal(size=(2, 2, 5, 5))
    y = rng.integers(0, 2, size=2)
    assert check_input_gradient(model, SoftmaxCrossEntropy(), x, y) < TOL

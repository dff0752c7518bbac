"""Model factories: shapes, parameter counts, trainability."""

import numpy as np
import pytest

from repro.models.digits_cnn import make_digits_cnn
from repro.models.linear import make_logistic_regression
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.serialization import parameter_count


class TestDigitsCNN:
    def test_forward_shape(self):
        model = make_digits_cnn(image_size=20, channels=(2, 4), hidden=8, rng=0)
        out = model.forward(np.zeros((3, 1, 20, 20)))
        assert out.shape == (3, 10)

    def test_28px_paper_geometry(self):
        model = make_digits_cnn(image_size=28, channels=(2, 4), hidden=8, rng=0)
        out = model.forward(np.zeros((1, 1, 28, 28)))
        assert out.shape == (1, 10)

    def test_bad_image_size_rejected(self):
        with pytest.raises(ValueError):
            make_digits_cnn(image_size=17)

    def test_deterministic(self):
        a = make_digits_cnn(rng=4)
        b = make_digits_cnn(rng=4)
        from repro.nn.serialization import flatten_parameters

        np.testing.assert_array_equal(
            flatten_parameters(a), flatten_parameters(b)
        )

    def test_learns_a_tiny_problem(self, rng):
        from repro.data.synthetic_digits import make_digit_dataset

        ds = make_digit_dataset(100, rng=0, image_size=20)
        model = make_digits_cnn(image_size=20, channels=(4, 8), hidden=16, rng=1)
        loss = SoftmaxCrossEntropy()
        opt = SGD(model.parameters(), 0.1)
        epoch_losses = []
        for epoch in range(14):
            values = []
            for xb, yb in ds.batches(10, rng=rng):
                model.zero_grad()
                values.append(
                    loss.forward(model.forward(xb, training=True), yb, training=True)
                )
                model.backward(loss.backward())
                opt.step()
            epoch_losses.append(np.mean(values))
        assert epoch_losses[-1] < epoch_losses[0] * 0.8


class TestNWPLSTM:
    def test_forward_shape(self):
        model = make_nwp_lstm(50, embedding_dim=8, hidden=12, rng=0)
        ids = np.zeros((4, 10), dtype=np.int64)
        out = model.forward(ids)
        assert out.shape == (4, 50)

    def test_single_layer_variant(self):
        model = make_nwp_lstm(50, embedding_dim=8, hidden=12, n_layers=1, rng=0)
        out = model.forward(np.zeros((2, 5), dtype=np.int64))
        assert out.shape == (2, 50)

    def test_layer_count_validated(self):
        with pytest.raises(ValueError):
            make_nwp_lstm(50, n_layers=0)

    def test_parameter_count_grows_with_hidden(self):
        small = parameter_count(make_nwp_lstm(50, hidden=8, rng=0))
        large = parameter_count(make_nwp_lstm(50, hidden=32, rng=0))
        assert large > small


class TestLogReg:
    def test_zero_init(self):
        model = make_logistic_regression(5, zero_init=True)
        out = model.forward(np.ones((3, 5)))
        np.testing.assert_array_equal(out, np.zeros((3, 1)))

    def test_shape(self):
        model = make_logistic_regression(5, rng=0)
        assert model.forward(np.ones((3, 5))).shape == (3, 1)

"""Losses, optimizers, schedules, metrics and serialization."""

import numpy as np
import pytest

from repro.nn.losses import SigmoidBinaryCrossEntropy, SoftmaxCrossEntropy
from repro.nn.layers.dense import Dense
from repro.nn.metrics import accuracy, binary_accuracy
from repro.nn.module import Sequential
from repro.nn.optimizers import SGD, Momentum
from repro.nn.parameter import Parameter
from repro.nn.schedules import ConstantLR, InverseSqrtLR
from repro.nn.serialization import (
    STATUS_MESSAGE_BYTES,
    assign_flat_parameters,
    flatten_gradients,
    flatten_parameters,
    parameter_count,
    update_nbytes,
)


class TestLosses:
    def test_softmax_ce_uniform_logits(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 10)), np.zeros(4, dtype=int))
        assert value == pytest.approx(np.log(10))

    def test_softmax_ce_perfect_prediction_near_zero(self):
        loss = SoftmaxCrossEntropy()
        logits = np.full((2, 3), -50.0)
        logits[:, 1] = 50.0
        assert loss.forward(logits, np.array([1, 1])) < 1e-6

    def test_softmax_ce_rejects_float_targets(self):
        with pytest.raises(TypeError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros(2))

    def test_softmax_ce_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_bce_matches_manual(self):
        loss = SigmoidBinaryCrossEntropy()
        logits = np.array([0.0, 2.0])
        y = np.array([1.0, 0.0])
        expected = np.mean(
            [-np.log(0.5), -np.log(1 - 1 / (1 + np.exp(-2.0)))]
        )
        assert loss.forward(logits, y) == pytest.approx(expected)

    def test_bce_extreme_logits_finite(self):
        loss = SigmoidBinaryCrossEntropy()
        value = loss.forward(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value) and value < 1e-6

    def test_backward_before_forward_raises(self):
        for loss in (SoftmaxCrossEntropy(), SigmoidBinaryCrossEntropy()):
            with pytest.raises(RuntimeError):
                loss.backward()


class TestOptimizers:
    def _param(self, value=1.0, grad=0.5):
        p = Parameter(np.array([value]))
        p.grad[...] = grad
        return p

    def test_sgd_step(self):
        p = self._param()
        SGD([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(1.0 - 0.05)

    def test_sgd_lr_override(self):
        p = self._param()
        SGD([p], lr=0.1).step(lr=1.0)
        assert p.data[0] == pytest.approx(0.5)

    def test_sgd_weight_decay(self):
        p = self._param(value=2.0, grad=0.0)
        SGD([p], lr=0.1, weight_decay=0.5).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_momentum_accelerates(self):
        p1, p2 = self._param(), self._param()
        plain = SGD([p1], lr=0.1)
        heavy = Momentum([p2], lr=0.1, momentum=0.9)
        for _ in range(3):
            plain.step()
            heavy.step()
        # with a constant gradient, momentum moves strictly further
        assert p2.data[0] < p1.data[0]

    def test_zero_grad(self):
        p = self._param()
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad[0] == 0.0

    def test_rejects_empty_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([self._param()], lr=0.0)


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(0.3)(10) == 0.3

    def test_inverse_sqrt(self):
        sched = InverseSqrtLR(1.0)
        assert sched(1) == 1.0
        assert sched(4) == pytest.approx(0.5)

    def test_one_based_indexing_enforced(self):
        with pytest.raises(ValueError):
            ConstantLR(0.1)(0)


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_binary_accuracy(self):
        logits = np.array([1.0, -2.0, 0.5])
        assert binary_accuracy(logits, np.array([1, 0, 0])) == pytest.approx(2 / 3)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestSerialization:
    def test_round_trip(self):
        model = Sequential([Dense(3, 4, rng=0), Dense(4, 2, rng=1)])
        flat = flatten_parameters(model)
        assert flat.size == parameter_count(model) == 3 * 4 + 4 + 4 * 2 + 2
        assign_flat_parameters(model, flat * 2.0)
        np.testing.assert_allclose(flatten_parameters(model), flat * 2.0)

    def test_wrong_length_rejected(self):
        model = Sequential([Dense(3, 4, rng=0)])
        with pytest.raises(ValueError):
            assign_flat_parameters(model, np.zeros(5))

    def test_flatten_gradients(self):
        model = Sequential([Dense(2, 2, rng=0)])
        model.forward(np.ones((1, 2)), training=True)
        model.backward(np.ones((1, 2)))
        grads = flatten_gradients(model)
        assert grads.shape == (6,)
        assert np.any(grads != 0)

    def test_update_nbytes(self):
        assert update_nbytes(100) == 400
        assert STATUS_MESSAGE_BYTES < update_nbytes(100)
        with pytest.raises(ValueError):
            update_nbytes(-1)

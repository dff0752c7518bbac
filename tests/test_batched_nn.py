"""The batched (stacked-client) nn substrate: every layer, loss and the
parameter binder reproduce the serial path bit for bit per client slice.

These are the unit-level guarantees under the executor-level digest
tests: for each layer we stack C independent parameter vectors and C
inputs, run one batched forward/backward, and demand bitwise equality
with C separate serial runs — outputs, input gradients and accumulated
parameter gradients alike.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.models.digits_cnn import make_digits_cnn
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn import (
    BatchedParamBinder,
    Conv2D,
    Dense,
    Embedding,
    Flatten,
    LSTM,
    MaxPool2D,
    Module,
    ReLU,
    SGD,
    Sequential,
    SigmoidBinaryCrossEntropy,
    SoftmaxCrossEntropy,
)
from repro.nn.serialization import (
    assign_flat_parameters,
    flatten_gradients,
    flatten_parameters,
    parameter_count,
)

C = 3  # stacked clients in every test


def _same_bits(got, want):
    """``assert_array_equal`` calls -0.0 and +0.0 (and any two NaNs)
    equal — exactly the deviation a cheap kernel introduces — so "bit
    for bit" compares bytes."""
    got = np.asarray(got)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _check_layer(module_factory, x_stack, grad_from=None, training=True):
    """Batched forward/backward over C stacked clients must be bitwise
    equal to C serial runs with the same per-client parameters — on
    the ``backward`` route and, from zeroed gradients again, on the
    ``head_backward`` one."""
    ref = module_factory()
    n_params = parameter_count(ref)
    binder = BatchedParamBinder(C, n_params)
    batched = ref.batched(binder)
    binder.finish()
    rng = np.random.default_rng(7)
    if n_params:
        binder.data[...] = rng.normal(size=binder.data.shape)
    out = batched.forward(x_stack, training=training)
    grad_out = (grad_from or rng.normal)(size=out.shape)
    dx = batched.backward(grad_out)
    grads = binder.grad.copy()
    binder.grad[...] = 0.0
    batched.forward(x_stack, training=training)
    head_dx = batched.head_backward(grad_out)
    for c in range(C):
        serial = module_factory()
        if n_params:
            assign_flat_parameters(serial, binder.data[c].copy())
        out_c = serial.forward(x_stack[c], training=training)
        dx_c = serial.backward(np.ascontiguousarray(grad_out[c]))
        _same_bits(out[c], out_c)
        _same_bits(dx[c], dx_c)
        if n_params:
            _same_bits(grads[c], flatten_gradients(serial))
        serial.zero_grad()
        serial.forward(x_stack[c], training=training)
        head_dx_c = serial.head_backward(np.ascontiguousarray(grad_out[c]))
        if head_dx_c is None:
            assert head_dx is None
        else:
            _same_bits(head_dx[c], head_dx_c)
        if n_params:
            _same_bits(binder.grad[c], flatten_gradients(serial))
    return out


def _step_window(rng, shape):
    """A non-contiguous ``x_epoch[a:b, cut]``-shaped slice: what the
    batched executor hands the first layer of a stacked step."""
    c, n = shape[:2]
    epoch = rng.normal(size=(c + 2, 3 * n) + shape[2:])
    window = epoch[1 : c + 1, n : 2 * n]
    assert not window.flags["C_CONTIGUOUS"]
    return window


class TestBatchedLayers:
    def test_dense(self):
        rng = np.random.default_rng(0)
        _check_layer(
            lambda: Dense(6, 4, rng=np.random.default_rng(1)),
            rng.normal(size=(C, 9, 6)),
        )

    def test_conv2d_padded(self):
        rng = np.random.default_rng(0)
        _check_layer(
            lambda: Conv2D(2, 3, kernel_size=3, padding=1,
                           rng=np.random.default_rng(2)),
            _step_window(rng, (C, 4, 2, 6, 6)),
        )

    def test_conv2d_unpadded_stride(self):
        rng = np.random.default_rng(0)
        _check_layer(
            lambda: Conv2D(1, 2, kernel_size=3, stride=2,
                           rng=np.random.default_rng(3)),
            _step_window(rng, (C, 5, 1, 7, 7)),
        )

    def test_maxpool(self):
        rng = np.random.default_rng(0)
        _check_layer(lambda: MaxPool2D(2), _step_window(rng, (C, 4, 2, 6, 6)))

    def test_lstm_last_hidden(self):
        rng = np.random.default_rng(0)
        _check_layer(
            lambda: LSTM(4, 5, rng=np.random.default_rng(4)),
            rng.normal(size=(C, 6, 7, 4)),
        )

    def test_lstm_return_sequences(self):
        rng = np.random.default_rng(0)
        _check_layer(
            lambda: LSTM(3, 4, rng=np.random.default_rng(5),
                         return_sequences=True),
            rng.normal(size=(C, 5, 6, 3)),
        )

    def test_embedding(self):
        ids = np.random.default_rng(0).integers(0, 11, size=(C, 5, 4))
        _check_layer(
            lambda: Embedding(11, 3, rng=np.random.default_rng(6)), ids
        )

    def test_flatten(self):
        rng = np.random.default_rng(0)
        _check_layer(lambda: Flatten(), rng.normal(size=(C, 4, 2, 3, 3)))

    def test_relu(self):
        rng = np.random.default_rng(0)
        _check_layer(ReLU, rng.normal(size=(C, 8, 5)))

    def test_sequential_composes(self):
        """A whole CNN stack composes the per-layer counterparts."""
        rng = np.random.default_rng(0)
        _check_layer(
            lambda: Sequential([
                Conv2D(1, 3, kernel_size=3, padding=1,
                       rng=np.random.default_rng(8)),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(3 * 3 * 3, 4, rng=np.random.default_rng(9)),
            ]),
            rng.normal(size=(C, 5, 1, 6, 6)),
        )


class TestBatchedLosses:
    def _check_loss(self, loss_factory, pred, target):
        batched = loss_factory().batched()
        vec = batched.forward(pred, target, training=True)
        grad = batched.backward()
        assert vec.shape == (C,)
        for c in range(C):
            serial = loss_factory()
            assert vec[c] == serial.forward(
                np.ascontiguousarray(pred[c]), target[c], training=True
            )
            np.testing.assert_array_equal(
                grad[c], serial.backward(), strict=True
            )

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(0)
        self._check_loss(
            SoftmaxCrossEntropy,
            rng.normal(size=(C, 7, 4)),
            rng.integers(0, 4, size=(C, 7)),
        )

    def test_sigmoid_bce(self):
        rng = np.random.default_rng(0)
        self._check_loss(
            SigmoidBinaryCrossEntropy,
            rng.normal(size=(C, 6, 1)),
            rng.integers(0, 2, size=(C, 6)).astype(float),
        )


class TestBinderAndFallback:
    """The parameter binder, and what has no stacked twin: refused by
    name, with no per-client fallback."""

    def test_binder_views_alias_the_stack(self):
        model = Dense(3, 2, rng=np.random.default_rng(0))
        binder = BatchedParamBinder(C, parameter_count(model))
        batched = model.batched(binder)
        binder.finish()
        binder.data[...] = 1.0
        # The layer's bound weight is a view: writing through it lands
        # in the flat stack the executor extracts updates from.
        batched._w[1, 0, 0] = 5.0
        assert binder.data[1, 0] == 5.0

    def test_binder_finish_catches_underbinding(self):
        binder = BatchedParamBinder(C, 10)
        with pytest.raises(ValueError, match="bound 0 of 10"):
            binder.finish()

    def test_binder_rejects_overbinding(self):
        model = Dense(3, 2, rng=np.random.default_rng(0))
        binder = BatchedParamBinder(C, parameter_count(model) - 1)
        with pytest.raises(ValueError, match="binder overflow"):
            model.batched(binder)

    def test_unbatchable_module_raises_naming_it(self):
        class Exotic(Module):
            def forward(self, x, training=False):
                return x

            def backward(self, grad_output):
                return grad_output

        with pytest.raises(
            NotImplementedError,
            match="Exotic has no batched twin; the serial executor runs it",
        ):
            Exotic().batched(BatchedParamBinder(C, 0))

    def test_workspace_roundtrip_extracts_updates(self):
        from repro.fl.batched import BatchedWorkspace
        from repro.fl.workspace import ModelWorkspace

        model = Dense(4, 2, rng=np.random.default_rng(0))
        workspace = ModelWorkspace(
            model, SoftmaxCrossEntropy(), SGD(model.parameters(), 0.1)
        )
        engine = BatchedWorkspace(workspace, C)
        flat = flatten_parameters(model)
        engine.load_global(flat)
        np.testing.assert_array_equal(
            engine.params, np.broadcast_to(flat, (C, flat.size))
        )
        rng = np.random.default_rng(1)
        engine.train_step_all(
            rng.normal(size=(C, 5, 4)), rng.integers(0, 2, size=(C, 5)), 0.1
        )
        updates = engine.extract_updates(flat)
        assert updates.shape == (C, flat.size)
        assert not np.array_equal(updates, np.zeros_like(updates))


# -- a copy of a serial layer binds its own twin ------------------------------

COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}
#: model id -> (factory, (x, y) from a generator).
TWIN_MODELS = {
    "digits": (
        lambda: make_digits_cnn(image_size=16, channels=(2, 3), hidden=5, rng=1),
        lambda g: (g.normal(size=(4, 1, 16, 16)), g.integers(0, 10, size=4)),
    ),
    "nwp": (
        lambda: make_nwp_lstm(9, embedding_dim=4, hidden=5, rng=1),
        lambda g: (g.integers(0, 9, size=(4, 3)), g.integers(0, 9, size=4)),
    ),
}


@pytest.mark.parametrize("model_name", TWIN_MODELS)
@pytest.mark.parametrize("how", COPIES)
def test_a_copy_computes_on_its_own_parameters(how, model_name):
    """A serial layer runs its twin over views of its own arrays.  A
    copy made after a forward must bind a twin to the copy's arrays,
    not keep a copied twin holding a snapshot of the original's: after
    ``load_flat`` and an SGD step it equals a model that never ran."""
    from repro.fl.workspace import ModelWorkspace

    factory, make = TWIN_MODELS[model_name]
    x, y = make(np.random.default_rng(0))
    original = ModelWorkspace(factory(), SoftmaxCrossEntropy())
    original.train_step(x, y, lr=0.1)  # builds every twin, loss's too
    before = original.model.forward(x)
    copied = ModelWorkspace(
        COPIES[how](original.model), COPIES[how](original.loss)
    )
    fresh = ModelWorkspace(factory(), SoftmaxCrossEntropy())
    theta = np.random.default_rng(1).normal(size=original.n_params) * 0.1
    for workspace in (copied, fresh):
        workspace.load_flat(theta)
    _same_bits(copied.model.forward(x), fresh.model.forward(x))
    losses = [w.train_step(x, y, lr=0.1) for w in (copied, fresh)]
    assert losses[0].hex() == losses[1].hex()
    _same_bits(copied.get_flat(), fresh.get_flat())
    _same_bits(original.model.forward(x), before)

"""The activation-lifetime rule of every nn layer and loss.

A training forward keeps what exactly one backward needs; an inference
forward (``training=False``) keeps nothing; ``backward`` /
``head_backward`` read the cache, check the incoming gradient against
the shape the forward produced, and release it.  What a model holds
between steps is therefore nothing — the property the peak-RSS numbers
in DESIGN 6b rest on — and a mis-shaped gradient can no longer
broadcast silently (across the client axis, on a stacked layer).
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.fl.batched import BatchedWorkspace
from repro.fl.workspace import ModelWorkspace
from repro.models.digits_cnn import make_digits_cnn
from repro.models.linear import make_logistic_regression
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn import (
    BatchedParamBinder,
    Conv2D,
    Dense,
    Embedding,
    Flatten,
    LSTM,
    MaxPool2D,
    ReLU,
    SigmoidBinaryCrossEntropy,
    SoftmaxCrossEntropy,
)
from repro.nn import activations
from repro.nn.module import keep_cache
from repro.nn.serialization import parameter_count

REPO_ROOT = Path(__file__).resolve().parents[1]
C = 3  # stacked clients

#: id -> (factory, one client's input).
LAYERS = {
    "dense": (lambda: Dense(4, 3, rng=0), lambda g: g.normal(size=(5, 4))),
    "conv": (
        lambda: Conv2D(2, 3, kernel_size=3, rng=0),
        lambda g: g.normal(size=(2, 2, 6, 6)),
    ),
    "pool": (lambda: MaxPool2D(2), lambda g: g.normal(size=(2, 3, 4, 4))),
    "relu": (ReLU, lambda g: g.normal(size=(4, 3))),
    "flatten": (Flatten, lambda g: g.normal(size=(2, 3, 4))),
    "embedding": (
        lambda: Embedding(6, 3, rng=0), lambda g: g.integers(0, 6, size=(2, 5))
    ),
    "lstm_seq": (
        lambda: LSTM(3, 4, rng=0, return_sequences=True),
        lambda g: g.normal(size=(2, 5, 3)),
    ),
    "lstm_last": (
        lambda: LSTM(3, 4, rng=0, return_sequences=False),
        lambda g: g.normal(size=(2, 5, 3)),
    ),
}


def _build(name, stacked):
    """The serial layer or its batched twin, and an input for it."""
    factory, make_x = LAYERS[name]
    layer = factory()
    x = make_x(np.random.default_rng(0))
    if not stacked:
        return layer, x
    twin = layer.batched(BatchedParamBinder(C, parameter_count(layer)))
    return twin, np.stack([x] * C)


CASES = [
    pytest.param(name, stacked, id=("batched-" if stacked else "serial-") + name)
    for name in LAYERS
    for stacked in (False, True)
]
ROUTES = ["backward", "head_backward"]


def _holder(layer):
    """The object that owns ``layer``'s cache (the stateless adapter
    delegates to a private serial instance)."""
    return getattr(layer, "_inner", layer)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, stacked", CASES)
def test_misshaped_gradient_is_refused_naming_layer_and_shapes(name, stacked, route):
    layer, x = _build(name, stacked)
    out = layer.forward(x, training=True)
    owner = type(_holder(layer)).__name__
    squeezed = (1,) + out.shape[1:]  # broadcasts against the batch/client axis
    rotated = out.shape[1:] + out.shape[:1]  # same size, different shape
    for shape in (squeezed, rotated):
        assert shape != out.shape
        with pytest.raises(ValueError) as err:
            getattr(layer, route)(np.ones(shape))
        assert f"{owner}: expected gradient shape {out.shape}" in str(err.value)
        assert str(shape) in str(err.value)
    # A refused gradient leaves the cache for the right one.
    getattr(layer, route)(np.ones(out.shape))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, stacked", CASES)
def test_backward_consumes_the_cache_and_inference_keeps_none(name, stacked, route):
    layer, x = _build(name, stacked)
    out = layer.forward(x, training=True)
    getattr(layer, route)(np.ones(out.shape))
    assert _holder(layer)._cache is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        getattr(layer, route)(np.ones(out.shape))
    # An inference forward keeps nothing and drops a training cache.
    layer.forward(x, training=True)
    layer.forward(x, training=False)
    assert _holder(layer)._cache is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        getattr(layer, route)(np.ones(out.shape))


def test_relu_inference_forward_allocates_only_its_output(monkeypatch):
    """No mask on ``training=False``: by the time ReLU hands its cache
    over nothing is allocated, and the forward's peak is its output."""
    x = np.random.default_rng(0).normal(size=(256, 512))
    relu = ReLU()
    relu.forward(x)  # first-use allocations
    held = []

    def probe(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        keep_cache(*args)

    monkeypatch.setattr(activations, "keep_cache", probe)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = relu.forward(x, training=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held[0] - before < 4096  # a mask would be x.size bytes
    assert peak - before < out.nbytes + 4096


LOSSES = {
    "softmax": (
        SoftmaxCrossEntropy,
        lambda g: (g.normal(size=(5, 4)), g.integers(0, 4, size=5)),
    ),
    "sigmoid": (
        SigmoidBinaryCrossEntropy,
        lambda g: (g.normal(size=(5, 1)), g.integers(0, 2, size=(5, 1))),
    ),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["serial", "batched"])
@pytest.mark.parametrize("name", LOSSES)
def test_loss_backward_consumes_the_cache_and_inference_keeps_none(name, stacked):
    factory, make = LOSSES[name]
    pred, target = make(np.random.default_rng(0))
    loss = factory()
    if stacked:
        loss = loss.batched()
        pred, target = np.stack([pred] * C), np.stack([target] * C)
    loss.forward(pred, target, training=True)
    assert loss.backward().shape == pred.shape
    assert loss._cache is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        loss.backward()
    loss.forward(pred, target, training=True)
    loss.forward(pred, target)
    assert loss._cache is None
    with pytest.raises(RuntimeError, match="backward called before forward"):
        loss.backward()


# -- whole models: nothing is held between steps ------------------------------


#: model id -> (model, loss, x, y) from a generator; six rows each.
MODELS = {
    "digits": lambda g: (
        make_digits_cnn(image_size=16, channels=(2, 3), hidden=5, rng=1),
        SoftmaxCrossEntropy(),
        g.normal(size=(6, 1, 16, 16)),
        g.integers(0, 10, size=6),
    ),
    "nwp": lambda g: (
        make_nwp_lstm(9, embedding_dim=4, hidden=5, rng=1),
        SoftmaxCrossEntropy(),
        g.integers(0, 9, size=(6, 4)),
        g.integers(0, 9, size=6),
    ),
    "logistic": lambda g: (
        make_logistic_regression(4, rng=1),
        SigmoidBinaryCrossEntropy(),
        g.normal(size=(6, 4)),
        g.integers(0, 2, size=6),
    ),
}


def _held(model, loss):
    """Names of the layers and loss still holding a forward cache."""
    return [
        type(_holder(layer)).__name__
        for layer in [*model.layers, loss]
        if _holder(layer)._cache is not None
    ]


@pytest.mark.parametrize("name", MODELS)
def test_workspaces_hold_no_activations_between_steps(name):
    model, loss, x, y = MODELS[name](np.random.default_rng(2))
    ws = ModelWorkspace(model, loss)
    ws.train_step(x, y, lr=0.1)
    assert _held(model, loss) == []
    ws.evaluate(x, y, batch_size=4)
    assert _held(model, loss) == []
    engine = BatchedWorkspace(ws, C)
    engine.load_global(ws.get_flat())
    engine.train_step_all(np.stack([x] * C), np.stack([y] * C), lr=0.1)
    engine.train_step_all(
        np.stack([x] * 2), np.stack([y] * 2), lr=0.1, rows=(1, 3)
    )
    for _, twin, twin_loss in engine._bound.values():
        assert _held(twin, twin_loss) == []
    assert _held(model, loss) == []


# -- nothing in src loads scipy -----------------------------------------------

#: Leaves ``loaded``: every scipy module this process has imported.
_SCIPY_LOADED = """
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

_NO_SCIPY = """
import sys
import repro
from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.semeion import make_semeion_tasks
from repro.experiments.workloads import DigitsWorkload, NWPWorkload
from repro.fl.config import FLConfig
from repro.fl.sampling import UniformSampler
from repro.fl.store import ClientStateStore, CyclicPartition
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.mtl import MochaTrainer, MTLConfig
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.schedules import ConstantLR
import numpy as np

NWPWorkload("test").make_trainer(VanillaPolicy()).run(1)
DigitsWorkload("test").make_trainer(VanillaPolicy()).run(1)
tasks = make_semeion_tasks(n_clients=3, total_samples=60, rng=0)
MochaTrainer(tasks, VanillaPolicy(), MTLConfig(rounds=1, local_epochs=1)).run()
g = np.random.default_rng(0)
x = g.normal(size=(60, 4))
data = Dataset(x, (x[:, 0] > 0).astype(np.int64))
store = ClientStateStore(1000, CyclicPartition(data, 1000, 10), seed=1, shard_size=64)
model = make_logistic_regression(4, rng=0)
FederatedTrainer(
    ModelWorkspace(model, SigmoidBinaryCrossEntropy()), store,
    CMFLPolicy(InverseSqrtThreshold(0.8)),
    FLConfig(rounds=2, local_epochs=1, batch_size=5, lr=ConstantLR(0.3),
             executor="batched"),
    sampler=UniformSampler(count=8, rng=2),
).run(2)
""" + _SCIPY_LOADED + """
assert not loaded, loaded[:5]
"""

#: The positive control imports scipy itself, without src.
_LOADS_SCIPY = """
import sys
import scipy.linalg
""" + _SCIPY_LOADED + """
assert "scipy.linalg" in loaded, loaded[:5]
"""


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_and_running_sync_and_store_federations_loads_no_scipy():
    _run(_NO_SCIPY)


def test_the_scipy_tripwire_sees_a_scipy_import():
    """Positive control: the tripwire above can see scipy load."""
    _run(_LOADS_SCIPY)

"""Small federations for the system-layer tests.

:func:`federation` is the one fixed federation most trainer-level tests
share.  :func:`federation_specs` draws the knobs the bitwise contracts
must hold across — model family, ragged shards or a seeded cyclic
population, upload rule, sampler, client store, tracing,
async engine and the round a run is killed in — as a
:class:`~repro.experiments.ckpt_smoke.FederationSpec`, the federation
builder the kill/resume CLI runs, re-exported here with
:func:`~repro.experiments.ckpt_smoke.model_family`.
"""

import numpy as np
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.experiments.ckpt_smoke import FederationSpec, model_family
from repro.fl.client import FLClient
from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.events import AsyncConfig
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs

__all__ = [
    "MODEL_FAMILIES",
    "FederationSpec",
    "federation",
    "federation_specs",
    "linear_workspace",
    "model_family",
]

#: The model families, smallest first: what Hypothesis shrinks towards.
MODEL_FAMILIES = ("linear", "cnn", "lstm")


def linear_workspace(rng):
    """Logistic regression over five features, plain SGD at 0.5."""
    model = make_logistic_regression(5, rng=rng)
    return ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), 0.5),
        metric=binary_accuracy,
    )


def federation(policy, backend="serial", n_clients=4, rounds=5, seed=0,
               client_cls=FLClient, **cfg_kw):
    """``(trainer, data)``: ``n_clients`` IID shards of 80 linearly
    separable rows, one local epoch of batch 10 at lr 0.5, evaluated on
    the whole dataset every round."""
    rngs = child_rngs(seed, n_clients + 3)
    w_true = rngs[0].normal(size=5)
    x = rngs[1].normal(size=(80, 5))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    workspace = linear_workspace(rngs[2])
    parts = iid_partition(len(data), n_clients, rng=seed)
    clients = [client_cls(i, shard, rng=rngs[3 + i])
               for i, shard in enumerate(data.split(parts))]
    config = FLConfig(rounds=rounds, local_epochs=1, batch_size=10,
                      lr=ConstantLR(0.5), eval_every=1,
                      executor=backend, **cfg_kw)
    return FederatedTrainer(
        workspace, clients, policy, config,
        eval_fn=lambda w: w.evaluate(data.x, data.y),
    ), data


@st.composite
def federation_specs(draw) -> FederationSpec:
    """A small federation: one of the three model families over two to
    four ragged shards or a seeded cyclic population (eager or
    store-backed), vanilla or CMFL, full or uniform participation,
    traced or not, synchronous or through the async engine, killed in
    some round."""
    model = draw(st.sampled_from(MODEL_FAMILIES))
    # A CNN or LSTM step costs 10-25 linear ones; shorter shards keep
    # the property's runtime in tier 1's budget.
    largest = 6 if model == "linear" else 4
    sizes = tuple(draw(st.lists(st.integers(1, largest), min_size=2, max_size=4)))
    rounds = draw(st.integers(2, 3))
    async_config = draw(st.none() | st.builds(
        AsyncConfig,
        staleness_bound=st.integers(0, 2),
        drop_rate=st.sampled_from((0.0, 0.1, 0.3)),
    ))
    seeded = draw(st.booleans())
    return FederationSpec(
        model=model,
        sizes=sizes,
        policy=draw(st.sampled_from(("cmfl", "vanilla"))),
        threshold=draw(st.sampled_from((0.8, 0.5, 0.95))),
        cohort=draw(st.none() | st.integers(1, len(sizes))),
        stored=seeded and draw(st.booleans()),
        seeded=seeded,
        shard_size=draw(st.integers(1, 4)),
        trace_sample=draw(st.none() | st.sampled_from((1.0, 0.5, 0.01))),
        async_config=async_config,
        rounds=rounds,
        local_epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.integers(1, 5)),
        checkpoint_every=draw(st.integers(1, 2)),
        kill_round=draw(st.integers(2, rounds)),
        kill_backend=draw(st.sampled_from(EXECUTOR_BACKENDS)),
        resume_backend=draw(st.sampled_from(EXECUTOR_BACKENDS)),
        seed=draw(st.integers(0, 2**16)),
    )

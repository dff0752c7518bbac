"""Small federations for the system-layer tests.

:func:`federation` is the one fixed federation most trainer-level tests
share.  :func:`federation_specs` draws the knobs the bitwise contracts
must hold across — model family, ragged shards or a seeded cyclic
population, optimizer, upload rule, sampler, client store, tracing,
async engine and the round a run is killed in — as a
:class:`FederationSpec`, whose :meth:`~
FederationSpec.parts` builds the same federation seed for seed on
every call (what ``FederatedTrainer.restore`` needs).
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.baselines import VanillaPolicy
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.fl.client import FLClient
from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.events import AsyncConfig, AsyncFederatedTrainer
from repro.fl.sampling import UniformSampler
from repro.fl.store import ClientStateStore, CyclicPartition
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.digits_cnn import make_digits_cnn
from repro.models.linear import make_logistic_regression
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn.losses import SigmoidBinaryCrossEntropy, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy, binary_accuracy
from repro.nn.optimizers import SGD, Momentum
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs, stream_seed

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


def model_family(kind, rng):
    """``(model, loss, metric, draw_x, draw_y)`` of a tiny linear,
    digit-CNN or 2-layer-LSTM model; ``draw_x(rng, n)`` /
    ``draw_y(rng, n)`` draw ``n`` rows of its input and labels."""
    if kind == "linear":
        model = make_logistic_regression(5, rng=rng)
        return (
            model, SigmoidBinaryCrossEntropy(), binary_accuracy,
            lambda g, n: g.normal(size=(n, 5)),
            lambda g, n: g.integers(0, 2, size=n),
        )
    if kind == "cnn":
        model = make_digits_cnn(
            image_size=16, n_classes=4, channels=(2, 3), hidden=6, rng=rng
        )
        return (
            model, SoftmaxCrossEntropy(), accuracy,
            lambda g, n: g.normal(size=(n, 1, 16, 16)),
            lambda g, n: g.integers(0, 4, size=n),
        )
    if kind == "lstm":
        model = make_nwp_lstm(11, embedding_dim=4, hidden=5, rng=rng)
        return (
            model, SoftmaxCrossEntropy(), accuracy,
            lambda g, n: g.integers(0, 11, size=(n, 4)),
            lambda g, n: g.integers(0, 11, size=n),
        )
    raise ValueError(f"unknown model family {kind!r}")


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
    clients = [client_cls(i, data.subset(p), rng=rngs[3 + i])
               for i, p in enumerate(parts)]
    config = FLConfig(rounds=rounds, local_epochs=1, batch_size=10,
                      lr=ConstantLR(0.5), eval_every=1,
                      executor=backend, **cfg_kw)
    return FederatedTrainer(
        workspace, clients, policy, config,
        eval_fn=lambda w: w.evaluate(data.x, data.y),
    ), data


@dataclass(frozen=True)
class FederationSpec:
    """One drawn federation and how a run of it is driven.

    ``cohort`` None is full participation, otherwise a uniform cohort
    of that many clients.  ``stored`` runs the clients through
    ``ClientStateStore.from_clients`` at ``shard_size`` instead of as
    an eager list.  ``seeded`` is the population form the scale runs
    use instead of ragged shards: ``len(sizes)`` clients of
    ``min(sizes)`` rows, ``CyclicPartition`` windows (wrap-around
    copies included) of one dataset of ``max(sizes)`` rows, client
    ``i`` on the stream the store derives from ``(seed, i)``; stored,
    it is ``ClientStateStore(n, partition, seed=seed)``, whose rows
    start untouched.  ``trace_sample`` None is tracing off, and
    ``async_config`` None the synchronous loop.  The kill/resume edge
    raises inside round ``kill_round``'s decide phase of a run on
    ``kill_backend`` and resumes on ``resume_backend``.
    """

    model: str = "linear"
    sizes: Tuple[int, ...] = (6, 6)
    optimizer: str = "sgd"
    policy: str = "cmfl"
    threshold: float = 0.8
    cohort: Optional[int] = None
    stored: bool = False
    seeded: bool = False
    shard_size: int = 4
    trace_sample: Optional[float] = None
    async_config: Optional[AsyncConfig] = None
    rounds: int = 3
    local_epochs: int = 1
    batch_size: int = 4
    lr: float = 0.1
    checkpoint_every: int = 1
    kill_round: int = 2
    kill_backend: str = "serial"
    resume_backend: str = "serial"
    seed: int = 0

    def parts(
        self, backend: str, directory: Optional[Path] = None, **config: Any
    ) -> Dict[str, Any]:
        """``FederatedTrainer`` constructor kwargs, identical on every
        call.  A ``directory`` holds the run's checkpoints and, when
        traced, its ``trace.jsonl``; ``config`` overrides any other
        :class:`FLConfig` field."""
        rngs = child_rngs(self.seed, 4 + len(self.sizes))
        model, loss, metric, draw_x, draw_y = model_family(self.model, rngs[0])
        if self.optimizer == "momentum":
            optimizer = Momentum(model.parameters(), self.lr, momentum=0.9)
        else:
            optimizer = SGD(model.parameters(), self.lr)
        if self.seeded:
            rows = max(self.sizes)
            partition = CyclicPartition(
                Dataset(draw_x(rngs[1], rows), draw_y(rngs[1], rows)),
                len(self.sizes), min(self.sizes),
            )
            clients = ClientStateStore(
                len(self.sizes), partition, seed=self.seed,
                shard_size=self.shard_size,
            ) if self.stored else [
                FLClient(i, partition.materialize(i), rng=np.random.Generator(
                    np.random.PCG64(stream_seed(self.seed, i))
                ))
                for i in range(len(self.sizes))
            ]
        else:
            clients = [
                FLClient(i, Dataset(draw_x(rngs[1], n), draw_y(rngs[1], n)),
                         rng=rngs[4 + i])
                for i, n in enumerate(self.sizes)
            ]
            if self.stored:
                clients = ClientStateStore.from_clients(clients, self.shard_size)
        x_test, y_test = draw_x(rngs[2], 8), draw_y(rngs[2], 8)
        traced = self.trace_sample is not None
        settings = dict(
            rounds=self.rounds, local_epochs=self.local_epochs,
            batch_size=self.batch_size, lr=ConstantLR(self.lr),
            seed=self.seed, executor=backend, trace=traced,
            trace_sample=self.trace_sample if traced else 1.0,
        )
        if directory is not None:
            settings.update(
                checkpoint_dir=str(directory / "ckpt"),
                checkpoint_every=self.checkpoint_every, checkpoint_keep=0,
            )
            if traced:
                settings["trace_path"] = str(directory / "trace.jsonl")
        settings.update(config)
        return dict(
            workspace=ModelWorkspace(model, loss, optimizer, metric=metric),
            clients=clients,
            policy=(
                CMFLPolicy(InverseSqrtThreshold(self.threshold))
                if self.policy == "cmfl" else VanillaPolicy()
            ),
            config=FLConfig(**settings),
            eval_fn=lambda ws: ws.evaluate(x_test, y_test),
            sampler=(
                None if self.cohort is None
                else UniformSampler(count=self.cohort, rng=rngs[3])
            ),
        )

    def start(self, parts: Dict[str, Any]):
        """A fresh run of ``parts``: the trainer, or the async engine
        wrapping it when the spec draws one."""
        trainer = FederatedTrainer(**parts)
        if self.async_config is None:
            return trainer
        return AsyncFederatedTrainer(trainer, async_config=self.async_config)

    def restore(self, path: Path, parts: Dict[str, Any]):
        """The run of ``parts`` continued from checkpoint ``path``."""
        if self.async_config is None:
            return FederatedTrainer.restore(path, **parts)
        return AsyncFederatedTrainer.restore(
            path, async_config=self.async_config, **parts
        )


@st.composite
def federation_specs(draw) -> FederationSpec:
    """A small federation: one of the three model families over two to
    four ragged shards or a seeded cyclic population, SGD or momentum,
    vanilla or CMFL, full or uniform participation, eager or
    store-backed, traced or not, synchronous or through the async
    engine, killed in some round."""
    model = draw(st.sampled_from(MODEL_FAMILIES))
    # A CNN or LSTM step costs 10-25 linear ones; shorter shards keep
    # the property's runtime in tier 1's budget.
    largest = 6 if model == "linear" else 4
    sizes = tuple(draw(st.lists(st.integers(1, largest), min_size=2, max_size=4)))
    rounds = draw(st.integers(2, 3))
    async_config = draw(st.none() | st.builds(
        AsyncConfig,
        staleness_bound=st.integers(0, 2),
        dispatch_interval_s=st.sampled_from((0.0, 0.4)),
        drop_rate=st.sampled_from((0.0, 0.1, 0.3)),
        speed_sigma=st.sampled_from((0.5, 1.0)),
    ))
    return FederationSpec(
        model=model,
        sizes=sizes,
        optimizer=draw(st.sampled_from(("sgd", "momentum"))),
        policy=draw(st.sampled_from(("cmfl", "vanilla"))),
        threshold=draw(st.sampled_from((0.8, 0.5, 0.95))),
        cohort=draw(st.none() | st.integers(1, len(sizes))),
        stored=draw(st.booleans()),
        seeded=draw(st.booleans()),
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

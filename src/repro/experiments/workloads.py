"""Shared workload builders for the experiment modules.

The paper's two vanilla-FL workloads (Sec. V-A):

1. digit recognition with a two-conv-layer CNN, data sorted by label
   and split so each client sees very few classes (non-IID);
2. next-word prediction with a 2-layer LSTM, one speaking role per
   client.

Each builder returns a fresh :class:`~repro.fl.trainer.FederatedTrainer`
wired to the requested upload policy, so an experiment can run vanilla,
Gaia and CMFL from identical initial conditions (same seeds, same
shards, same initial weights).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.core.policy import UploadPolicy
from repro.data.dataset import Dataset, train_test_split
from repro.data.partition import group_partition, label_shard_partition
from repro.data.shakespeare import make_dialogue_corpus
from repro.data.synthetic_digits import make_digit_dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.digits_cnn import make_digits_cnn
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import InverseSqrtLR
from repro.utils.rng import child_rngs

__all__ = ["DigitsWorkload", "NWPWorkload", "Scale", "resolve_scale"]

SCALES = ("test", "bench", "paper")

#: Environment override for the default scale of every experiment.
SCALE_ENV_VAR = "REPRO_SCALE"


def resolve_scale(scale: Optional[str] = None) -> str:
    """Explicit argument > $REPRO_SCALE > "bench"."""
    chosen = scale or os.environ.get(SCALE_ENV_VAR) or "bench"
    if chosen not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {chosen!r}")
    return chosen


@dataclass(frozen=True)
class Scale:
    """Size knobs shared by the experiment presets."""

    n_clients: int
    samples_per_client: int
    rounds: int
    local_epochs: int
    batch_size: int
    eval_every: int


_DIGIT_SCALES = {
    "test": Scale(n_clients=6, samples_per_client=20, rounds=6,
                  local_epochs=1, batch_size=10, eval_every=2),
    "bench": Scale(n_clients=30, samples_per_client=40, rounds=50,
                   local_epochs=2, batch_size=5, eval_every=4),
    # The paper: 100 clients x 600 samples, E=4, B=2.  A round costs
    # ~60 s (serial executor, 2-vCPU host): ~50 minutes per run.
    "paper": Scale(n_clients=100, samples_per_client=600, rounds=50,
                   local_epochs=4, batch_size=2, eval_every=5),
}

#: Per preset, the digits' ``(label shards per client, test-set size)``.
#: The paper's split gives each client one contiguous label-sorted slice.
_DIGIT_SPLITS = {"test": (2, 250), "bench": (2, 250), "paper": (1, 2000)}

_NWP_SCALES = {
    "test": Scale(n_clients=5, samples_per_client=60, rounds=5,
                  local_epochs=1, batch_size=16, eval_every=2),
    "bench": Scale(n_clients=10, samples_per_client=150, rounds=40,
                   local_epochs=4, batch_size=4, eval_every=5),
    # One speaking role per client, E=4, B=2; ~20 s per round likewise.
    "paper": Scale(n_clients=100, samples_per_client=66, rounds=150,
                   local_epochs=4, batch_size=2, eval_every=10),
}


@dataclass
class DigitsWorkload:
    """The digit-CNN federation (paper workload 1), bench width at every scale."""

    scale: str = "bench"
    seed: int = 7
    params: Scale = field(init=False)

    lr0: ClassVar[float] = 0.12
    channels: ClassVar[tuple] = (4, 8)
    hidden: ClassVar[int] = 32
    image_size: ClassVar[int] = 20

    def __post_init__(self) -> None:
        self.scale = resolve_scale(self.scale)
        self.params = _DIGIT_SCALES[self.scale]
        shards_per_client, n_test = _DIGIT_SPLITS[self.scale]
        rngs = child_rngs(self.seed, 4)
        n_train = self.params.n_clients * self.params.samples_per_client
        self.train = make_digit_dataset(
            n_train, rng=rngs[0], image_size=self.image_size
        )
        self.test = make_digit_dataset(
            n_test, rng=rngs[1], image_size=self.image_size
        )
        self.partition = label_shard_partition(
            self.train.y,
            self.params.n_clients,
            shards_per_client=shards_per_client,
            rng=rngs[2],
        )

    def make_trainer(self, policy: UploadPolicy, **config_overrides) -> FederatedTrainer:
        """A fresh trainer (fresh model, same data/seeds) for ``policy``."""
        p = self.params
        rngs = child_rngs(self.seed + 1, p.n_clients + 1)
        model = make_digits_cnn(
            image_size=self.image_size,
            channels=self.channels,
            hidden=self.hidden,
            rng=rngs[0],
        )
        workspace = ModelWorkspace(
            model,
            SoftmaxCrossEntropy(),
            SGD(model.parameters(), lr=self.lr0),
            metric=accuracy,
        )
        clients = [
            FLClient(i, self.train.subset(part), rng=rngs[i + 1])
            for i, part in enumerate(self.partition)
        ]
        settings = dict(
            rounds=p.rounds,
            local_epochs=p.local_epochs,
            batch_size=p.batch_size,
            lr=InverseSqrtLR(self.lr0),
            eval_every=p.eval_every,
            seed=self.seed,
        )
        settings.update(config_overrides)
        config = FLConfig(**settings)
        return FederatedTrainer(
            workspace,
            clients,
            policy,
            config,
            eval_fn=lambda w: w.evaluate(self.test.x, self.test.y),
        )


@dataclass
class NWPWorkload:
    """The next-word LSTM federation (paper workload 2), bench width at every scale."""

    scale: str = "bench"
    seed: int = 11
    params: Scale = field(init=False)

    lr0: ClassVar[float] = 2.0
    embedding_dim: ClassVar[int] = 16
    hidden: ClassVar[int] = 32
    n_topics: ClassVar[int] = 6
    words_per_topic: ClassVar[int] = 25

    def __post_init__(self) -> None:
        self.scale = resolve_scale(self.scale)
        self.params = _NWP_SCALES[self.scale]
        rngs = child_rngs(self.seed, 2)
        self.corpus = make_dialogue_corpus(
            n_roles=self.params.n_clients,
            words_per_role=self.params.samples_per_client + self.corpus_seq_len,
            n_topics=self.n_topics,
            words_per_topic=self.words_per_topic,
            rng=rngs[0],
        )
        full = self.corpus.as_dataset()
        # Hold out a global test slice, stratification-free (roles mix).
        self.train_indices_by_role = group_partition(self.corpus.roles)
        _, self.test = train_test_split(full, test_fraction=0.15, rng=rngs[1])

    @property
    def corpus_seq_len(self) -> int:
        return 10

    @property
    def vocab_size(self) -> int:
        return len(self.corpus.vocab)

    def make_trainer(self, policy: UploadPolicy, **config_overrides) -> FederatedTrainer:
        p = self.params
        rngs = child_rngs(self.seed + 1, p.n_clients + 1)
        model = make_nwp_lstm(
            self.vocab_size,
            embedding_dim=self.embedding_dim,
            hidden=self.hidden,
            rng=rngs[0],
        )
        workspace = ModelWorkspace(
            model,
            SoftmaxCrossEntropy(),
            SGD(model.parameters(), lr=self.lr0),
            metric=accuracy,
        )
        full = self.corpus.as_dataset()
        clients = [
            FLClient(i, full.subset(part), rng=rngs[i + 1])
            for i, part in enumerate(self.train_indices_by_role)
        ]
        settings = dict(
            rounds=p.rounds,
            local_epochs=p.local_epochs,
            batch_size=p.batch_size,
            lr=InverseSqrtLR(self.lr0),
            eval_every=p.eval_every,
            seed=self.seed,
        )
        settings.update(config_overrides)
        config = FLConfig(**settings)
        return FederatedTrainer(
            workspace,
            clients,
            policy,
            config,
            eval_fn=lambda w: w.evaluate(self.test.x, self.test.y),
        )

"""The four benchmark workloads: a federation generated from a seed.

Each builder returns a :class:`Federation` — the driver the harness
runs round by round, plus the handles the tracer needs — built only
from the program's public constructors.  The program never sees the
seed's meaning, only the federation it produced.

What ``--seed`` controls differs by workload, on purpose:

* ``population_soak`` is generated from the seed outright (dataset,
  model init, sampler stream, store and latency streams).  Its outcome
  metrics average over 100 convex-model clients a round and move by
  less than 1 % between seeds.
* ``digits_*`` and ``nwp_batched`` keep the paper workloads' published
  data/model seeds (7 and 11) and let the seed shuffle the *order of
  the clients* only.  Measured before choosing this (ten seeds, round
  100 of the digits federation): regenerating data, partition and init
  from the seed spreads ``uploaded_mib`` by 0.65 of its median
  (quartile distance), re-seeding only model init and minibatch streams
  still by 0.4, only minibatch streams by 0.18 — CMFL's upload
  decisions on a 30-client non-IID CNN federation are chaotic in every
  input.  A gate on bytes and accuracy needs a trajectory that repeats,
  so the seed must not steer it; the client order does not (the
  reduction is order-independent) while still giving every seed its
  own federation digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import ConstantThreshold, LinearDecayThreshold
from repro.data.dataset import Dataset
from repro.experiments.workloads import DigitsWorkload, NWPWorkload
from repro.fl.config import FLConfig
from repro.fl.events import AsyncConfig, AsyncFederatedTrainer
from repro.fl.sampling import UniformSampler
from repro.fl.store import ClientStateStore, CyclicPartition
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs

__all__ = ["Federation", "WORKLOADS", "Workload", "config_digest"]


@dataclass
class Federation:
    """One built workload instance.

    ``digest`` fingerprints the generated inputs (data, initial model,
    client order, streams).  ``engine`` is the async engine wrapping
    ``trainer``, where the workload has one.
    """

    trainer: FederatedTrainer
    digest: str
    engine: Optional[AsyncFederatedTrainer] = None
    trace_path: Optional[Path] = None

    @property
    def driver(self) -> Any:
        """What the harness calls ``run(n)`` and ``close()`` on."""
        return self.trainer if self.engine is None else self.engine

    def close(self) -> None:
        self.driver.close()


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _shuffle_clients(trainer: FederatedTrainer, seed: int) -> None:
    order = np.random.default_rng(seed).permutation(len(trainer.clients))
    trainer.clients[:] = [trainer.clients[i] for i in order]


def _eager_digest(trainer: FederatedTrainer) -> str:
    chunks = [np.ascontiguousarray(trainer.server.global_params).tobytes()]
    for client in trainer.clients:
        chunks.append(np.int64(client.client_id).tobytes())
        chunks.append(np.ascontiguousarray(client.train_data.x).tobytes())
        chunks.append(np.ascontiguousarray(client.train_data.y).tobytes())
        chunks.append(json.dumps(client.rng_state(), sort_keys=True).encode())
    return _sha(*chunks)


# -- digits ----------------------------------------------------------------

_DIGITS = dict(
    scale="bench", data_seed=7, threshold=(0.58, 0.50, 50),
)


def _build_digits(executor: str) -> Callable[..., Federation]:
    def build(seed: int, workdir: Path, obs: bool = True) -> Federation:
        del workdir, obs  # no artifacts, no program-side tracing
        workload = DigitsWorkload(_DIGITS["scale"], seed=_DIGITS["data_seed"])
        trainer = workload.make_trainer(
            CMFLPolicy(LinearDecayThreshold(*_DIGITS["threshold"])),
            executor=executor,
        )
        _shuffle_clients(trainer, seed)
        return Federation(trainer, _eager_digest(trainer))

    return build


# -- next-word prediction --------------------------------------------------

_NWP = dict(scale="bench", data_seed=11, threshold=(0.54, 0.48, 40))


def _build_nwp(seed: int, workdir: Path, obs: bool = True) -> Federation:
    del workdir, obs
    workload = NWPWorkload(_NWP["scale"], seed=_NWP["data_seed"])
    trainer = workload.make_trainer(
        CMFLPolicy(LinearDecayThreshold(*_NWP["threshold"])),
        executor="batched",
    )
    _shuffle_clients(trainer, seed)
    return Federation(trainer, _eager_digest(trainer))


# -- population soak -------------------------------------------------------

_SOAK = dict(
    population=100_000, cohort=100, dataset_rows=4_096, n_features=64,
    samples_per_client=50, shard_size=1_024, local_epochs=2, batch_size=10,
    lr=0.3, threshold=0.5, eval_every=50, staleness_bound=2, drop_rate=0.05,
    checkpoint_every=50, trace_sample=0.01,
)


def _build_soak(seed: int, workdir: Path, obs: bool = True) -> Federation:
    """Store + batched + async + checkpoints + sampled tracing.

    ``obs=False`` builds the identical federation with the program's
    own tracing off — the twin ``obs.sampled_overhead_ratio`` pairs
    against.
    """
    p = _SOAK
    rngs = child_rngs(seed, 4)
    w_true = rngs[0].normal(size=p["n_features"])
    x = rngs[1].normal(size=(p["dataset_rows"], p["n_features"]))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    model = make_logistic_regression(p["n_features"], rng=rngs[2])
    workspace = ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), p["lr"]),
        metric=binary_accuracy,
    )
    store = ClientStateStore(
        p["population"],
        CyclicPartition(data, p["population"], p["samples_per_client"]),
        seed=seed,
        shard_size=p["shard_size"],
    )
    sampler = UniformSampler(count=p["cohort"], rng=rngs[3])
    digest = _sha(
        x.tobytes(),
        y.tobytes(),
        workspace.get_flat().tobytes(),
        json.dumps(sampler.state_dict(), sort_keys=True).encode(),
        np.int64(seed).tobytes(),
    )
    workdir.mkdir(parents=True, exist_ok=True)
    trace_path = workdir / "trace.jsonl" if obs else None
    config = FLConfig(
        rounds=p["checkpoint_every"],
        local_epochs=p["local_epochs"],
        batch_size=p["batch_size"],
        lr=ConstantLR(p["lr"]),
        eval_every=p["eval_every"],
        seed=seed,
        executor="batched",
        trace_path=None if trace_path is None else str(trace_path),
        trace_sample=p["trace_sample"],
        checkpoint_dir=str(workdir / "ckpt"),
        checkpoint_every=p["checkpoint_every"],
    )
    trainer = FederatedTrainer(
        workspace,
        store,
        CMFLPolicy(ConstantThreshold(p["threshold"])),
        config,
        eval_fn=lambda w: w.evaluate(data.x, data.y),
        sampler=sampler,
    )
    engine = AsyncFederatedTrainer(
        trainer,
        AsyncConfig(
            staleness_bound=p["staleness_bound"], drop_rate=p["drop_rate"]
        ),
    )
    return Federation(trainer, digest, engine, trace_path)


# -- the table -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named workload and the frozen sizes of its runs.

    ``chunk`` rounds go into one ``run`` call (one timing sample): 1
    for the synchronous trainer; 50 for the async engine, which drains
    its in-flight rounds at the end of every ``run`` (it would never
    overlap two rounds at 1) and checkpoints every 50 rounds — one
    checkpoint in every sample keeps the samples unimodal, where 25
    would put a stall in every second one and leave the median
    between two modes.  ``ref_chunks`` timed chunks are the run all
    end-to-end metrics come from: sized to last ~20 s on a slow day of
    the 2-core reference host, inside the 24 s ``run_seconds``.
    ``traced_chunks`` is the length of the traced run and of the
    untraced twins it runs beside (about a quarter of that work).
    """

    name: str
    build: Callable[..., Federation]
    config: Dict[str, Any]
    chunk: int
    warmup_chunks: int
    ref_chunks: int
    traced_chunks: int

    def sized_for(self, seconds: float, reference: float) -> "Workload":
        """Scale the timed work with ``--seconds``: ``ref_chunks`` is
        frozen for the ``run_seconds`` BENCHMARK.json declares
        (``reference``); any other value gets the same share of it, and
        never less than one chunk."""
        chunks = max(1, round(self.ref_chunks * seconds / reference))
        return replace(self, ref_chunks=chunks)

    def smoke_sized(self) -> "Workload":
        """The same federation with the shortest useful run
        (``--smoke``): one chunk of at most two rounds per phase, no
        warm-up."""
        return replace(
            self, chunk=min(self.chunk, 2), warmup_chunks=0,
            ref_chunks=1, traced_chunks=1,
        )


def config_digest(workload: Workload) -> str:
    """Fingerprint of everything frozen about a workload."""
    payload = {
        "config": workload.config,
        "chunk": workload.chunk,
        "warmup_chunks": workload.warmup_chunks,
        "ref_chunks": workload.ref_chunks,
        "traced_chunks": workload.traced_chunks,
    }
    return _sha(json.dumps(payload, sort_keys=True).encode())


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "digits_serial", _build_digits("serial"),
            dict(_DIGITS, executor="serial"),
            chunk=1, warmup_chunks=1, ref_chunks=48, traced_chunks=12,
        ),
        Workload(
            "digits_batched", _build_digits("batched"),
            dict(_DIGITS, executor="batched"),
            chunk=1, warmup_chunks=1, ref_chunks=100, traced_chunks=25,
        ),
        Workload(
            "nwp_batched", _build_nwp, dict(_NWP, executor="batched"),
            chunk=1, warmup_chunks=1, ref_chunks=5, traced_chunks=2,
        ),
        Workload(
            "population_soak", _build_soak, dict(_SOAK, executor="batched"),
            chunk=50, warmup_chunks=1, ref_chunks=16, traced_chunks=4,
        ),
    )
}

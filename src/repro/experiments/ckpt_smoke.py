"""Checkpoint/kill/resume smoke run — repro.ckpt end to end.

Runs one small deterministic federation, described by a
:class:`FederationSpec`, with every round checkpointed under ``DIR/ckpt``
and, when the spec traces, the trace streamed to ``DIR/trace.jsonl``.
``--kill`` SIGKILLs the process at the first decision of the spec's
``kill_round``; ``--resume`` restores the latest checkpoint and finishes
the run::

    python -m repro.experiments.ckpt_smoke --dir /tmp/run --kill
    python -m repro.experiments.ckpt_smoke --dir /tmp/run --resume

``--spec`` takes a JSON object of :class:`FederationSpec` fields that
replace :data:`SMOKE`'s, e.g. the store-backed async path::

    python -m repro.experiments.ckpt_smoke --dir /tmp/run --kill \\
        --spec '{"stored": true, "seeded": true, "async_config": {"staleness_bound": 2}}'

Give the same ``--spec`` to both legs.  :meth:`FederationSpec.parts`
builds the same federation seed for seed on every call, which is what
``FederatedTrainer.restore`` needs of two processes.
``tests/test_ckpt_resume.py`` drives the pair in subprocesses and
asserts the resumed run is bitwise an uninterrupted one's.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.baselines import VanillaPolicy
from repro.ckpt import latest_checkpoint
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
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
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs, stream_seed

__all__ = [
    "SMOKE",
    "FederationSpec",
    "die_in_round",
    "main",
    "model_family",
    "parse_spec",
]


#: The linear family's labels: which side of this hyperplane a row is on.
_SEPARATOR = np.array([1.0, -1.0, 0.5, -0.5, 2.0])


def model_family(kind, rng):
    """``(model, loss, metric, draw)`` of a tiny linear, digit-CNN or
    2-layer-LSTM model; ``draw(rng, n)`` draws ``n`` rows ``(x, y)`` of
    its input and labels (linearly separable for the linear model)."""
    if kind == "linear":
        model = make_logistic_regression(5, rng=rng)

        def separable(g, n):
            x = g.normal(size=(n, 5))
            return x, (x @ _SEPARATOR > 0).astype(np.int64)

        return model, SigmoidBinaryCrossEntropy(), binary_accuracy, separable
    if kind == "cnn":
        model = make_digits_cnn(
            image_size=16, n_classes=4, channels=(2, 3), hidden=6, rng=rng
        )
        return (
            model, SoftmaxCrossEntropy(), accuracy,
            lambda g, n: (g.normal(size=(n, 1, 16, 16)), g.integers(0, 4, size=n)),
        )
    if kind == "lstm":
        model = make_nwp_lstm(11, embedding_dim=4, hidden=5, rng=rng)
        return (
            model, SoftmaxCrossEntropy(), accuracy,
            lambda g, n: (g.integers(0, 11, size=(n, 4)), g.integers(0, 11, size=n)),
        )
    raise ValueError(f"unknown model family {kind!r}")


@dataclass(frozen=True)
class FederationSpec:
    """One small federation and how a run of it is driven.

    ``cohort`` None is full participation, otherwise a uniform cohort
    of that many clients.  ``seeded`` is the population form the scale
    runs use instead of ragged shards: ``len(sizes)`` clients of
    ``min(sizes)`` rows, ``CyclicPartition`` windows (wrap-around
    copies included) of one dataset of ``max(sizes)`` rows, client
    ``i`` on the stream the store derives from ``(seed, i)``.
    ``stored`` runs a seeded population as ``ClientStateStore(n,
    partition, seed=seed, shard_size=shard_size)``, whose rows start
    untouched, instead of as an eager list; it needs ``seeded``.
    ``trace_sample`` None is tracing off, and
    ``async_config`` None the synchronous loop.  A killed run runs on
    ``kill_backend`` and dies at the first decision of round
    ``kill_round`` (:func:`die_in_round`); its resume runs on
    ``resume_backend``.
    """

    model: str = "linear"
    sizes: Tuple[int, ...] = (6, 6)
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

    def __post_init__(self) -> None:
        if self.stored and not self.seeded:
            raise ValueError(
                "stored=True needs seeded=True: the store holds seeded "
                "CyclicPartition populations only"
            )
        if not 1 <= self.kill_round <= self.rounds:
            raise ValueError(
                f"kill_round must be in 1..rounds={self.rounds}, "
                f"got {self.kill_round}"
            )

    def parts(
        self, backend: str, directory: Optional[Path] = None, **config: Any
    ) -> Dict[str, Any]:
        """``FederatedTrainer`` constructor kwargs, identical on every
        call.  A ``directory`` holds the run's checkpoints and, when
        traced, its ``trace.jsonl``; ``config`` overrides any other
        :class:`FLConfig` field."""
        rngs = child_rngs(self.seed, 4 + len(self.sizes))
        model, loss, metric, draw = model_family(self.model, rngs[0])
        optimizer = SGD(model.parameters(), self.lr)
        if self.seeded:
            rows = max(self.sizes)
            partition = CyclicPartition(
                Dataset(*draw(rngs[1], rows)),
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
                FLClient(i, Dataset(*draw(rngs[1], n)), rng=rngs[4 + i])
                for i, n in enumerate(self.sizes)
            ]
        x_test, y_test = draw(rngs[2], 8)
        traced = self.trace_sample is not None
        settings = dict(
            rounds=self.rounds, local_epochs=self.local_epochs,
            batch_size=self.batch_size, lr=ConstantLR(self.lr),
            seed=self.seed, executor=backend, trace=traced,
            trace_sample=self.trace_sample if traced else 1.0,
        )
        if directory is not None:
            settings.update(
                checkpoint_dir=str(Path(directory) / "ckpt"),
                checkpoint_every=self.checkpoint_every, checkpoint_keep=0,
            )
            if traced:
                settings["trace_path"] = str(Path(directory) / "trace.jsonl")
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
        wrapping it when the spec has one."""
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


#: The CLI's federation: four shards of 24 rows under CMFL(0.7), E=2,
#: B=6, six rounds, traced, killed in round 5.
SMOKE = FederationSpec(
    sizes=(24,) * 4, threshold=0.7, rounds=6, local_epochs=2, batch_size=6,
    lr=0.2, kill_round=5, trace_sample=1.0,
)


def parse_spec(text: str) -> FederationSpec:
    """:data:`SMOKE` with the fields of the JSON object ``text``
    replaced; ``async_config`` is null or an object of
    :class:`AsyncConfig` fields.  Raises ``ValueError`` naming the
    cause."""
    try:
        fields = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"--spec is not JSON: {err}") from None
    if not isinstance(fields, dict):
        raise ValueError(f"--spec must be a JSON object, got {text!r}")
    known = {f.name for f in dataclasses.fields(FederationSpec)}
    unknown = sorted(set(fields) - known)
    if unknown:
        raise ValueError(f"unknown FederationSpec field(s): {', '.join(unknown)}")
    if "sizes" in fields:
        fields["sizes"] = tuple(fields["sizes"])
    knobs = fields.get("async_config")
    if knobs is not None:
        if not isinstance(knobs, dict):
            raise ValueError(
                "async_config must be null or an object of AsyncConfig "
                f"fields, got {knobs!r}"
            )
        try:
            fields["async_config"] = AsyncConfig(**knobs)
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed async_config {knobs!r}: {err}") from None
    return dataclasses.replace(SMOKE, **fields)


def die_in_round(run, kill_round: int, die: Callable[[], None]) -> None:
    """Call ``die()`` at the first decision of round ``kill_round`` of
    ``run`` (a trainer or an async engine): after an earlier round's
    checkpoint, with spans open and the trace mid-stream, the worst
    realistic spot.  The CLI's ``die`` SIGKILLs the process; an
    in-process test's raises."""
    trainer = getattr(run, "trainer", run)

    def hook(result, decision):
        del result, decision
        if len(trainer.history) + 1 == kill_round:
            die()

    trainer.on_decision = hook


def _sigkill() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", default=None, metavar="JSON",
                        help="FederationSpec fields replacing SMOKE's")
    parser.add_argument("--dir", required=True,
                        help="holds ckpt/ and, when traced, trace.jsonl")
    leg = parser.add_mutually_exclusive_group()
    leg.add_argument("--kill", action="store_true",
                     help="SIGKILL this process in the spec's kill_round")
    leg.add_argument("--resume", action="store_true",
                     help="restore the latest checkpoint and finish")
    args = parser.parse_args(argv)
    try:
        spec = SMOKE if args.spec is None else parse_spec(args.spec)
    except ValueError as err:
        parser.error(str(err))

    if args.resume:
        parts = spec.parts(spec.resume_backend, directory=args.dir)
        path = latest_checkpoint(Path(args.dir) / "ckpt")
        if path is None:
            print(f"error: no checkpoint found in {Path(args.dir) / 'ckpt'}")
            return 2
        run = spec.restore(path, parts)
        remaining = spec.rounds - len(run.history)
        print(f"resuming from {path} ({remaining} rounds remaining)")
    else:
        run = spec.start(spec.parts(spec.kill_backend, directory=args.dir))
        if args.kill:
            die_in_round(run, spec.kill_round, _sigkill)
        remaining = spec.rounds
    with run:
        if remaining > 0:
            run.run(remaining)

    final = run.history.final
    print(
        f"done: {len(run.history)} rounds, "
        f"accumulated_rounds={final.accumulated_rounds}, "
        f"virtual_time={final.virtual_time:.3f}, "
        f"test_metric={final.test_metric}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

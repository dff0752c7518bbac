"""Tier-1 gate: a traced run writes a schema-valid JSONL trace whose
spans, and the totals folded from them, reconcile with the run's own
measurements — on a short serial digits run, and on a store-backed
async run with drops, sampled spans and a kill/resume."""

import numpy as np
import pytest

from repro.ckpt import latest_checkpoint
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import ConstantThreshold, InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.experiments.ckpt_smoke import die_in_round
from repro.experiments.workloads import DigitsWorkload
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
from repro.obs import (
    load_trace,
    metrics_from_trace,
    phase_summary,
    round_rows,
    trace_digest,
    validate_trace,
)
from repro.utils.rng import child_rngs


def _totals(events):
    return {
        name: summary.get("value")
        for name, summary in metrics_from_trace(events).items()
    }


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "smoke.jsonl"
    trainer = DigitsWorkload("test").make_trainer(
        CMFLPolicy(InverseSqrtThreshold(0.8)), rounds=2, trace_path=str(path)
    )
    with trainer:
        trainer.run(2)
    return trainer, load_trace(path)


def test_trace_file_is_schema_valid(traced_run):
    _, events = traced_run
    assert validate_trace(events) == []


def test_trace_reproduces_ledger_totals_exactly(traced_run):
    trainer, events = traced_run
    totals = _totals(events)
    assert totals["comm.uploads"] == trainer.ledger.accumulated_rounds
    assert totals["comm.skips"] == sum(
        trainer.ledger.skips_per_client.values()
    )
    assert (
        totals["comm.uploaded_bytes"] + totals["comm.status_bytes"]
        == trainer.ledger.total_bytes
    )


def test_trace_reproduces_history_upload_counts(traced_run):
    trainer, events = traced_run
    rows = round_rows(events, history=trainer.history)
    assert [r["iteration"] for r in rows] == [1, 2]
    for row, record in zip(rows, trainer.history):
        assert row["n_uploaded"] == record.n_uploaded
        assert row["total_bytes"] == record.total_bytes


def test_client_compute_spans_reconcile_with_round_wall_time(traced_run):
    trainer, events = traced_run
    rows = round_rows(events, history=trainer.history)
    n_clients = len(trainer.clients)
    phases = phase_summary(events)
    assert phases["client_compute"]["count"] == 2 * n_clients
    for row in rows:
        # Serial backend: the clients ran inside the round span one
        # after another, so their summed time is bounded by (and for a
        # compute-dominated round, most of) the round wall time.
        assert 0 < row["client_compute_s"] <= row["round_s"]
        covered = (
            row["client_compute_s"] + row["decide_s"]
            + row["aggregate_s"] + row["evaluate_s"] + row["broadcast_s"]
        )
        assert covered <= row["round_s"]


# -- the fold on the async, store-backed path -------------------------------

ROUNDS = 8
COHORT = 20
CRASH_ROUND = 6
_ASYNC = AsyncConfig(staleness_bound=2, drop_rate=0.2)


def _soak_parts(tmp_path, tag):
    """A population_soak-shaped federation in miniature: a lazily
    sharded store, a uniform cohort, the batched executor, sampled
    spans and periodic checkpoints."""
    rngs = child_rngs(5, 4)
    w_true = rngs[0].normal(size=8)
    x = rngs[1].normal(size=(256, 8))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    model = make_logistic_regression(8, rng=rngs[2])
    workspace = ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), 0.3),
        metric=binary_accuracy,
    )
    config = FLConfig(
        rounds=ROUNDS,
        local_epochs=1,
        batch_size=8,
        lr=ConstantLR(0.3),
        eval_every=4,
        seed=5,
        executor="batched",
        trace_path=str(tmp_path / f"{tag}.jsonl"),
        trace_sample=0.2,
        checkpoint_dir=str(tmp_path / f"{tag}-ckpt"),
        checkpoint_every=2,
    )
    return dict(
        workspace=workspace,
        clients=ClientStateStore(
            5_000, CyclicPartition(data, 5_000, 16), seed=5, shard_size=256
        ),
        policy=CMFLPolicy(ConstantThreshold(0.5)),
        config=config,
        eval_fn=lambda ws: ws.evaluate(x, y),
        sampler=UniformSampler(count=COHORT, rng=rngs[3]),
    )


def _soak_engine(parts):
    return AsyncFederatedTrainer(FederatedTrainer(**parts), _ASYNC)


class _Abort(RuntimeError):
    """Simulated crash raised from inside the decide phase."""


def _abort():
    raise _Abort("simulated crash")


def _run_killed_then_resumed(tmp_path):
    engine = _soak_engine(_soak_parts(tmp_path, "killed"))
    die_in_round(engine, CRASH_ROUND, _abort)
    with pytest.raises(_Abort):
        with engine:
            engine.run(ROUNDS)
    parts = _soak_parts(tmp_path, "killed")
    path = latest_checkpoint(parts["config"].checkpoint_dir)
    resumed = AsyncFederatedTrainer.restore(path, async_config=_ASYNC, **parts)
    assert 0 < len(resumed.history) < CRASH_ROUND
    with resumed:
        resumed.run(ROUNDS - len(resumed.history))
    return resumed


def _assert_fold_reconciles(engine, totals):
    ledger = engine.trainer.ledger
    history = engine.history
    assert len(history) == ROUNDS
    assert totals["comm.uploads"] == ledger.accumulated_rounds
    assert totals["comm.skips"] == sum(ledger.skips_per_client.values())
    assert totals["comm.uploaded_bytes"] == ledger.uploaded_bytes
    assert totals["comm.status_bytes"] == ledger.status_bytes
    # A dropped upload never reaches the server: it is missing from
    # its round's record, which counts the survivors.
    dropped = sum(COHORT - record.n_clients for record in history)
    assert dropped > 0
    assert totals["async.drops"] == dropped
    assert totals["async.closes"] == totals["async.dispatches"] == len(history)
    assert totals["store.checkouts"] == COHORT * len(history)
    assert totals["store.rows_written"] == COHORT * len(history)
    assert (
        totals["store.shards_materialized"]
        == engine.trainer.store.materialized_shards
    )


def test_fold_reconciles_on_the_async_store_path_across_a_resume(tmp_path):
    whole = _soak_engine(_soak_parts(tmp_path, "whole"))
    with whole:
        whole.run(ROUNDS)
    whole_events = load_trace(tmp_path / "whole.jsonl")
    assert validate_trace(whole_events) == []
    whole_totals = _totals(whole_events)
    _assert_fold_reconciles(whole, whole_totals)

    resumed = _run_killed_then_resumed(tmp_path)
    resumed_events = load_trace(tmp_path / "killed.jsonl")
    assert trace_digest(resumed_events) == trace_digest(whole_events)
    resumed_totals = _totals(resumed_events)
    _assert_fold_reconciles(resumed, resumed_totals)
    deterministic = [n for n in whole_totals if not n.startswith("runtime.")]
    assert {n: resumed_totals[n] for n in deterministic} == {
        n: whole_totals[n] for n in deterministic
    }

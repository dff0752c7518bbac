"""The async event engine: bounded staleness, determinism, churn, and
the virtual-timeline primitives."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import VanillaPolicy
from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.events import (
    ARRIVAL,
    DISPATCH,
    AsyncConfig,
    AsyncFederatedTrainer,
    Event,
    EventQueue,
    LatencyModel,
    VirtualClock,
)
from repro.fl.events.latency import (
    LINK_BANDWIDTH_BPS,
    LINK_LATENCY_S,
    TRAIN_SECONDS_PER_SAMPLE,
)
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.nn.serialization import update_nbytes
from repro.obs import load_trace, metrics_from_trace, trace_digest
from repro.utils.rng import child_rngs
from tests.strategies import SYNC_EQUIV, assert_lattice

N_FEATURES = 4


def _clients(n=6, seed=0):
    rngs = child_rngs(seed, n + 2)
    w = rngs[0].normal(size=N_FEATURES)
    clients = []
    for i in range(n):
        x = rngs[1].normal(size=(20, N_FEATURES))
        y = (x @ w > 0).astype(np.int64)
        clients.append(FLClient(i, Dataset(x, y), rng=rngs[2 + i]))
    return clients


def _workspace(seed=3):
    model = make_logistic_regression(N_FEATURES, rng=seed)
    return ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), 0.5),
        metric=binary_accuracy,
    )


def _trainer(trace_path=None):
    config = FLConfig(
        rounds=4,
        local_epochs=1,
        batch_size=8,
        lr=ConstantLR(0.3),
        seed=11,
        trace=trace_path is not None,
        trace_path=None if trace_path is None else str(trace_path),
    )
    return FederatedTrainer(_workspace(), _clients(), VanillaPolicy(), config)


def _run_sync():
    trainer = _trainer()
    trainer.run()
    trainer.close()
    return trainer


def _run_async(trace_path, async_config):
    engine = AsyncFederatedTrainer(
        _trainer(trace_path=trace_path), async_config=async_config
    )
    engine.run()
    engine.close()
    return engine


# -- timeline primitives -----------------------------------------------------


class TestClockAndQueue:
    def test_clock_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_queue_orders_by_time_then_kind(self):
        queue = EventQueue()
        queue.push(Event(2.0, DISPATCH, 2))
        queue.push(Event(1.0, DISPATCH, 1))
        queue.push(Event(2.0, ARRIVAL, 1, client_id=3))
        order = [queue.pop() for _ in range(3)]
        assert [(e.time, e.kind) for e in order] == [
            (1.0, DISPATCH),
            (2.0, ARRIVAL),
            (2.0, DISPATCH),
        ]

    def test_queue_state_roundtrip(self):
        queue = EventQueue()
        queue.push(Event(1.5, ARRIVAL, 1, client_id=2))
        queue.push(Event(0.5, DISPATCH, 1))
        other = EventQueue()
        other.load_state_dict(queue.state_dict())
        assert list(other) == list(queue)
        assert other.has_kind(DISPATCH)

    def test_latency_is_a_pure_function(self):
        model = LatencyModel(seed=7, n_params=10, drop_rate=0.3)
        draws = [model.timing(3, 5, 20, 2) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        assert draws[0].latency_s > 0.0

    def test_latency_streams_differ_across_rounds_and_clients(self):
        model = LatencyModel(seed=7, n_params=10)
        a = model.timing(1, 0, 20, 1)
        b = model.timing(2, 0, 20, 1)
        c = model.timing(1, 1, 20, 1)
        assert len({a.latency_s, b.latency_s, c.latency_s}) == 3


class TestLinkAndComputeModel:
    def test_transfer_time(self):
        # No samples, no training: the model goes down and up the link.
        n_params = 125_000
        one_way = LINK_LATENCY_S + 8.0 * update_nbytes(n_params) / LINK_BANDWIDTH_BPS
        timing = LatencyModel(seed=7, n_params=n_params).timing(1, 0, 0, 1)
        assert timing.latency_s == one_way + 0.0 + one_way

    def test_validation(self):
        with pytest.raises(ValueError, match="n_params"):
            LatencyModel(seed=7, n_params=0)
        with pytest.raises(ValueError, match="drop_rate"):
            LatencyModel(seed=7, n_params=10, drop_rate=1.0)

    def test_training_time_scales(self):
        # One speed factor per (round, client): training time is linear
        # in samples x epochs around the fixed transfers.
        model = LatencyModel(seed=7, n_params=10)
        transfers = model.timing(3, 5, 0, 1).latency_s
        train = [model.timing(3, 5, n, e).latency_s - transfers for n, e in
                 ((10, 1), (10, 2), (20, 2))]
        assert train[0] > 0.0
        assert train[1] == pytest.approx(2 * train[0])
        assert train[2] == pytest.approx(4 * train[0])
        # A lognormal factor around the nominal per-sample cost.
        assert 0.05 < train[0] / (TRAIN_SECONDS_PER_SAMPLE * 10) < 20.0


class TestAsyncConfig:
    def test_merge_weight_is_exactly_one_at_zero(self):
        cfg = AsyncConfig(staleness_bound=4)
        assert cfg.merge_weight(0) == 1.0
        assert cfg.merge_weight(2) == 1.0 / 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncConfig(staleness_bound=-1)
        with pytest.raises(ValueError):
            AsyncConfig(drop_rate=1.0)


# -- S = 0: the synchronous schedule -----------------------------------------


class TestSyncEquivalence:
    """S=0 computes what the synchronous trainer does (the lattice's
    edge (e) in ``tests/test_lattice.py``); its timeline still moves."""

    @pytest.mark.parametrize("backend", ["serial", "batched", "store"])
    @pytest.mark.parametrize("policy", ["always", "cmfl"])
    def test_bitwise_identical_to_sync_trainer(self, backend, policy):
        spec = replace(
            SYNC_EQUIV, policy="vanilla" if policy == "always" else "cmfl"
        )
        if backend == "store":
            # Views retire at dispatch instead of at close.  Six
            # clients of 20 rows, each its own window of 120.
            spec = replace(
                spec, sizes=(120,) + (20,) * 5, stored=True, seeded=True,
                shard_size=4096, cohort=4,
            )
        # Batched: the async run on it ≡ the serial async run ≡ sync.
        assert_lattice(spec, "ae" if backend == "batched" else "e")

    def test_sync_mode_records_zero_staleness(self, tmp_path):
        engine = _run_async(None, AsyncConfig())
        assert engine.history.staleness().tolist() == [0, 0, 0, 0]
        times = engine.history.virtual_times()
        assert times[0] > 0.0 and np.all(np.diff(times) > 0)


# -- S > 0: bounded staleness ------------------------------------------------


class TestBoundedStaleness:
    def _run(self, staleness_bound=2, trace_path=None, **knobs):
        return _run_async(
            trace_path,
            AsyncConfig(staleness_bound=staleness_bound, **knobs),
        )

    def test_rounds_overlap_and_staleness_is_bounded(self):
        engine = self._run(staleness_bound=2)
        staleness = engine.history.staleness()
        assert len(engine.history) == 4
        assert staleness.max() <= 2
        # With S=2, at least one round must have aggregated against a
        # model that moved while it was in flight.
        assert staleness.max() >= 1

    def test_virtual_time_is_monotone_and_positive(self):
        engine = self._run()
        times = engine.history.virtual_times()
        assert np.all(np.diff(times) >= 0)
        assert times[0] > 0.0

    def test_identical_runs_are_bitwise_identical(self, tmp_path):
        a = self._run(trace_path=tmp_path / "a.jsonl")
        b = self._run(trace_path=tmp_path / "b.jsonl")
        assert a.history.staleness().max() >= 1
        assert a.history.to_jsonl() == b.history.to_jsonl()
        assert (
            a.trainer.server.global_params.tobytes()
            == b.trainer.server.global_params.tobytes()
        )
        assert trace_digest(load_trace(tmp_path / "a.jsonl")) == trace_digest(
            load_trace(tmp_path / "b.jsonl")
        )

    def test_async_history_differs_from_sync_when_stale(self):
        sync = _run_sync()
        engine = self._run(staleness_bound=2)
        assert engine.history.staleness().max() >= 1
        assert engine.history.to_jsonl() != sync.history.to_jsonl()

    def test_churn_drops_clients_but_rounds_still_close(self):
        engine = self._run(staleness_bound=1, drop_rate=0.4)
        assert len(engine.history) == 4
        n_clients = np.array([r.n_clients for r in engine.history])
        # drop_rate=0.4 over 6 clients x 4 rounds: some upload must
        # have been lost (probability of none is ~1e-5 at this seed).
        assert n_clients.min() < 6
        assert n_clients.min() >= 1

    def test_ledger_tracks_staleness(self):
        engine = self._run(staleness_bound=2)
        ledger = engine.trainer.ledger
        assert ledger.staleness_max >= 1
        assert ledger.staleness_max == engine.history.staleness().max()
        assert ledger.staleness_total == engine.history.staleness().sum()

    def test_async_metrics_are_emitted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        engine = self._run(staleness_bound=2, trace_path=path)
        assert engine.history.staleness().max() >= 1
        events = load_trace(path)
        counters = {
            name: summary.get("value")
            for name, summary in metrics_from_trace(events).items()
        }
        assert counters.get("async.dispatches") == 4
        assert counters.get("async.closes") == 4
        assert counters.get("async.arrivals") == 4 * 6
        span_names = {
            e["name"] for e in events if e.get("kind") == "span"
        }
        assert {"dispatch", "round_close"} <= span_names
        assert "round" not in span_names

    def test_arrivals_are_counted_once_per_closed_round(self, tmp_path):
        # One event per arrival was 4/5 of a population run's trace: the
        # round_close span carries its round's arrival count instead.
        path = tmp_path / "t.jsonl"
        self._run(staleness_bound=2, trace_path=path)
        events = load_trace(path)
        closes = [
            e for e in events
            if e.get("kind") == "span" and e["name"] == "round_close"
        ]
        assert len(closes) == 4
        arrivals = metrics_from_trace(events)["async.arrivals"]["value"]
        assert arrivals == sum(e["attrs"]["n_arrived"] for e in closes)
        assert arrivals == 4 * 6

"""The sharded client-state store: parity, laziness, checkpointing."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.sampling import UniformSampler
from repro.fl.store import ClientStateStore, CyclicPartition, StoreClient
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs, stream_seed
from tests.strategies import STORE, assert_lattice


def _dataset(rows=60, features=4, seed=0):
    rngs = child_rngs(seed, 2)
    w = rngs[0].normal(size=features)
    x = rngs[1].normal(size=(rows, features))
    y = (x @ w > 0).astype(np.int64)
    return Dataset(x, y)


#: The seeded population the trainer-level tests share: eight clients
#: of 12 rows, each its own window of one 96-row dataset, in store
#: shards of 4.
_N, _PER, _SEED = 8, 12, 0


def _partition():
    return CyclicPartition(_dataset(rows=_N * _PER), _N, _PER)


def _clients():
    """The eager twin of :func:`_store`: client ``i`` on its window and
    on the stream the store derives for row ``i``."""
    part = _partition()
    return [
        FLClient(i, part.materialize(i), rng=np.random.Generator(
            np.random.PCG64(stream_seed(_SEED, i))
        ))
        for i in range(_N)
    ]


def _store():
    return ClientStateStore(_N, _partition(), seed=_SEED, shard_size=4)


def _workspace(seed=3, lr=0.5):
    model = make_logistic_regression(4, rng=seed)
    return ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), SGD(model.parameters(), lr)
    )


def _config(rounds=5, backend="serial"):
    return FLConfig(
        rounds=rounds,
        local_epochs=2,
        batch_size=6,
        lr=ConstantLR(0.3),
        executor=backend,
    )


def _history_digest(trainer):
    from repro.fl.history import history_digest

    return history_digest(trainer)


def _columns(store):
    """The store's snapshot with each column's row blocks joined: the
    whole-store arrays a checkpoint reads back."""
    return {
        name: np.concatenate(blocks)
        for name, blocks in store.state_arrays().items()
    }


class TestPartitions:
    def test_cyclic_no_wrap_is_view(self):
        data = _dataset(rows=50)
        part = CyclicPartition(data, n_clients=1000, samples_per_client=10)
        d0 = part.materialize(0)
        assert np.shares_memory(d0.x, data.x)
        assert np.array_equal(d0.x, data.x[:10])

    def test_cyclic_wraps_around(self):
        data = _dataset(rows=50)
        part = CyclicPartition(data, n_clients=1000, samples_per_client=10)
        # client 4 starts at row 40 and needs 10 rows -> no wrap;
        # client 104 starts at (104*10) % 50 = 40 -> same shard.
        d = part.materialize(4)
        assert np.array_equal(d.x, data.x[40:50])
        part15 = CyclicPartition(data, n_clients=1000, samples_per_client=15)
        d = part15.materialize(3)  # start 45, wraps 10 rows
        assert np.array_equal(
            d.x, np.concatenate([data.x[45:], data.x[:10]])
        )
        assert len(d) == 15

    def test_cyclic_validates(self):
        data = _dataset(rows=50)
        with pytest.raises(ValueError):
            CyclicPartition(data, n_clients=0, samples_per_client=10)
        with pytest.raises(ValueError):
            CyclicPartition(data, n_clients=10, samples_per_client=51)

    def test_cyclic_describe_keeps_the_stride_key(self):
        """Checkpoints compare the partition's manifest entry as a
        whole, so the fixed stride is still spelled out for them."""
        part = CyclicPartition(_dataset(rows=50), 1000, 10)
        assert part.describe() == {
            "kind": "cyclic", "n_clients": 1000, "samples_per_client": 10,
            "stride": 10,
        }


class TestStoreCore:
    def _store(self, population=10_000, shard_size=64, seed=11):
        data = _dataset(rows=60)
        part = CyclicPartition(data, population, samples_per_client=10)
        return ClientStateStore(
            population, part, seed=seed, shard_size=shard_size
        )

    def test_lazy_shards(self):
        store = self._store()
        assert store.materialized_shards == 0
        views = store.checkout([0, 63, 64, 9_999])
        store.writeback(views)
        # rows 0 and 63 share shard 0; 64 is shard 1; 9999 is shard 156.
        assert store.materialized_shards == 3
        assert store.nbytes > 0

    def test_streams_are_pure_functions_of_seed_and_index(self):
        # Touch order must not change any client's draws.
        a = self._store()
        b = self._store()
        va = a.checkout([5])
        a.writeback(va)
        va = a.checkout([5, 7_000])
        vb = b.checkout([7_000])
        assert (
            va[1].rng_state()["state"] == vb[0].rng_state()["state"]
        )
        a.writeback(va)
        b.writeback(vb)

    def test_writeback_resumes_stream_bitwise(self):
        store = self._store()
        ref = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=(11, 42)))
        )
        for _ in range(3):
            (view,) = store.checkout([42])
            assert view._rng.random() == ref.random()
            store.writeback([view])

    def test_checkout_validates(self):
        store = self._store()
        with pytest.raises(IndexError):
            store.checkout([10_000])
        views = store.checkout([3])
        with pytest.raises(RuntimeError):
            store.checkout([3])  # already out
        store.writeback(views)
        with pytest.raises(RuntimeError):
            store.writeback(views)  # already retired

    def test_retired_view_refuses_compute(self):
        store = self._store()
        (view,) = store.checkout([1])
        store.writeback([view])
        with pytest.raises(RuntimeError):
            view.compute_update(None, np.zeros(5), lr=0.1,
                                local_epochs=1, batch_size=2)

    def test_retired_view_refuses_every_stream_access(self):
        """The batched path never calls ``compute_update``: it draws
        through ``epoch_order``.  A retired view must not advance (or
        report) a stream whose state the store already captured."""
        store = self._store()
        (view,) = store.checkout([1])
        store.writeback([view])
        captured = _columns(store)["rng"]
        for access in (view.epoch_order, view.rng_state,
                       lambda: view.set_rng_state({"bit_generator": "PCG64"})):
            with pytest.raises(RuntimeError, match="already written back"):
                access()
        # A live row is restored into the generator the retired view
        # handed back; the retired view has no way left to move it.
        (again,) = store.checkout([1])
        assert again._rng is not None and view._stream is None
        store.writeback([again])
        assert np.array_equal(_columns(store)["rng"], captured)

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_executors_refuse_a_retired_cohort(self, backend):
        from repro.fl.executor import ClientExecutionError, RoundPlan, make_executor

        store = self._store()
        workspace = _workspace()
        plan = RoundPlan(iteration=1, lr=0.3, local_epochs=1, batch_size=4,
                         global_params=workspace.get_flat())
        views = store.checkout([3, 4, 5])
        with make_executor(backend) as executor:
            executor.bind(workspace)
            executor.run_round(plan, views)
            store.writeback(views)
            captured = _columns(store)["rng"]
            with pytest.raises(ClientExecutionError, match="already written back") as exc:
                executor.run_round(plan, views)
        assert exc.value.client_id == 3 and exc.value.cause_type == "RuntimeError"
        assert np.array_equal(_columns(store)["rng"], captured)

    def test_async_dispatch_retires_the_views_it_wrote_back(self):
        """S > 0 writes views back at dispatch, while their round is
        still in flight; they must be inert from then on."""
        from repro.fl.events import AsyncConfig, AsyncFederatedTrainer

        store = self._store(population=40)
        trainer = FederatedTrainer(
            _workspace(), store, CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(backend="batched"), sampler=UniformSampler(count=6, rng=2),
        )
        engine = AsyncFederatedTrainer(trainer, AsyncConfig(staleness_bound=2))
        held = []
        begin = trainer._begin_round

        def spying_begin(t, span):
            state = begin(t, span)
            assert not store._outstanding
            return state

        checkout = store.checkout

        def spying_checkout(indices):
            views = checkout(indices)
            held.extend(views)
            return views

        trainer._begin_round = spying_begin
        store.checkout = spying_checkout
        engine.run(3)
        assert len(held) >= 18 and not store._outstanding
        for view in held:
            with pytest.raises(RuntimeError, match="already written back"):
                view.epoch_order()

    def test_snapshot_refused_mid_round(self):
        store = self._store()
        views = store.checkout([1])
        with pytest.raises(RuntimeError):
            store.state_arrays()
        with pytest.raises(RuntimeError):
            store.manifest()
        store.writeback(views)
        assert "shards" in store.manifest()

    def test_state_arrays_round_trip(self):
        store = self._store()
        views = store.checkout([2, 700])
        for v in views:
            v._rng.random(5)
        store.writeback(views)
        manifest = store.manifest()
        arrays = _columns(store)
        other = self._store()
        other.load_state(manifest, arrays)
        (a,) = store.checkout([700])
        (b,) = other.checkout([700])
        assert a._rng.random() == b._rng.random()
        store.writeback([a])
        other.writeback([b])

    def test_state_columns_span_shards(self):
        """Shard rows travel as whole-store columns: ragged last shard
        and an untouched store."""
        def store():
            return ClientStateStore(
                100, CyclicPartition(_dataset(rows=60), 100, 10), seed=4,
                shard_size=32,
            )

        source = store()
        assert {k: len(v) for k, v in _columns(source).items()} == {
            "rng": 0, "live": 0, "stats": 0,
        }
        store().load_state(source.manifest(), _columns(source))
        source.writeback(source.checkout([1, 40, 99]))  # shards 0, 1, 3
        source.record_round(1, [40], [99])
        arrays = _columns(source)
        assert set(arrays) == {"rng", "live", "stats"}
        assert len(arrays["rng"]) == 32 + 32 + 4
        other = store()
        other.load_state(source.manifest(), arrays)
        assert other.materialized_shards == source.materialized_shards
        for index in (40, 99):
            assert other.participation_stats(index) == (
                source.participation_stats(index)
            )
        with pytest.raises(ValueError, match="wrong shape"):
            arrays["stats"] = arrays["stats"][:-1]
            store().load_state(source.manifest(), arrays)

    def test_load_state_validates_identity(self):
        store = self._store()
        views = store.checkout([0])
        store.writeback(views)
        manifest = store.manifest()
        arrays = _columns(store)
        with pytest.raises(ValueError):
            self._store(seed=12).load_state(manifest, arrays)
        smaller = ClientStateStore(
            5_000,
            CyclicPartition(_dataset(rows=60), 5_000, 10),
            seed=11,
            shard_size=64,
        )
        with pytest.raises(ValueError):
            smaller.load_state(manifest, arrays)

    def test_record_round_stats(self):
        store = ClientStateStore(
            100, CyclicPartition(_dataset(rows=60), 100, 10)
        )
        store.record_round(3, [4, 5], [6])
        assert store.participation_stats(4) == {
            "participations": 1, "uploads": 1, "last_round": 3,
        }
        assert store.participation_stats(6) == {
            "participations": 1, "uploads": 0, "last_round": 3,
        }
        assert store.participation_stats(7)["participations"] == 0

    def test_constructor_validates(self):
        data = _dataset(rows=60)
        part = CyclicPartition(data, 10, 10)
        with pytest.raises(ValueError):
            ClientStateStore(0, part)
        with pytest.raises(ValueError):
            ClientStateStore(11, part)  # partition too small


class TestTrainerParity:
    """What a store-backed run accounts (that it runs the eager run's
    bits is the lattice's edge (b) in ``tests/test_lattice.py``)."""

    def test_serial_digest_identical(self):
        assert_lattice(STORE, "b")

    def test_batched_digest_identical(self):
        assert_lattice(STORE, "ab")

    def test_store_with_sampler(self):
        assert_lattice(replace(STORE, cohort=4), "b")

    def test_store_counters_account_cohorts(self):
        from repro.obs import MemorySink, Tracer, metrics_from_trace

        store = _store()
        trainer = FederatedTrainer(
            _workspace(),
            store,
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(),
            tracer=Tracer(sinks=[MemorySink()]),
        )
        trainer.run(3)
        totals = metrics_from_trace(trainer.tracer.memory_events())
        assert totals["store.checkouts"]["value"] == 8 * 3
        assert totals["store.rows_written"]["value"] == 8 * 3
        # The full cohort touched both shards; the rollups report the
        # store's own count.
        assert totals["store.shards_materialized"]["value"] == 2
        assert store.materialized_shards == 2
        trainer.close()

    def test_stats_reflect_cmfl_decisions(self):
        trainer = FederatedTrainer(
            _workspace(),
            _store(),
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(),
        )
        trainer.run(5)
        uploads = sum(
            trainer.store.participation_stats(i)["uploads"]
            for i in range(8)
        )
        participations = sum(
            trainer.store.participation_stats(i)["participations"]
            for i in range(8)
        )
        assert participations == 8 * 5
        assert uploads == sum(r.n_uploaded for r in trainer.history)


class TestStoreCheckpoint:
    """What a store-backed checkpoint refuses, and the manifests of
    older eras it still resumes bitwise."""

    def _build(self):
        return FederatedTrainer(
            _workspace(),
            _store(),
            CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(rounds=8),
            sampler=UniformSampler(count=4, rng=5),
        )

    def test_resume_is_bitwise_identical(self):
        """Resumed from round 4 of eight, ``materialized_shards`` too."""
        assert assert_lattice(
            replace(STORE, cohort=4, rounds=8, kill_round=5), "d"
        ) == 4

    def test_store_checkpoint_mismatch_fails_loudly(self, tmp_path):
        from repro.ckpt.format import CheckpointError

        trainer = self._build()
        trainer.run(2)
        path = trainer.save_checkpoint(tmp_path / "store.ckpt")
        with pytest.raises(CheckpointError):
            FederatedTrainer.restore(
                path,
                _workspace(),
                _clients(),  # eager federation, store-backed checkpoint
                CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(rounds=8),
                sampler=UniformSampler(count=4, rng=5),
            )

    @pytest.mark.parametrize(
        "legacy, refused",
        [
            ({"track_feedback": False, "n_params": None,
              "feedback_shards": []}, False),
            ({"track_feedback": True, "n_params": 9,
              "feedback_shards": []}, True),
            ({"track_feedback": False, "n_params": None,
              "feedback_shards": [0]}, True),
        ],
    )
    def test_store_manifest_of_the_feedback_column_era(
        self, tmp_path, legacy, refused
    ):
        """Older store manifests carry the removed feedback-sign
        column's keys: one that never used it resumes bitwise, one that
        did is refused by name."""
        from repro.ckpt.format import CheckpointError, write_checkpoint
        from repro.ckpt.state import capture_run_state

        reference = self._build()
        reference.run(8)

        crashed = self._build()
        crashed.run(4)
        manifest, arrays, texts = capture_run_state(crashed)
        manifest["store"].update(legacy)
        path = tmp_path / "legacy.ckpt"
        write_checkpoint(path, manifest, arrays, texts)

        def restore():
            return FederatedTrainer.restore(
                path,
                _workspace(),
                _store(),
                CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(rounds=8),
                sampler=UniformSampler(count=4, rng=5),
            )

        if refused:
            with pytest.raises(CheckpointError, match="track_feedback"):
                restore()
        else:
            resumed = restore()
            resumed.run(4)
            assert _history_digest(resumed) == _history_digest(reference)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("store_backed", [False, True])
    def test_server_manifest_of_the_weighted_era(
        self, tmp_path, store_backed, weighted
    ):
        """Older manifests carry ``server.weighted``: a plain-mean run
        resumes bitwise, a FedAvg-weighted one is refused by name."""
        from repro.ckpt.format import CheckpointError, write_checkpoint
        from repro.ckpt.state import capture_run_state

        def build(restore_from=None):
            clients = _store() if store_backed else _clients()
            parts = (
                _workspace(), clients, CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(rounds=8),
            )
            sampler = UniformSampler(count=4, rng=5)
            if restore_from is None:
                return FederatedTrainer(*parts, sampler=sampler)
            return FederatedTrainer.restore(
                restore_from, *parts, sampler=sampler
            )

        reference = build()
        reference.run(8)
        crashed = build()
        crashed.run(4)
        manifest, arrays, texts = capture_run_state(crashed)
        manifest["server"]["weighted"] = weighted
        path = tmp_path / "weighted.ckpt"
        write_checkpoint(path, manifest, arrays, texts)
        if weighted:
            with pytest.raises(CheckpointError, match="weighted_aggregation"):
                build(restore_from=path)
        else:
            resumed = build(restore_from=path)
            resumed.run(4)
            assert _history_digest(resumed) == _history_digest(reference)

    @pytest.mark.parametrize("store_backed", [False, True])
    def test_ledger_tables_survive_restore(self, tmp_path, store_backed):
        """The ledger's tables ride as array members; a restore gives
        back the same int-keyed dicts and list, eager or store-backed."""

        def clients():
            return _store() if store_backed else _clients()

        def build():
            return FederatedTrainer(
                _workspace(), clients(), CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(rounds=8), sampler=UniformSampler(count=4, rng=5),
            )

        crashed = build()
        crashed.run(5)
        path = crashed.save_checkpoint(tmp_path / "ledger.ckpt")
        resumed = FederatedTrainer.restore(
            path, _workspace(), clients(),
            CMFLPolicy(InverseSqrtThreshold(0.8)), _config(rounds=8),
            sampler=UniformSampler(count=4, rng=5),
        )
        ledger = resumed.ledger
        assert ledger.uploads_per_client == crashed.ledger.uploads_per_client
        assert ledger.skips_per_client == crashed.ledger.skips_per_client
        assert ledger.uploads_per_client and ledger.skips_per_client
        assert all(
            type(k) is int and type(v) is int
            for table in (ledger.uploads_per_client, ledger.skips_per_client)
            for k, v in table.items()
        )
        assert ledger.rounds_per_iteration == crashed.ledger.rounds_per_iteration
        assert ledger == crashed.ledger

    def test_manifest_size_does_not_follow_clients_touched(self, tmp_path):
        """A checkpoint's JSON manifest is O(1) in the clients and
        shards touched: tables and shard rows are array members."""
        import zipfile

        population, cohort = 50_000, 1_000
        data = _dataset(rows=200)
        store = ClientStateStore(
            population, CyclicPartition(data, population, 10), seed=2,
            shard_size=64,
        )
        trainer = FederatedTrainer(
            _workspace(), store, CMFLPolicy(InverseSqrtThreshold(0.8)),
            _config(rounds=6, backend="batched"),
            sampler=UniformSampler(count=cohort, rng=5),
        )
        for rounds, at_least in ((1, 1_000), (5, 5_000)):
            trainer.run(rounds)
            ledger = trainer.ledger
            touched = set(ledger.uploads_per_client) | set(ledger.skips_per_client)
            assert len(touched) >= at_least
            path = trainer.save_checkpoint(tmp_path / f"{at_least}.ckpt")
            with zipfile.ZipFile(path) as zf:
                assert zf.getinfo("manifest.json").file_size < 64 * 1024

    @pytest.mark.parametrize(
        "table, grown",
        [
            ("skips_per_client", ("ids",)),
            ("uploads_per_client", ("ids", "counts")),
        ],
    )
    def test_ledger_table_length_mismatch_names_the_table(
        self, tmp_path, table, grown
    ):
        """ids vs counts, and both vs the manifest's length."""
        from repro.ckpt.format import CheckpointError, write_checkpoint
        from repro.ckpt.state import capture_run_state

        trainer = self._build()
        trainer.run(3)
        manifest, arrays, texts = capture_run_state(trainer)
        for column in grown:
            key = f"ledger/{table}/{column}"
            arrays[key] = np.append(arrays[key], 7)
        path = tmp_path / "hostile.ckpt"
        write_checkpoint(path, manifest, arrays, texts)
        with pytest.raises(CheckpointError, match=table):
            FederatedTrainer.restore(
                path,
                _workspace(),
                _store(),
                CMFLPolicy(InverseSqrtThreshold(0.8)),
                _config(rounds=8),
                sampler=UniformSampler(count=4, rng=5),
            )

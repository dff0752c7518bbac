"""The checkpoint layer: atomic IO, container format, state round-trips,
retention and the ``python -m repro.ckpt`` CLI."""

import gc
import io
import json
import tracemalloc
import zipfile

import numpy as np
import pytest

from repro.ckpt import (
    CKPT_SCHEMA,
    Checkpointer,
    CheckpointError,
    build_resume_tracer,
    checkpoint_paths,
    latest_checkpoint,
    read_checkpoint,
    verify_checkpoint,
    write_checkpoint,
)
from repro.ckpt.__main__ import main as ckpt_cli
from repro.core.feedback import GlobalUpdateEstimator
from repro.core.policy import CMFLPolicy, UploadPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.fl.accounting import CommunicationLedger
from repro.fl.config import FLConfig
from repro.fl.history import RunHistory, RoundRecord
from repro.fl.sampling import FullParticipation, UniformSampler
from repro.fl.store import ClientStateStore, CyclicPartition
from repro.obs import MemorySink, Tracer, truncate_trace
from repro.obs.sinks import encode_event
from repro.utils.atomic_io import atomic_write, atomic_write_text
from repro.utils.rng import restore_generator
from tests import reference_kernels as ref


# -- atomic_io --------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_text_and_bytes(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        with atomic_write(target, "wb") as fh:
            fh.write(b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "er" / "a.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_failed_write_leaves_target_intact(self, tmp_path):
        target = tmp_path / "a.txt"
        atomic_write_text(target, "original")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert target.read_text() == "original"
        # The temp file is cleaned up, not left littering the directory.
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_rejects_non_write_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            with atomic_write(tmp_path / "a", mode="r"):
                pass

    def test_no_partial_file_visible_before_commit(self, tmp_path):
        target = tmp_path / "a.txt"
        with atomic_write(target) as fh:
            fh.write("content")
            assert not target.exists()
        assert target.read_text() == "content"


# -- container format -------------------------------------------------------


def _write_sample(path):
    manifest = {"iteration": 3, "note": "sample"}
    arrays = {
        "global_params": np.arange(5, dtype=float),
        "feedback/0": np.ones((2, 2)),
    }
    texts = {"history.jsonl": '{"schema": "x"}\n'}
    write_checkpoint(path, manifest, arrays, texts)
    return manifest, arrays, texts


class TestContainerFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        _, arrays, texts = _write_sample(path)
        ckpt = read_checkpoint(path)
        assert ckpt.manifest["schema"] == CKPT_SCHEMA
        assert ckpt.iteration == 3
        for key, value in arrays.items():
            np.testing.assert_array_equal(ckpt.arrays[key], value)
        assert ckpt.texts == texts

    def test_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        _write_sample(a)
        _write_sample(b)
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_member_names_member_and_digests(self, tmp_path):
        path = tmp_path / "a.ckpt"
        _write_sample(path)
        # Rewrite the zip with one array payload flipped.
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        tampered = np.arange(5, dtype=float) + 1.0
        import io

        buf = io.BytesIO()
        np.save(buf, tampered, allow_pickle=False)
        members["arrays/global_params.npy"] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(CheckpointError) as err:
            read_checkpoint(path)
        message = str(err.value)
        assert "arrays/global_params.npy" in message
        assert "sha256" in message
        # Unverified reads still work (e.g. forensic inspection).
        ckpt = read_checkpoint(path, verify=False)
        np.testing.assert_array_equal(ckpt.arrays["global_params"], tampered)

    def test_truncated_file_is_a_clear_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        _write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            read_checkpoint(path)

    def test_missing_member_is_a_clear_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        _write_sample(path)
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        del members["history.jsonl"]
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(CheckpointError, match="missing member"):
            read_checkpoint(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr(
                "manifest.json", json.dumps({"schema": "repro-ckpt/v999"})
            )
        with pytest.raises(CheckpointError, match="repro-ckpt/v999"):
            read_checkpoint(path)

    def test_v1_container_rejected(self, tmp_path):
        # One reader path: a pre-v2 file (ledger tables in the manifest)
        # is refused by the schema check, not half-understood.
        path = tmp_path / "a.ckpt"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", json.dumps({"schema": "repro-ckpt/v1"}))
        with pytest.raises(CheckpointError, match="repro-ckpt/v1"):
            read_checkpoint(path)

    def test_v2_container_rejected(self, tmp_path):
        # v3 dropped the optimizer slot members: a v2 file, which may
        # carry momentum velocity, is refused rather than read without it.
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"iteration": 1}, {"optimizer/velocity/0": np.ones(2)})
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        manifest = json.loads(members["manifest.json"])
        manifest["schema"] = "repro-ckpt/v2"
        members["manifest.json"] = json.dumps(manifest).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(CheckpointError, match="schema 'repro-ckpt/v2'"):
            read_checkpoint(path)

    def test_not_a_zip_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_text("this is not a checkpoint")
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            read_checkpoint(path)

    def test_discovery_helpers(self, tmp_path):
        assert checkpoint_paths(tmp_path) == []
        assert latest_checkpoint(tmp_path) is None
        for i in (2, 10, 1):
            _write_sample(tmp_path / f"ckpt-{i:08d}.ckpt")
        paths = checkpoint_paths(tmp_path)
        assert [p.name for p in paths] == [
            "ckpt-00000001.ckpt",
            "ckpt-00000002.ckpt",
            "ckpt-00000010.ckpt",
        ]
        assert latest_checkpoint(tmp_path).name == "ckpt-00000010.ckpt"

    def test_verify_checkpoint_returns_manifest(self, tmp_path):
        path = tmp_path / "a.ckpt"
        _write_sample(path)
        assert verify_checkpoint(path)["iteration"] == 3

    @pytest.mark.parametrize(
        "blocks",
        [
            [],
            [np.zeros((2, 3)), np.zeros((2, 3), dtype=np.float32)],
            [np.zeros((2, 3)), np.zeros((2, 4))],
        ],
        ids=["none", "dtype", "row-shape"],
    )
    def test_row_blocks_must_make_one_array(self, tmp_path, blocks):
        with pytest.raises(CheckpointError, match="row blocks"):
            write_checkpoint(tmp_path / "a.ckpt", {}, {"column": blocks})
        assert not (tmp_path / "a.ckpt").exists()


# -- memory: saves, verifies and reads stream their members ----------------


def _live_store(shards=48, rows=1024):
    """A store with ``shards`` materialized shards, 64 live rows each."""
    population = shards * rows
    data = Dataset(np.zeros((rows, 2)), np.zeros(rows, dtype=np.int64))
    store = ClientStateStore(
        population, CyclicPartition(data, population, 1), seed=1,
        shard_size=rows,
    )
    store.writeback(store.checkout(range(0, population, rows // 64)))
    assert store.materialized_shards == shards
    return store


def _store_members(store, join=False):
    return {
        f"store/{name}": np.concatenate(blocks) if join else blocks
        for name, blocks in store.state_arrays().items()
    }


def _traced_peak(fn):
    """Peak bytes tracemalloc sees allocated while ``fn`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingMemory:
    """A save or a verify holds a chunk of a member, not the store; a
    read holds the decoded arrays, not their bytes beside them.  Each
    bound has a twin that a buffering path fails."""

    def test_save_peaks_below_half_the_store(self, tmp_path):
        store = _live_store()
        bound = store.nbytes / 2
        peak = _traced_peak(
            lambda: write_checkpoint(
                tmp_path / "new.ckpt", {"store": store.manifest()},
                _store_members(store),
            )
        )
        assert peak < bound
        # Twin: the buffered reference writer, handed joined columns,
        # holds the store twice over.
        old = _traced_peak(
            lambda: ref.write_checkpoint(
                tmp_path / "old.ckpt", {"store": store.manifest()},
                _store_members(store, join=True),
            )
        )
        assert old >= bound

    def test_verify_peaks_below_half_the_store(self, tmp_path):
        store = _live_store()
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"store": store.manifest()}, _store_members(store))
        bound = store.nbytes / 2
        assert _traced_peak(lambda: verify_checkpoint(path)) < bound
        # Twin: verifying through a full read holds every decoded array.
        assert _traced_peak(lambda: read_checkpoint(path, verify=True)) >= bound

    def test_read_holds_each_array_once(self, tmp_path):
        store = _live_store()
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"store": store.manifest()}, _store_members(store))
        # The arrays themselves, plus a few read chunks (about 0.8 MiB
        # of zip and decode buffers at any store size).
        bound = 1.5 * store.nbytes
        ckpt = read_checkpoint(path)
        assert sum(a.nbytes for a in ckpt.arrays.values()) == store.nbytes
        del ckpt
        assert _traced_peak(lambda: read_checkpoint(path)) < bound

        # Twin: every member's raw bytes kept until all are decoded.
        def buffered():
            with zipfile.ZipFile(path) as zf:
                raw = {name: zf.read(name) for name in zf.namelist()}
            return {
                name: np.load(io.BytesIO(data), allow_pickle=False)
                for name, data in raw.items()
                if name.endswith(".npy")
            }

        assert _traced_peak(buffered) >= bound


# -- state_dict round-trips -------------------------------------------------


class TestFeedbackAndLedgerState:
    def test_estimator_roundtrip(self):
        a = GlobalUpdateEstimator(3, staleness=1)
        a.observe(np.array([1.0, 2.0, 3.0]))
        a.observe(np.array([1.1, 2.1, 3.1]))
        b = GlobalUpdateEstimator(3, staleness=1)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(b.estimate, a.estimate)
        assert b.delta_updates == a.delta_updates

    def test_estimator_shape_checks(self):
        a = GlobalUpdateEstimator(3)
        with pytest.raises(ValueError, match="parameters"):
            a.load_state_dict(
                {"n_params": 4, "staleness": 1, "history": [], "delta_updates": []}
            )
        with pytest.raises(ValueError, match="staleness"):
            a.load_state_dict(
                {"n_params": 3, "staleness": 2, "history": [], "delta_updates": []}
            )

    def test_ledger_roundtrip_restores_int_keys(self):
        a = CommunicationLedger(n_params=10)
        a.record_round([0, 2], [1])
        a.record_round([1], [0, 2])
        b = CommunicationLedger(n_params=10)
        b.load_state_dict(a.state_dict())
        assert b.accumulated_rounds == a.accumulated_rounds
        assert b.skips_per_client == {1: 1, 0: 1, 2: 1}
        assert all(isinstance(k, int) for k in b.uploads_per_client)
        assert b.rounds_per_iteration == [2, 1]

    def test_ledger_n_params_check(self):
        a = CommunicationLedger(n_params=10)
        b = CommunicationLedger(n_params=11)
        with pytest.raises(ValueError, match="parameters"):
            b.load_state_dict(a.state_dict())

    def test_stateless_policy_rejects_state(self):
        policy = CMFLPolicy(InverseSqrtThreshold(0.7))
        assert policy.state_dict() == {}
        with pytest.raises(ValueError, match="stateless"):
            UploadPolicy().load_state_dict({"x": 1})


class TestSamplerState:
    def test_uniform_sampler_rng_continuation(self):
        a = UniformSampler(count=2, rng=123)
        b = UniformSampler(count=2, rng=999)
        a._rng.random(7)  # advance the stream
        b.load_state_dict(a.state_dict())
        assert b._rng.random() == a._rng.random()

    def test_full_participation_is_stateless(self):
        sampler = FullParticipation()
        assert sampler.state_dict() == {}
        with pytest.raises(ValueError, match="stateless"):
            sampler.load_state_dict({"rng": {}})

    def test_restore_generator_rejects_unknown(self):
        with pytest.raises(ValueError, match="bit generator"):
            restore_generator({"bit_generator": "NotAGenerator"})


# -- history continuation ---------------------------------------------------


def _history(policy="cmfl", n=3):
    history = RunHistory(policy_name=policy)
    for t in range(1, n + 1):
        history.append(
            RoundRecord(
                iteration=t, n_clients=4, n_uploaded=2,
                accumulated_rounds=2 * t, total_bytes=100 * t, lr=0.1,
                mean_train_loss=1.0 / t, mean_score=0.5, threshold=0.7,
                uploaded_ids=[0, 1],
            )
        )
    return history


class TestHistoryContinuation:
    def test_to_jsonl_is_the_asdict_encoding(self):
        """to_jsonl skips dataclasses.asdict's deep copy; the text must
        stay byte-identical to that reference encoding."""
        from dataclasses import asdict

        history = _history(n=2)
        history.records[0].test_loss = 0.25
        history.records[0].test_metric = 0.5
        history.append(
            RoundRecord(
                iteration=3, n_clients=3, n_uploaded=0,
                accumulated_rounds=4, total_bytes=312, lr=0.05,
                mean_train_loss=1 / 3, mean_score=float("nan"), threshold=0.7,
                uploaded_ids=[], staleness=2, virtual_time=17.25,
            )
        )
        header = {"schema": "repro-run-history/v2", "policy_name": "cmfl"}
        reference = "".join(
            json.dumps(obj, sort_keys=True) + "\n"
            for obj in [header] + [asdict(r) for r in history.records]
        )
        assert history.to_jsonl() == reference
        assert history.records[1].test_metric is None


# -- trace truncation + tracer continuation ---------------------------------


class TestTraceContinuation:
    def test_truncate_drops_tail_and_partial_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [encode_event({"seq": i, "kind": "point"}) for i in range(6)]
        path.write_text("\n".join(lines[:4]) + "\n" + '{"seq": 4, "ki')
        assert truncate_trace(path, 3) == 3
        kept = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["seq"] for e in kept] == [0, 1, 2]

    def test_tracer_state_roundtrip_continues_stream(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        span = tracer.span("run", policy="cmfl")
        span.__enter__()
        tracer.record_span("round_close", attrs={"iteration": 1})
        state = tracer.export_state()

        fresh_sink = MemorySink()
        fresh = Tracer(sinks=[fresh_sink], emit_header=False)
        fresh.restore_state(state)
        assert fresh.current_span().name == "run"
        fresh.record_span("round_close", attrs={"iteration": 2})
        event = fresh_sink.events[-1]
        assert event["seq"] == state["seq"]
        # Ids and parents continue the original stream.
        assert event["id"] == state["next_id"]
        assert event["parent"] == span.span_id

    def test_restore_state_requires_fresh_tracer(self):
        used = Tracer(sinks=[MemorySink()])  # header consumed seq 0
        with pytest.raises(RuntimeError, match="fresh tracer"):
            used.restore_state({"seq": 5, "next_id": 2, "open_spans": []})

    @pytest.mark.parametrize(
        "edit, key",
        [
            # A snapshot from before the trace had one channel.
            (lambda state: state.update(metrics={}), "metrics"),
            (lambda state: state.pop("open_spans"), "open_spans"),
        ],
        ids=["unknown", "missing"],
    )
    def test_restore_state_refuses_keys_it_does_not_read(self, edit, key):
        state = {"seq": 5, "next_id": 2, "open_spans": []}
        edit(state)
        with pytest.raises(ValueError, match=repr(key)):
            Tracer(emit_header=False).restore_state(state)

    def test_resume_refuses_a_snapshot_before_touching_the_trace(
        self, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        lines = [encode_event({"seq": i, "kind": "point"}) for i in range(6)]
        path.write_text("\n".join(lines) + "\n")
        before = path.read_text()
        old = {"seq": 3, "next_id": 1, "open_spans": [], "metrics": {}}
        with pytest.raises(ValueError, match="'metrics'"):
            build_resume_tracer(old, FLConfig(trace_path=str(path)))
        assert path.read_text() == before


# -- Checkpointer scheduling ------------------------------------------------


class _FakeTrainer:
    """The minimum surface save_checkpoint touches, without a federation."""

    def __init__(self):
        from repro.obs import NULL_TRACER

        self.tracer = NULL_TRACER
        self.history = _history(n=2)


def _checkpointer_with_stub(tmp_path, **kw):
    ckpt = Checkpointer(tmp_path, **kw)

    def fake_save(trainer, path):
        path.write_bytes(b"stub")
        return path

    import repro.ckpt.checkpointer as mod

    return ckpt, mod, fake_save


class TestCheckpointer:
    def test_schedule_and_naming(self, tmp_path):
        ckpt = Checkpointer(tmp_path, every_n_rounds=3)
        assert [ckpt.due(t) for t in (1, 2, 3, 4, 6)] == [
            False, False, True, False, True,
        ]
        assert ckpt.path_for(7).name == "ckpt-00000007.ckpt"

    def test_an_event_closing_several_rounds_saves_when_one_is_due(
        self, tmp_path, monkeypatch
    ):
        """One async event can close rounds 3-5 of an every-4 schedule:
        round 4 is owed, so the event saves, named for round 5."""
        ckpt, mod, fake_save = _checkpointer_with_stub(tmp_path, every_n_rounds=4)
        monkeypatch.setattr(mod, "save_checkpoint", fake_save)
        trainer = _FakeTrainer()
        saved = []
        for previous, closed in ((0, 2), (2, 3), (3, 5), (5, 7), (7, 8)):
            trainer.history = _history(n=closed)
            saved.append(ckpt.maybe_save(trainer, closed, previous) is not None)
        assert saved == [False, False, True, False, True]
        assert [p.name for p in ckpt.checkpoints()] == [
            "ckpt-00000005.ckpt", "ckpt-00000008.ckpt",
        ]

    def test_retention_prunes_oldest(self, tmp_path, monkeypatch):
        ckpt, mod, fake_save = _checkpointer_with_stub(tmp_path, keep=2)
        monkeypatch.setattr(mod, "save_checkpoint", fake_save)
        trainer = _FakeTrainer()
        for n in range(1, 5):
            trainer.history = _history(n=n)
            ckpt.save(trainer)
        assert [p.name for p in ckpt.checkpoints()] == [
            "ckpt-00000003.ckpt",
            "ckpt-00000004.ckpt",
        ]

    def test_keep_zero_retains_all(self, tmp_path, monkeypatch):
        ckpt, mod, fake_save = _checkpointer_with_stub(tmp_path, keep=0)
        monkeypatch.setattr(mod, "save_checkpoint", fake_save)
        trainer = _FakeTrainer()
        for n in range(1, 5):
            trainer.history = _history(n=n)
            ckpt.save(trainer)
        assert len(ckpt.checkpoints()) == 4

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every_n_rounds=0)
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, keep=-1)


# -- CLI --------------------------------------------------------------------


class TestCkptCli:
    def test_inspect_and_verify(self, tmp_path, capsys):
        path = tmp_path / "a.ckpt"
        manifest = {
            "iteration": 2,
            "policy": {"name": "cmfl", "state": {}},
            "n_params": 5,
            "executor": {"backend": "serial"},
            "trace": None,
        }
        write_checkpoint(
            path, manifest, {"global_params": np.zeros(5)}, {"history.jsonl": "{}"}
        )
        assert ckpt_cli(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "iteration       2" in out
        assert "arrays/global_params.npy" in out
        assert ckpt_cli(["verify", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        path = tmp_path / "a.ckpt"
        _write_sample(path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert ckpt_cli(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff(self, tmp_path, capsys):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        _write_sample(a)
        manifest = {"iteration": 3, "note": "sample"}
        arrays = {
            "global_params": np.arange(5, dtype=float) + 0.5,
            "feedback/0": np.ones((2, 2)),
        }
        write_checkpoint(b, manifest, arrays, {"history.jsonl": '{"schema": "x"}\n'})
        assert ckpt_cli(["diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out
        assert ckpt_cli(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "global_params" in out

"""The repro.obs observability layer: span nesting, sinks, the totals
folded from a trace, and what the deterministic view masks.  That a
trace digests the same on every backend and sample rate is the
lattice's edge (a) in ``tests/test_lattice.py``."""

import json
from dataclasses import replace

import pytest

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.executor import ClientExecutionError
from repro.fl.history import HISTORY_SCHEMA, RoundRecord, RunHistory
from repro.obs import (
    JsonlSink,
    MemorySink,
    NULL_TRACER,
    NullTracer,
    TRACE_SCHEMA,
    Tracer,
    deterministic_view,
    load_trace,
    metrics_from_trace,
    phase_summary,
    trace_digest,
    validate_trace,
)
from tests.strategies import FIXED, assert_lattice, federation
from tests.test_executor import _ExplodingClient, _ExplodingOrderClient

#: A client class whose local computation fails, per backend: the
#: batched cohort kernel never calls ``compute_update``, so there the
#: failure has to come from the epoch permutation.
_EXPLODING = {"serial": _ExplodingClient, "batched": _ExplodingOrderClient}


def _memory_tracer():
    sink = MemorySink()
    return Tracer(sinks=[sink]), sink


class TestSpans:
    def test_header_is_first_and_schema_tagged(self):
        tracer, sink = _memory_tracer()
        tracer.close()
        head = sink.events[0]
        assert head["kind"] == "header"
        assert head["attrs"]["schema"] == TRACE_SCHEMA

    def test_nesting_children_emit_before_parents(self):
        tracer, sink = _memory_tracer()
        with tracer.span("outer", label="a"):
            with tracer.span("inner"):
                pass
        tracer.close()
        spans = [e for e in sink.events if e["kind"] == "span"]
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"label": "a"}

    def test_seq_strictly_increasing_and_durations_nonnegative(self):
        tracer, sink = _memory_tracer()
        with tracer.span("a"):
            tracer.event("tick")
        with tracer.span("b"):
            pass
        tracer.close()
        seqs = [e["seq"] for e in sink.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert all(
            e["rt"]["dur"] >= 0 for e in sink.events if e["kind"] == "span"
        )
        assert validate_trace(sink.events) == []

    def test_record_span_parents_to_open_span(self):
        tracer, sink = _memory_tracer()
        with tracer.span("round"):
            tracer.record_span(
                "client_compute", attrs={"client_id": 3}, rt={"dur": 0.25}
            )
        tracer.close()
        recorded = next(
            e for e in sink.events if e["name"] == "client_compute"
        )
        owner = next(e for e in sink.events if e["name"] == "round")
        assert recorded["parent"] == owner["id"]
        assert recorded["rt"]["dur"] == 0.25

    def test_exception_inside_span_sets_error_attr(self):
        tracer, sink = _memory_tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert sink.events[-1]["attrs"]["error"] == "ValueError"

    def test_close_is_idempotent_and_emits_nothing(self):
        tracer, sink = _memory_tracer()
        with tracer.span("round", iteration=1):
            pass
        emitted = list(sink.events)
        tracer.close()
        tracer.close()
        # No close-time summary: every total is a fold over the events.
        assert sink.events == emitted


class TestSinks:
    def test_jsonl_roundtrip_preserves_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path), MemorySink()])
        with tracer.span("round", iteration=1):
            tracer.event("tick", attrs={"n": 2})
        tracer.event("runtime.ckpt", rt={"save_s": 0.5, "bytes": 10})
        tracer.close()
        assert load_trace(path) == tracer.memory_events()

    def test_jsonl_sink_is_lazy(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_load_trace_names_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0}\nnot json\n')
        with pytest.raises(ValueError, match="2"):
            load_trace(path)


class TestNullTracer:
    def test_null_tracer_is_shared_and_inert(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", key=1) as span:
            span.set_attr("a", 1)
            span.set_rt("b", 2)
        NULL_TRACER.record_span("x")
        NULL_TRACER.event("y")
        assert NULL_TRACER.memory_events() is None

    def test_trainer_defaults_to_null_tracer(self):
        trainer, _ = federation(CMFLPolicy(InverseSqrtThreshold(0.8)))
        assert trainer.tracer is NULL_TRACER

    def test_config_knobs(self):
        assert not FLConfig().trace_enabled
        assert FLConfig(trace=True).trace_enabled
        assert FLConfig(trace_path="/tmp/t.jsonl").trace_enabled
        with pytest.raises(ValueError, match="trace_path"):
            FLConfig(trace_path="")


def _traced_events(backend, **cfg_kw):
    trainer, _ = federation(
        CMFLPolicy(InverseSqrtThreshold(0.8)), backend=backend,
        rounds=3, trace=True, **cfg_kw,
    )
    with trainer:
        trainer.run()
    trainer.tracer.close()
    return trainer, list(trainer.tracer.memory_events())


class TestDeterminismContract:
    def test_backends_produce_identical_deterministic_views(self):
        assert_lattice(replace(FIXED, rounds=3, trace_sample=1.0), "a")

    def test_deterministic_view_masks_rt_and_runtime_metrics(self):
        trainer, _ = federation(
            CMFLPolicy(InverseSqrtThreshold(0.8)), backend="batched",
            rounds=3, trace=True,
        )
        with trainer:
            trainer.run()
            # What a checkpoint save emits.
            trainer.tracer.event(
                "runtime.ckpt", rt={"save_s": 0.01, "bytes": 1024}
            )
        events = list(trainer.tracer.memory_events())
        view = deterministic_view(events)
        assert all("rt" not in e and "seq" not in e for e in view)
        assert all(
            not e["name"].startswith("runtime.") for e in view
        )
        # The raw trace does carry the runtime event.
        assert any(
            e["name"].startswith("runtime.") for e in events
        )

    def test_trace_reproduces_history_and_ledger(self):
        trainer, events = _traced_events("serial")
        totals = metrics_from_trace(events)
        assert (
            totals["comm.uploads"]["value"]
            == trainer.ledger.accumulated_rounds
        )
        assert (
            totals["comm.uploaded_bytes"]["value"]
            + totals["comm.status_bytes"]["value"]
            == trainer.ledger.total_bytes
        )
        checks = [
            e for e in events if e["kind"] == "span"
            and e["name"] == "relevance_check"
        ]
        uploaded = {}
        for check in checks:
            uploads = uploaded.setdefault(check["attrs"]["iteration"], [])
            if check["attrs"]["upload"]:
                uploads.append(check["attrs"]["client_id"])
        for record in trainer.history:
            forced = set(record.uploaded_ids) - set(uploaded[record.iteration])
            # force_best rescues appear as explicit force_best events.
            for client_id in forced:
                assert any(
                    e["name"] == "force_best"
                    and e["attrs"]["client_id"] == client_id
                    and e["attrs"]["iteration"] == record.iteration
                    for e in events
                )
            assert len(record.uploaded_ids) == record.n_uploaded

    def test_phase_summary_counts_every_round(self):
        trainer, events = _traced_events("serial")
        phases = phase_summary(events)
        n_rounds = len(trainer.history)
        n_clients = len(trainer.clients)
        assert phases["round"]["count"] == n_rounds
        assert phases["client_compute"]["count"] == n_rounds * n_clients
        assert phases["relevance_check"]["count"] == n_rounds * n_clients
        assert phases["run"]["count"] == 1


def _scale_run(**kwargs):
    """Two rounds of ``make_scale_trainer(500, 20, **kwargs)``."""
    from repro.experiments.scale import make_scale_trainer

    trainer = make_scale_trainer(500, 20, **kwargs)
    with trainer:
        trainer.run(2)
    return trainer


def _scale_fingerprint(trainer):
    from repro.fl.history import history_digest

    return history_digest(trainer), trainer.server.global_params.tobytes()


class TestSampledTracing:
    """Head sampling must thin spans without touching determinism."""

    def test_sampled_digests_identical_across_backends(self):
        assert_lattice(replace(FIXED, rounds=3, trace_sample=0.5), "a")

    def test_store_backed_sampled_digests_match(self):
        """Lattice edge (a) on ``make_scale_trainer``'s seeded 500-client
        store, the one the scale sweep and ``population_soak`` run."""
        runs = [
            _scale_run(backend=backend, trace=True, trace_sample=0.5)
            for backend in EXECUTOR_BACKENDS
        ]
        for trainer in runs:
            trainer.tracer.close()
            assert validate_trace(trainer.tracer.memory_events()) == []
        assert len({_scale_fingerprint(t) for t in runs}) == 1
        assert len({
            trace_digest(t.tracer.memory_events()) for t in runs
        }) == 1

    def test_tracing_never_changes_the_run(self):
        """Lattice edge (c) on the same store: off, one span in a
        hundred, and every span."""
        runs = [
            _scale_run(trace=trace, trace_sample=sample)
            for trace, sample in ((False, 1.0), (True, 0.01), (True, 1.0))
        ]
        assert len({_scale_fingerprint(t) for t in runs}) == 1

    def test_sampling_drops_spans_but_keeps_exact_rollups(self):
        trainer, full = _traced_events("serial")
        sampled_trainer, sampled = _traced_events("serial", trace_sample=0.25)
        n_rounds = len(trainer.history)
        n_clients = len(trainer.clients)

        def compute_spans(events):
            return [
                e for e in events
                if e["kind"] == "span" and e["name"] == "client_compute"
            ]

        assert len(compute_spans(full)) == n_rounds * n_clients
        assert len(compute_spans(sampled)) < n_rounds * n_clients
        rollups = [e for e in sampled if e["name"] == "round_rollup"]
        assert len(rollups) == n_rounds
        # The rollup is exact over ALL participants, sampled or not.
        for event in rollups:
            assert event["attrs"]["n_participants"] == n_clients
            assert event["attrs"]["score"]["count"] == n_clients
            assert event["rt"]["compute_s"]["count"] == n_clients
        # Rollups are identical whether spans were sampled or not.
        full_rollups = [e for e in full if e["name"] == "round_rollup"]
        assert [e["attrs"] for e in rollups] == [
            e["attrs"] for e in full_rollups
        ]

    def test_sample_rate_validated(self):
        with pytest.raises(ValueError, match="trace_sample"):
            FLConfig(trace_sample=1.5)
        with pytest.raises(ValueError, match="trace_sample"):
            FLConfig(trace_sample=-0.1)


class TestClientExecutionError:
    @staticmethod
    def _failed_run(backend):
        trainer, _ = federation(
            CMFLPolicy(InverseSqrtThreshold(0.8)), backend=backend,
            client_cls=_EXPLODING[backend], trace=True,
        )
        with trainer:
            with pytest.raises(ClientExecutionError) as exc:
                trainer.run(1)
        return trainer, exc.value

    def test_structured_context_attributes(self):
        for backend in EXECUTOR_BACKENDS:
            _, error = self._failed_run(backend)
            assert error.client_id == 0
            assert error.iteration == 1
            assert error.backend == backend
            assert error.cause_type == "RuntimeError"
            assert error.elapsed_s is not None and error.elapsed_s >= 0
            assert error.context()["client_id"] == 0

    def test_failure_emits_client_error_trace_event(self):
        for backend in EXECUTOR_BACKENDS:
            trainer, _ = self._failed_run(backend)
            events = trainer.tracer.memory_events()
            failures = [e for e in events if e["name"] == "client_error"]
            assert len(failures) == 1
            assert failures[0]["attrs"] == {
                "client_id": 0, "iteration": 1, "error": "RuntimeError",
            }
            assert failures[0]["rt"]["backend"] == backend


class TestRunHistoryJsonl:
    def _history(self):
        history = RunHistory(policy_name="cmfl")
        history.append(RoundRecord(
            iteration=1, n_clients=4, n_uploaded=3, accumulated_rounds=3,
            total_bytes=1200, lr=0.5, mean_train_loss=0.7, mean_score=0.9,
            threshold=0.8, uploaded_ids=[0, 1, 3],
        ))
        history.append(RoundRecord(
            iteration=2, n_clients=4, n_uploaded=2, accumulated_rounds=5,
            total_bytes=2100, lr=0.45, mean_train_loss=0.6, mean_score=0.85,
            threshold=0.75, test_loss=0.55, test_metric=0.8,
            uploaded_ids=[1, 2],
        ))
        return history

    def test_text_roundtrip_is_exact(self):
        history = self._history()
        text = history.to_jsonl()
        rebuilt = RunHistory.from_jsonl(text)
        assert rebuilt.policy_name == history.policy_name
        assert [vars(r) for r in rebuilt] == [vars(r) for r in history]

    def test_file_roundtrip_and_schema_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        history = self._history()
        history.to_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == HISTORY_SCHEMA
        rebuilt = RunHistory.from_jsonl(path)
        assert [vars(r) for r in rebuilt] == [vars(r) for r in history]

    def test_from_jsonl_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            RunHistory.from_jsonl('{"schema": "bogus/v1", "policy_name": "x"}')

    def test_trained_history_roundtrips(self, tmp_path):
        trainer, _ = federation(CMFLPolicy(InverseSqrtThreshold(0.8)))
        with trainer:
            trainer.run(2)
        path = tmp_path / "run.jsonl"
        trainer.history.to_jsonl(path)
        rebuilt = RunHistory.from_jsonl(path)
        assert [vars(r) for r in rebuilt] == [vars(r) for r in trainer.history]

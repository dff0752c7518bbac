"""The totals folded from a trace, their OpenMetrics export,
and the CLI's behavior on damaged traces."""

import json
from dataclasses import replace

import pytest

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.obs import (
    MemorySink,
    TRACE_SCHEMA,
    Tracer,
    diff_traces,
    load_trace,
    metrics_from_trace,
    openmetrics_name,
    summarize,
    to_openmetrics,
)
from repro.obs.__main__ import build_parser, main as obs_main
from repro.fl.events import AsyncConfig
from tests.strategies import SMOKE, federation


_SAVE_S = (0.01, 0.02, 0.03, 0.04)


def _traced_metrics():
    """Two round rollups, an async close and four checkpoint saves."""
    sink = MemorySink()
    tracer = Tracer(sinks=[sink])
    for t, uploads, skips in ((1, 4, 1), (2, 3, 2)):
        tracer.event(
            "round_rollup",
            attrs={
                "iteration": t,
                "n_participants": uploads + skips,
                "n_uploaded": uploads,
                "uploaded_bytes": 100 * uploads,
                "status_bytes": 8 * skips,
            },
        )
    tracer.record_span(
        "round_close",
        attrs={"iteration": 1, "staleness": 1, "n_arrived": 5,
               "virtual_time": 2.5},
    )
    for save_s in _SAVE_S:
        tracer.record_span("ckpt", attrs={"iteration": 2})
        tracer.event("runtime.ckpt", rt={"save_s": save_s, "bytes": 64})
    tracer.close()
    return sink.events


def _parse_openmetrics(text):
    """A minimal OpenMetrics exposition parser: types + samples."""
    assert text.endswith("# EOF\n")
    types, samples = {}, {}
    for line in text.splitlines():
        if line == "# EOF":
            break
        if line.startswith("# TYPE "):
            _, _, name, metric_type = line.split(" ")
            types[name] = metric_type
            continue
        name_and_labels, value = line.rsplit(" ", 1)
        samples[name_and_labels] = float(value)
    return types, samples


class TestOpenMetrics:
    def test_name_sanitization(self):
        assert openmetrics_name("comm.uploaded_bytes") == "comm_uploaded_bytes"
        assert openmetrics_name("runtime.ckpt.save_s") == "runtime_ckpt_save_s"
        assert openmetrics_name("9lives") == "_9lives"

    def test_exposition_covers_all_metric_types(self):
        metrics = metrics_from_trace(_traced_metrics())
        types, samples = _parse_openmetrics(to_openmetrics(metrics))
        assert types["comm_uploads"] == "counter"
        assert samples["comm_uploads_total"] == 7
        assert types["async_virtual_time"] == "gauge"
        assert samples["async_virtual_time"] == 2.5
        # Exact summaries export as the OpenMetrics summary type.
        assert types["runtime_ckpt_save_s"] == "summary"
        assert samples["runtime_ckpt_save_s_count"] == 4
        assert samples["runtime_ckpt_save_s_sum"] == pytest.approx(
            0.1
        )
        assert samples['runtime_ckpt_save_s{quantile="0.5"}'] == (
            pytest.approx(0.025)
        )

    def test_families_are_name_sorted(self):
        metrics = metrics_from_trace(_traced_metrics())
        text = to_openmetrics(metrics)
        family_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert family_lines == sorted(family_lines)


class TestMetricsFromTrace:
    def test_folds_rollups_spans_and_runtime_events(self):
        metrics = metrics_from_trace(_traced_metrics())
        assert {name: m["value"] for name, m in metrics.items()
                if m["type"] == "counter"} == {
            "async.arrivals": 5,
            "async.closes": 1,
            "ckpt.saves": 4,
            "comm.skips": 3,
            "comm.status_bytes": 24,
            "comm.uploaded_bytes": 700,
            "comm.uploads": 7,
        }
        assert metrics["runtime.ckpt.bytes"] == {"type": "gauge", "value": 64}
        assert metrics["async.staleness"]["count"] == 1

    def test_histograms_are_summarised_exactly(self):
        metrics = metrics_from_trace(_traced_metrics())
        assert metrics["runtime.ckpt.save_s"] == {
            "type": "histogram", **summarize(_SAVE_S)
        }
        assert metrics["runtime.ckpt.save_s"]["p50"] == pytest.approx(0.025)

    def test_refuses_a_trace_of_another_schema(self, tmp_path, capsys):
        events = _traced_metrics()
        events[0]["attrs"]["schema"] = "repro-trace/v1"
        with pytest.raises(ValueError, match="repro-trace/v1"):
            metrics_from_trace(events)
        path = tmp_path / "v1.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert obs_main(["export", str(path)]) == 2
        assert TRACE_SCHEMA in capsys.readouterr().err

    def test_a_cut_trace_exports_the_same_names(self):
        events = _traced_metrics()
        first_save = next(
            i for i, e in enumerate(events) if e["name"] == "runtime.ckpt"
        )
        cut = metrics_from_trace(events[: first_save + 1])
        assert list(cut) == list(metrics_from_trace(events))
        assert cut["ckpt.saves"]["value"] == 1
        assert cut["runtime.ckpt.save_s"]["count"] == 1


def _write_trace(tmp_path, name="trace.jsonl", rounds=2):
    trainer, _ = federation(
        CMFLPolicy(InverseSqrtThreshold(0.8)),
        rounds=rounds,
        trace_path=str(tmp_path / name),
    )
    with trainer:
        trainer.run()
    trainer.tracer.close()
    return tmp_path / name


class TestExportCli:
    def test_export_openmetrics_to_stdout(self, tmp_path, capsys):
        trace = _write_trace(tmp_path)
        assert obs_main(["export", str(trace)]) == 0
        out = capsys.readouterr().out
        types, samples = _parse_openmetrics(out)
        assert types["comm_uploads"] == "counter"
        assert "comm_uploaded_bytes_total" in samples

    def test_export_openmetrics_to_file(self, tmp_path, capsys):
        trace = _write_trace(tmp_path)
        out = tmp_path / "metrics.txt"
        assert obs_main(["export", str(trace), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert obs_main(["export", str(trace)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_validate_names_the_trace_schema(self, tmp_path, capsys):
        trace = _write_trace(tmp_path)
        assert obs_main(["validate", str(trace)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(
            f"valid {TRACE_SCHEMA}"
        )
        assert TRACE_SCHEMA in build_parser().description

    def test_export_missing_file_exits_2(self, tmp_path, capsys):
        assert obs_main(["export", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestAsyncExport:
    """A traced async run's ``async.*`` totals, end to end: trace file
    to ``python -m repro.obs export``, whole and cut."""

    ROUNDS = 6

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        spec = replace(SMOKE, async_config=AsyncConfig(staleness_bound=2))
        path = tmp_path_factory.mktemp("async") / "trace.jsonl"
        with spec.start(spec.parts("serial", trace_path=str(path))) as run:
            run.run(self.ROUNDS)
        return path

    def test_async_metrics_export(self, trace, capsys):
        assert obs_main(["export", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE async_dispatches counter" in text
        assert f"async_closes_total {self.ROUNDS}" in text
        assert "async_staleness" in text
        types, _ = _parse_openmetrics(text)
        assert {"async_dispatches", "async_closes", "async_staleness"} <= set(types)

    def test_export_of_a_cut_trace_keeps_the_staleness_summary(
        self, trace, tmp_path, capsys
    ):
        """A run killed after round k exports the names of the complete
        run, with their values as of round k — summaries included."""
        lines = trace.read_text().splitlines(keepends=True)
        closes = [
            i for i, line in enumerate(lines)
            if json.loads(line)["name"] == "round_close"
        ]
        k = 2
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[: closes[k - 1] + 1]))

        def exported(path):
            assert obs_main(["export", str(path)]) == 0
            _, samples = _parse_openmetrics(capsys.readouterr().out)
            return samples

        whole, partial = exported(trace), exported(cut)
        assert {n.split("{")[0] for n in partial} == {
            n.split("{")[0] for n in whole
        }
        assert partial["async_staleness_count"] == k
        assert partial["async_closes_total"] == k
        assert whole["async_staleness_count"] == self.ROUNDS


class TestDamagedTraces:
    """`diff` (and friends) on truncated / corrupted JSONL files."""

    def test_diff_identical_traces_is_clean(self, tmp_path, capsys):
        a = _write_trace(tmp_path, "a.jsonl")
        b = _write_trace(tmp_path, "b.jsonl")
        assert obs_main(["diff", str(a), str(b)]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_diff_truncated_trace_reports_divergence(self, tmp_path, capsys):
        a = _write_trace(tmp_path, "a.jsonl")
        b = tmp_path / "truncated.jsonl"
        lines = a.read_text().splitlines(keepends=True)
        # Whole-line truncation: a run killed between writes.  Every
        # line parses, so the diff itself must flag the missing tail.
        b.write_text("".join(lines[:-5]))
        assert obs_main(["diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out  # names the diverging events
        differences = diff_traces(load_trace(a), load_trace(b))
        assert differences

    def test_diff_mid_line_corruption_exits_2(self, tmp_path, capsys):
        a = _write_trace(tmp_path, "a.jsonl")
        b = tmp_path / "corrupt.jsonl"
        lines = a.read_text().splitlines(keepends=True)
        middle = len(lines) // 2
        # Chop a line in half: a crash mid-write (no trailing newline
        # flush).  The loader must name the bad line, not guess.
        lines[middle] = lines[middle][: len(lines[middle]) // 2]
        b.write_text("".join(lines))
        assert obs_main(["diff", str(a), str(b)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_truncated_trace_flags_missing_close(
        self, tmp_path, capsys
    ):
        a = _write_trace(tmp_path, "a.jsonl")
        b = tmp_path / "truncated.jsonl"
        lines = a.read_text().splitlines(keepends=True)
        b.write_text("".join(lines[:-5]))
        # Truncation is detectable but not a parse error.
        assert obs_main(["digest", str(b)]) == 0

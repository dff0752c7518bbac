"""The straggler/staleness sweep experiment and its diurnal sampler,
end to end through `python -m repro.obs export`."""

import json

import numpy as np
import pytest

from repro.fl.sampling import AvailabilitySampler, diurnal_trace
from repro.obs.__main__ import main as obs_main
from tests.test_obs_export import _parse_openmetrics


def test_diurnal_trace_shape():
    trace = diurnal_trace(period=24, low=0.2, high=0.9)
    assert len(trace) == 24
    assert min(trace) == pytest.approx(0.2)
    assert max(trace) == pytest.approx(0.9)
    # One full cycle: down from the trough back up to the peak and
    # around again — strictly within (0, 1], usable as-is by the sampler.
    assert all(0.0 < f <= 1.0 for f in trace)
    assert trace == diurnal_trace(period=24, low=0.2, high=0.9)


def test_diurnal_trace_validation():
    with pytest.raises(ValueError):
        diurnal_trace(period=0)
    with pytest.raises(ValueError):
        diurnal_trace(low=0.0)
    with pytest.raises(ValueError):
        diurnal_trace(low=0.8, high=0.4)


def test_diurnal_trace_drives_availability_windows():
    sampler = AvailabilitySampler(
        count=4, trace=diurnal_trace(period=6, low=0.25, high=1.0),
        rng=np.random.default_rng(0),
    )
    windows = [sampler.available(t, 100) for t in range(1, 7)]
    assert min(windows) == 25
    assert max(windows) == 100
    for t in range(1, 7):
        cohort = sampler.select_indices(t, 100)
        assert len(cohort) == 4


class TestStragglerSweep:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        from repro.experiments.straggler import run

        trace = tmp_path_factory.mktemp("straggler") / "s2.jsonl"
        res = run(bounds=(0, 2), rounds=4, trace_path=str(trace))
        return res, trace

    def test_sweep_shape(self, result):
        res, _ = result
        bounds = [p.staleness_bound for p in res.points]
        assert bounds == [0, 2]
        for point in res.points:
            assert point.rounds == 4
            assert point.staleness_max <= point.staleness_bound
            assert point.virtual_finish_s > 0.0
        # The synchronous barrier serializes the timeline: relaxing it
        # must never make the virtual finish later.
        assert (
            res.points[1].virtual_finish_s <= res.points[0].virtual_finish_s
        )

    def test_report_and_json(self, result):
        res, _ = result
        report = res.report()
        assert "Straggler sweep" in report
        assert "faster than the synchronous barrier" in report
        payload = json.loads(json.dumps(res.to_dict()))
        assert [p["staleness_bound"] for p in payload["points"]] == [0, 2]

    def test_async_metrics_export(self, result, tmp_path, capsys):
        """The traced S=2 run's async.* instruments survive the full
        pipeline: trace file -> `python -m repro.obs export`."""
        _, trace = result
        assert obs_main(["export", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE async_dispatches counter" in text
        assert "async_closes_total 4" in text
        assert "async_staleness" in text
        out = tmp_path / "snap.jsonl"
        assert obs_main(
            ["export", str(trace), "--format", "jsonl", "--out", str(out)]
        ) == 0
        names = {
            json.loads(line)["name"]
            for line in out.read_text().splitlines()
            if json.loads(line).get("name")
        }
        assert {"async.dispatches", "async.closes", "async.staleness"} <= names

    def test_export_of_a_cut_trace_keeps_the_staleness_summary(
        self, result, tmp_path, capsys
    ):
        """A run killed after round k exports the names of the complete
        run, with their values as of round k — summaries included."""
        _, trace = result
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
        assert whole["async_staleness_count"] == 4


"""Per-round rollups: the exact summary, the span sampler, and
RoundRollup."""

import numpy as np
import pytest

from repro.obs import RoundRollup, SpanSampler, summarize


class TestStreamingHistogram:
    """The exact :func:`summarize` that replaced the streaming histogram:
    the same summary, computed from the whole list when it is read."""

    def test_moments_are_exact(self):
        summary = summarize([2.0, -1.0, 4.0, 3.0])
        assert summary["count"] == 4
        assert summary["total"] == 8.0
        assert summary["min"] == -1.0 and summary["max"] == 4.0
        assert summary["mean"] == 2.0

    def test_summary_shape_and_empty(self):
        empty = summarize([])
        assert empty == {
            "count": 0, "total": 0.0, "min": None, "max": None,
            "mean": None, "p50": None, "p90": None, "p99": None,
        }
        summary = summarize([float(v) for v in range(100)])
        assert list(summary) == list(empty)
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_exact_while_buffered(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=2_000)
        summary = summarize(values)
        # Linear interpolation between order statistics, as numpy's
        # default quantile method; the total is a left-to-right sum.
        for p in (0.5, 0.9, 0.99):
            assert summary[f"p{round(p * 100)}"] == pytest.approx(
                np.quantile(values, p), abs=1e-12
            )
        total = 0.0
        for value in values:
            total += float(value)
        assert summary["total"] == total
        assert summary["mean"] == total / len(values)


class TestSpanSampler:
    def test_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            SpanSampler(0, 1.5)
        with pytest.raises(ValueError, match="rate"):
            SpanSampler(0, -0.1)

    def test_extreme_rates(self):
        keep_all = SpanSampler(3, 1.0)
        keep_none = SpanSampler(3, 0.0)
        assert all(keep_all.sampled(t, c) for t in range(5) for c in range(5))
        assert not any(
            keep_none.sampled(t, c) for t in range(5) for c in range(5)
        )

    def test_decision_is_a_pure_function(self):
        a = SpanSampler(42, 0.3)
        b = SpanSampler(42, 0.3)
        decisions = [
            a.sampled(t, c) for t in range(10) for c in range(100)
        ]
        assert decisions == [
            b.sampled(t, c) for t in range(10) for c in range(100)
        ]
        # A different seed samples a different subset.
        c = SpanSampler(43, 0.3)
        assert decisions != [
            c.sampled(t, k) for t in range(10) for k in range(100)
        ]

    def test_rate_is_respected_in_aggregate(self):
        sampler = SpanSampler(0, 0.01)
        kept = sum(
            sampler.sampled(1, client) for client in range(100_000)
        )
        assert 700 < kept < 1300


class TestRoundRollup:
    def _fed_rollup(self):
        rollup = RoundRollup(iteration=4)
        # Two cohorts' worth, to cover accumulation across feeds.
        for ids in (range(0, 6), range(6, 10)):
            rollup.observe_decisions(
                scores=[0.1 * i for i in ids],
                train_losses=[1.0 - 0.05 * i for i in ids],
                n_uploaded=sum(i % 2 == 0 for i in ids),
            )
            rollup.observe_tasks_rt(ids, durs=[0.01 * (i + 1) for i in ids])
        rollup.uploaded_bytes = 5_000
        rollup.status_bytes = 50
        return rollup

    def test_attrs_payload(self):
        attrs = self._fed_rollup().attrs()
        assert attrs["iteration"] == 4
        assert attrs["n_participants"] == 10
        assert attrs["n_uploaded"] == 5
        assert attrs["n_forced"] == 0
        assert attrs["uploaded_bytes"] == 5_000
        assert attrs["score"]["count"] == 10
        assert attrs["train_loss"]["min"] == pytest.approx(0.55)
        assert "layer_sign_agreement" not in attrs

    def test_rt_payload_tracks_slowest(self):
        rt = self._fed_rollup().rt()
        assert rt["compute_s"]["count"] == 10
        assert rt["compute_s"]["max"] == pytest.approx(0.10)
        # Top-K slowest, slowest first, as [client_index, dur] pairs.
        assert [pair[0] for pair in rt["slowest"]] == [9, 8, 7]
        assert len(rt["slowest"]) == RoundRollup.SLOWEST_K

    def test_layer_sign_agreement_and_extra_ride_in_attrs(self):
        rollup = RoundRollup(iteration=1)
        rollup.layer_sign_agreement = [0.9, 0.7]
        rollup.extra["store"] = {"population": 1000}
        attrs = rollup.attrs()
        assert attrs["layer_sign_agreement"] == [0.9, 0.7]
        assert attrs["store"] == {"population": 1000}

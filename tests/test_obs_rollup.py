"""Streaming rollups: P² quantiles, the span sampler, and RoundRollup."""

import json

import numpy as np
import pytest

from repro.obs import P2Quantile, RoundRollup, SpanSampler, StreamingHistogram


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="quantile"):
                P2Quantile(p)

    def test_empty_returns_none(self):
        assert P2Quantile(0.5).value() is None

    def test_exact_for_small_samples(self):
        est = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            est.observe(v)
        assert est.value() == 3.0
        est.observe(2.0)
        est.observe(4.0)
        # Five observations: still the exact sample median.
        assert est.value() == 3.0

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_tracks_uniform_quantiles_closely(self, p):
        rng = np.random.default_rng(7)
        est = P2Quantile(p)
        values = rng.uniform(size=10_000)
        for v in values:
            est.observe(v)
        assert est.count == len(values)
        assert abs(est.value() - np.quantile(values, p)) < 0.02

    def test_state_roundtrip_is_exact(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=500)
        whole = P2Quantile(0.9)
        for v in values:
            whole.observe(v)
        # Feed half, checkpoint, restore into a fresh estimator, feed
        # the rest: must land bitwise where the uninterrupted one did.
        first = P2Quantile(0.9)
        for v in values[:250]:
            first.observe(v)
        resumed = P2Quantile(0.9)
        resumed.load_state_dict(first.state_dict())
        for v in values[250:]:
            resumed.observe(v)
        assert resumed.value() == whole.value()
        assert resumed.state_dict() == whole.state_dict()

    def test_state_rejects_other_quantile(self):
        est = P2Quantile(0.5)
        with pytest.raises(ValueError, match="p=0.5"):
            est.load_state_dict(P2Quantile(0.9).state_dict())


class TestStreamingHistogram:
    def test_moments_are_exact(self):
        hist = StreamingHistogram()
        for v in (2.0, -1.0, 4.0, 3.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.total == 8.0
        assert hist.min == -1.0 and hist.max == 4.0
        assert hist.mean == 2.0

    def test_summary_shape_and_empty(self):
        empty = StreamingHistogram().summary()
        assert empty == {
            "count": 0, "total": 0.0, "min": None, "max": None,
            "mean": None, "p50": None, "p90": None, "p99": None,
        }
        hist = StreamingHistogram()
        for v in range(100):
            hist.observe(float(v))
        summary = hist.summary()
        assert set(summary) == set(empty)
        assert summary["p50"] <= summary["p90"] <= summary["p99"]

    def test_exact_while_buffered(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=200)
        hist = StreamingHistogram()
        for v in values:
            hist.observe(v)
        # Below the spill bound quantiles are exact (linear-interp).
        assert hist.quantile(0.5) == pytest.approx(
            np.quantile(values, 0.5), abs=1e-12
        )

    def test_spill_state_matches_always_streaming(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(size=StreamingHistogram.SPILL_AT + 100)
        hist = StreamingHistogram()
        streamed = P2Quantile(0.9)
        for v in values:
            hist.observe(v)
            streamed.observe(v)
        # The buffer spilled in arrival order, so the estimator landed
        # bitwise where an always-streaming P² would have.
        assert hist.quantile(0.9) == streamed.value()
        assert hist.state_dict()["buffer"] is None

    def test_state_roundtrip_validates_quantile_set(self):
        hist = StreamingHistogram()
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        restored = StreamingHistogram()
        restored.load_state_dict(hist.state_dict())
        assert restored.summary() == hist.summary()
        state = hist.state_dict()
        del state["quantiles"]["0.99"]
        with pytest.raises(ValueError, match="quantiles"):
            StreamingHistogram().load_state_dict(state)

    def test_state_dict_keeps_the_quantile_keys(self):
        """Checkpointed rollup and metric states load across versions:
        the fixed quantile set is encoded exactly as before."""
        hist = StreamingHistogram()
        for v in (3.0, 1.0, 2.0):
            hist.observe(v)
        empty = '"buffer": [], "count": 0, "n": [], "np": []'
        assert json.dumps(hist.state_dict(), sort_keys=True) == (
            '{"buffer": [3.0, 1.0, 2.0], "count": 3, "max": 3.0, "min": 1.0, '
            '"quantiles": {'
            f'"0.5": {{{empty}, "p": 0.5, "q": []}}, '
            f'"0.9": {{{empty}, "p": 0.9, "q": []}}, '
            f'"0.99": {{{empty}, "p": 0.99, "q": []}}}}, "total": 6.0}}'
        )

    def test_state_roundtrip_across_the_spill_boundary(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=StreamingHistogram.SPILL_AT + 50)
        cut = StreamingHistogram.SPILL_AT - 10  # checkpoint pre-spill
        whole = StreamingHistogram()
        for v in values:
            whole.observe(v)
        first = StreamingHistogram()
        for v in values[:cut]:
            first.observe(v)
        resumed = StreamingHistogram()
        resumed.load_state_dict(first.state_dict())
        for v in values[cut:]:
            resumed.observe(v)
        assert resumed.state_dict() == whole.state_dict()


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

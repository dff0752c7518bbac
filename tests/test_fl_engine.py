"""The federated engine: accounting, history, aggregation, server, trainer."""

import functools

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.ckpt import checkpoint_paths
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import ConstantThreshold
from repro.fl.accounting import CommunicationLedger
from repro.fl.aggregation import mean_aggregate
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.config import FLConfig
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.server import FLServer
from repro.fl.trainer import FederatedTrainer
from repro.nn.serialization import STATUS_MESSAGE_BYTES, update_nbytes
from repro.obs import MemorySink, Tracer
from tests.strategies import federation


def _make_update(cid, vec, n=10):
    return ClientUpdate(client_id=cid, update=np.asarray(vec, dtype=float),
                        n_samples=n, train_loss=0.1)


class TestAggregation:
    def test_mean(self):
        agg = mean_aggregate([_make_update(0, [1.0, 0.0]),
                              _make_update(1, [3.0, 2.0])])
        np.testing.assert_allclose(agg, [2.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_aggregate([])


class TestLedger:
    def test_round_accounting(self):
        ledger = CommunicationLedger(n_params=100)
        ledger.record_round([0, 1, 2], [3, 4])
        assert ledger.accumulated_rounds == 3
        assert ledger.uploaded_bytes == 3 * update_nbytes(100)
        assert ledger.status_bytes == 2 * STATUS_MESSAGE_BYTES
        assert ledger.rounds_per_iteration == [3]

    def test_elimination_counts(self):
        ledger = CommunicationLedger(n_params=10)
        ledger.record_round([0], [1, 2])
        ledger.record_round([0, 1], [2])
        assert ledger.elimination_counts(3) == [0, 1, 2]

    def test_phi_matches_paper_definition(self):
        """Phi = sum_t |S_t| (Eq. 4)."""
        ledger = CommunicationLedger(n_params=10)
        sizes = [3, 0, 5, 2]
        for r in sizes:
            ledger.record_round(list(range(r)), [])
        assert ledger.accumulated_rounds == sum(sizes)


class TestHistory:
    def _record(self, t, metric=None):
        return RoundRecord(
            iteration=t, n_clients=4, n_uploaded=2,
            accumulated_rounds=2 * t, total_bytes=100 * t, lr=0.1,
            mean_train_loss=1.0, mean_score=0.5, threshold=0.5,
            test_metric=metric,
        )

    def test_increasing_iterations_enforced(self):
        history = RunHistory("x")
        history.append(self._record(1))
        with pytest.raises(ValueError):
            history.append(self._record(1))

    def test_evaluated_points_filters_none(self):
        history = RunHistory("x")
        history.append(self._record(1))
        history.append(self._record(2, metric=0.5))
        its, comm, acc = history.evaluated_points()
        assert its.tolist() == [2.0]
        assert acc.tolist() == [0.5]

    def test_upload_fraction(self):
        assert self._record(1).upload_fraction == 0.5

    def test_final_of_empty_raises(self):
        with pytest.raises(ValueError):
            RunHistory("x").final


class TestServer:
    def test_apply_round_moves_model(self):
        server = FLServer(np.zeros(2))
        agg = server.apply_round([_make_update(0, [2.0, 0.0]),
                                  _make_update(1, [0.0, 2.0])])
        np.testing.assert_allclose(agg, [1.0, 1.0])
        np.testing.assert_allclose(server.global_params, [1.0, 1.0])
        np.testing.assert_allclose(server.feedback, [1.0, 1.0])

    def test_empty_round_is_noop(self):
        server = FLServer(np.ones(2))
        assert server.apply_round([]) is None
        np.testing.assert_allclose(server.global_params, [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        server = FLServer(np.zeros(2))
        with pytest.raises(ValueError):
            server.apply_round([_make_update(0, [1.0, 2.0, 3.0])])


class _RejectAfterFirstRound(CMFLPolicy):
    """Rejects every update after round 1 (forces empty rounds)."""

    def __init__(self):
        super().__init__(ConstantThreshold(0.0))

    def decide(self, update, ctx):
        d = super().decide(update, ctx)
        if ctx.iteration == 1:
            return d
        return type(d)(upload=False, score=d.score, threshold=1.0)


#: The shared fixed federation, six rounds long.
_binary_federation = functools.partial(federation, rounds=6)


class TestTrainer:
    def test_vanilla_uploads_everyone(self):
        trainer, _ = _binary_federation(VanillaPolicy())
        history = trainer.run()
        assert all(r.n_uploaded == 4 for r in history)
        assert history.final.accumulated_rounds == 4 * 6

    def test_learning_happens(self):
        trainer, _ = _binary_federation(VanillaPolicy(), rounds=10)
        history = trainer.run()
        assert history.final.test_metric > 0.85

    def test_cmfl_threshold_zero_equals_vanilla(self):
        """With v_t = 0 every update passes: CMFL degenerates to vanilla."""
        t1, _ = _binary_federation(VanillaPolicy(), seed=3)
        t2, _ = _binary_federation(CMFLPolicy(ConstantThreshold(0.0)), seed=3)
        h1, h2 = t1.run(), t2.run()
        np.testing.assert_allclose(
            t1.server.global_params, t2.server.global_params
        )
        assert h1.final.accumulated_rounds == h2.final.accumulated_rounds

    def test_cmfl_filters_some_updates(self):
        trainer, _ = _binary_federation(
            CMFLPolicy(ConstantThreshold(0.75)), rounds=8
        )
        history = trainer.run()
        vanilla_phi = 4 * 8
        assert history.final.accumulated_rounds < vanilla_phi

    def test_force_best_keeps_progress_on_empty_rounds(self):
        trainer, _ = _binary_federation(
            _RejectAfterFirstRound(), rounds=5, on_empty_round="force_best",
        )
        history = trainer.run()
        # every round after the first uploads exactly the forced best
        assert [r.n_uploaded for r in history][1:] == [1] * 4

    def test_keep_mode_stalls_model(self):
        trainer, _ = _binary_federation(
            _RejectAfterFirstRound(), rounds=4, on_empty_round="keep",
        )
        trainer.run()
        params_after_round1 = trainer.server.global_params.copy()
        # rounds 2+ upload nothing and the model must stay frozen
        assert trainer.history.records[1].n_uploaded == 0
        assert trainer.history.records[2].n_uploaded == 0
        trainer.run(2)
        np.testing.assert_array_equal(
            trainer.server.global_params, params_after_round1
        )

    def test_reproducible_under_seed(self):
        t1, _ = _binary_federation(VanillaPolicy(), seed=9)
        t2, _ = _binary_federation(VanillaPolicy(), seed=9)
        t1.run()
        t2.run()
        np.testing.assert_array_equal(
            t1.server.global_params, t2.server.global_params
        )

    def test_duplicate_client_ids_rejected(self):
        trainer, data = _binary_federation(VanillaPolicy())
        clients = trainer.clients
        clients[1] = FLClient(0, clients[1].train_data)
        with pytest.raises(ValueError):
            FederatedTrainer(trainer.workspace, clients, VanillaPolicy(),
                             trainer.config)

    def test_on_decision_hook_sees_every_client(self):
        trainer, _ = _binary_federation(VanillaPolicy(), rounds=2)
        calls = []
        trainer.on_decision = lambda res, dec: calls.append(res.client_id)
        trainer.run()
        assert len(calls) == 4 * 2

    def test_run_continues_from_previous_round(self):
        trainer, _ = _binary_federation(VanillaPolicy(), rounds=2)
        trainer.run(2)
        trainer.run(3)
        assert [r.iteration for r in trainer.history] == [1, 2, 3, 4, 5]

    def test_run_checkpoints_and_opens_one_run_span(self, tmp_path):
        """A checkpointed, traced run goes through the one synchronous
        driver: its checkpoint cadence and its single run span."""
        sink = MemorySink()
        built, _ = _binary_federation(
            VanillaPolicy(), rounds=3, checkpoint_dir=str(tmp_path),
            checkpoint_every=1,
        )
        trainer = FederatedTrainer(
            built.workspace, built.clients, VanillaPolicy(), built.config,
            tracer=Tracer(sinks=[sink]),
        )
        assert len(trainer.run(3)) == 3
        assert len(checkpoint_paths(tmp_path)) > 0
        runs = [e for e in sink.events
                if e["kind"] == "span" and e["name"] == "run"]
        assert len(runs) == 1


class TestClientAndWorkspace:
    def test_update_is_parameter_drift(self):
        trainer, _ = _binary_federation(VanillaPolicy())
        client = trainer.clients[0]
        start = trainer.server.global_params.copy()
        result = client.compute_update(
            trainer.workspace, start, lr=0.5, local_epochs=1, batch_size=10
        )
        np.testing.assert_allclose(
            start + result.update, trainer.workspace.get_flat()
        )
        assert result.n_samples == client.n_samples
        assert np.isfinite(result.train_loss)

    def test_negative_lr_rejected(self):
        trainer, _ = _binary_federation(VanillaPolicy())
        with pytest.raises(ValueError):
            trainer.clients[0].compute_update(
                trainer.workspace, trainer.server.global_params,
                lr=-0.1, local_epochs=1, batch_size=4,
            )

    def test_workspace_evaluate(self):
        trainer, data = _binary_federation(VanillaPolicy())
        loss, metric = trainer.workspace.evaluate(data.x, data.y)
        assert np.isfinite(loss)
        assert 0.0 <= metric <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(rounds=0)
        with pytest.raises(ValueError):
            FLConfig(on_empty_round="bogus")


class TestLedgerProperties:
    """Hypothesis checks on the communication ledger's conservation laws."""

    def test_bytes_are_linear_in_uploads(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from repro.nn.serialization import STATUS_MESSAGE_BYTES, update_nbytes

        @settings(max_examples=40)
        @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                        min_size=1, max_size=20),
               st.integers(1, 10_000))
        def check(rounds, n_params):
            ledger = CommunicationLedger(n_params=n_params)
            total_up, total_skip = 0, 0
            next_id = 0
            for ups, skips in rounds:
                up_ids = list(range(next_id, next_id + ups))
                skip_ids = list(range(next_id + ups, next_id + ups + skips))
                next_id += ups + skips
                ledger.record_round(up_ids, skip_ids)
                total_up += ups
                total_skip += skips
            assert ledger.accumulated_rounds == total_up
            assert ledger.uploaded_bytes == total_up * update_nbytes(n_params)
            assert ledger.status_bytes == total_skip * STATUS_MESSAGE_BYTES
            assert sum(ledger.rounds_per_iteration) == total_up

        check()


class _PoisonedClient(FLClient):
    """Returns a NaN-poisoned update from ``poison_round`` onwards."""

    def __init__(self, *args, poison_round=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.poison_round = poison_round
        self._round = 0

    def compute_update(self, *args, **kwargs):
        result = super().compute_update(*args, **kwargs)
        self._round += 1
        if self._round >= self.poison_round:
            result.update[0] = np.nan
        return result


class TestCheckFinite:
    """Every round checks its aggregate and mean training loss once, and
    names the client that poisoned it."""

    def test_clean_run_passes_with_guard_on(self):
        trainer, _ = _binary_federation(VanillaPolicy())
        history = trainer.run()
        assert len(history) == 6

    def test_poisoned_client_named_in_error(self):
        trainer, _ = _binary_federation(VanillaPolicy())
        bad = trainer.clients[2]
        trainer.clients[2] = _PoisonedClient(
            bad.client_id, bad.train_data, rng=0
        )
        with pytest.raises(FloatingPointError, match=r"client 2 in round 2"):
            trainer.run()
        # round 1 completed before the poison hit
        assert len(trainer.history) == 1

    def test_non_finite_training_loss_named_in_error(self):
        """A finite update with an infinite loss still names its client,
        and the round raises before the global model changes."""

        class Client(FLClient):
            def compute_update(self, *args, **kwargs):
                result = super().compute_update(*args, **kwargs)
                result.train_loss = float("inf")
                return result

        trainer, _ = _binary_federation(VanillaPolicy())
        bad = trainer.clients[3]
        trainer.clients[3] = Client(bad.client_id, bad.train_data, rng=0)
        before = trainer.server.global_params.tobytes()
        with pytest.raises(FloatingPointError, match=r"client 3 in round 1"):
            trainer.run()
        assert trainer.server.global_params.tobytes() == before

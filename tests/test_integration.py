"""Cross-module integration tests: full federated runs on every workload."""

import numpy as np
import pytest

from repro.analysis.saving import rounds_to_accuracy
from repro.baselines.gaia import GaiaPolicy
from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy
from repro.core.relevance import relevance
from repro.core.thresholds import ConstantThreshold
from repro.experiments.workloads import DigitsWorkload, NWPWorkload


@pytest.fixture(scope="module")
def digits():
    return DigitsWorkload(scale="test")


@pytest.fixture(scope="module")
def nwp():
    return NWPWorkload(scale="test")


class TestDigitsFederation:
    def test_vanilla_runs_and_learns_something(self, digits):
        history = digits.make_trainer(VanillaPolicy(), rounds=6).run()
        assert len(history) == 6
        losses = history.train_losses()
        assert losses[-1] < losses[0]

    def test_cmfl_reduces_phi_vs_vanilla(self, digits):
        vanilla = digits.make_trainer(VanillaPolicy(), rounds=6).run()
        cmfl = digits.make_trainer(
            CMFLPolicy(ConstantThreshold(0.55)), rounds=6
        ).run()
        assert cmfl.final.accumulated_rounds < vanilla.final.accumulated_rounds

    def test_same_policy_same_history(self, digits):
        h1 = digits.make_trainer(VanillaPolicy(), rounds=3).run()
        h2 = digits.make_trainer(VanillaPolicy(), rounds=3).run()
        np.testing.assert_allclose(h1.train_losses(), h2.train_losses())

    def test_gaia_runs(self, digits):
        history = digits.make_trainer(
            GaiaPolicy(ConstantThreshold(0.05)), rounds=4
        ).run()
        assert len(history) == 4

    def test_recorded_scores_are_valid_relevances(self, digits):
        trainer = digits.make_trainer(
            CMFLPolicy(ConstantThreshold(0.5)), rounds=4
        )
        seen = []
        trainer.on_decision = lambda res, dec: seen.append(dec.score)
        trainer.run()
        assert all(0.0 <= s <= 1.0 for s in seen)


class TestNWPFederation:
    def test_vanilla_loss_decreases(self, nwp):
        history = nwp.make_trainer(VanillaPolicy(), rounds=5).run()
        losses = history.train_losses()
        assert losses[-1] < losses[0]

    def test_feedback_matches_manual_relevance(self, nwp):
        """The score the policy computes equals Eq. (9) evaluated
        against the server's broadcast feedback."""
        trainer = nwp.make_trainer(CMFLPolicy(ConstantThreshold(0.0)), rounds=3)
        checks = []

        def hook(result, decision):
            expected = relevance(result.update, trainer.server.feedback)
            checks.append(expected == decision.score)

        trainer.on_decision = hook
        trainer.run()
        assert checks and all(checks)


class TestAccountingConsistency:
    def test_history_and_ledger_agree(self, digits):
        trainer = digits.make_trainer(
            CMFLPolicy(ConstantThreshold(0.55)), rounds=5
        )
        history = trainer.run()
        assert (
            history.final.accumulated_rounds
            == trainer.ledger.accumulated_rounds
        )
        per_round = [r.n_uploaded for r in history]
        assert per_round == trainer.ledger.rounds_per_iteration

    def test_skips_plus_uploads_cover_all_clients(self, digits):
        trainer = digits.make_trainer(
            CMFLPolicy(ConstantThreshold(0.6)), rounds=4
        )
        trainer.run()
        n = len(trainer.clients)
        total = sum(trainer.ledger.uploads_per_client.get(c, 0)
                    + trainer.ledger.skips_per_client.get(c, 0)
                    for c in range(n))
        assert total == n * 4

    def test_rounds_to_accuracy_consistent_with_curve(self, digits):
        history = digits.make_trainer(VanillaPolicy(), rounds=6).run()
        _, comm, acc = history.evaluated_points()
        if acc.size and acc.max() >= 0.2:
            phi = rounds_to_accuracy(history, 0.2, smooth_window=1)
            assert phi in comm.astype(int).tolist()

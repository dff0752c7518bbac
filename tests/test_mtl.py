"""The MOCHA-style MTL substrate."""

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import ConstantThreshold
from repro.data.har import make_har_tasks
from repro.mtl.mocha import MochaTrainer, MTLConfig


@pytest.fixture
def tasks():
    return make_har_tasks(n_clients=10, n_features=20, min_samples=10,
                          max_samples=30, rng=0)


@pytest.fixture
def config():
    return MTLConfig(rounds=5, local_epochs=1, batch_size=5, lr=0.01,
                     eval_every=1, seed=1)


class TestMTLConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MTLConfig(rounds=0)
        with pytest.raises(ValueError):
            MTLConfig(lr=0.0)
        with pytest.raises(ValueError):
            MTLConfig(eval_every=0)


class TestMochaTrainer:
    def test_runs_and_records(self, tasks, config):
        trainer = MochaTrainer(tasks, VanillaPolicy(), config)
        history = trainer.run()
        assert len(history) == 5
        assert history.final.accumulated_rounds == 10 * 5
        assert 0.0 <= history.final.test_metric <= 1.0

    def test_learning_improves_over_zero_init(self):
        low_noise = make_har_tasks(n_clients=10, n_features=20,
                                   min_samples=10, max_samples=30,
                                   noise_std=1.0, rng=0)
        config = MTLConfig(rounds=8, local_epochs=2, batch_size=5, lr=0.05,
                           eval_every=1, seed=1)
        trainer = MochaTrainer(low_noise, VanillaPolicy(), config)
        history = trainer.run()
        # zero weights predict class 1 everywhere -> ~0.5 accuracy
        assert history.final.test_metric > 0.65

    def test_task_weights_combines_base_and_offset(self, tasks, config):
        trainer = MochaTrainer(tasks, VanillaPolicy(), config)
        trainer.run(2)
        k = 0
        np.testing.assert_allclose(
            trainer.task_weights(k), trainer.base + trainer.offsets[:, k]
        )

    def test_cmfl_reduces_uploads(self, config):
        tasks = make_har_tasks(n_clients=10, n_features=20, min_samples=10,
                               max_samples=30, rng=0)
        vanilla = MochaTrainer(tasks, VanillaPolicy(), config).run()
        tasks = make_har_tasks(n_clients=10, n_features=20, min_samples=10,
                               max_samples=30, rng=0)
        cmfl = MochaTrainer(
            tasks, CMFLPolicy(ConstantThreshold(0.55)), config
        ).run()
        assert cmfl.final.accumulated_rounds < vanilla.final.accumulated_rounds

    def test_outliers_filtered_more_than_clean(self):
        tasks = make_har_tasks(n_clients=20, n_features=60, min_samples=15,
                               max_samples=40, noise_std=0.8, rng=4)
        config = MTLConfig(rounds=10, local_epochs=1, batch_size=5, lr=0.005,
                           eval_every=5, seed=2)
        trainer = MochaTrainer(tasks, CMFLPolicy(ConstantThreshold(0.53)),
                               config)
        trainer.run()
        skips = np.asarray(trainer.ledger.elimination_counts(20), dtype=float)
        outliers = np.asarray([t.is_outlier for t in tasks])
        assert skips[outliers].mean() > skips[~outliers].mean()

    def test_every_client_judges_against_the_previous_base_update(
        self, tasks, config
    ):
        seen = {}

        class Recording(VanillaPolicy):
            def decide(self, update, ctx):
                seen.setdefault(ctx.iteration, []).append(
                    ctx.global_update_estimate.copy()
                )
                return super().decide(update, ctx)

        trainer = MochaTrainer(tasks, Recording(), config)
        trainer.run(1)
        assert all(not f.any() for f in seen[1])
        moved = trainer.base.copy()  # round 1 moved the base from zero
        trainer.run(1)
        for feedback in seen[2]:
            np.testing.assert_array_equal(feedback, moved)

    def test_reproducible(self, config):
        results = []
        for _ in range(2):
            tasks = make_har_tasks(n_clients=6, n_features=15, rng=7)
            trainer = MochaTrainer(tasks, VanillaPolicy(), config)
            trainer.run()
            results.append(trainer.base.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_mismatched_feature_dims_rejected(self, config):
        a = make_har_tasks(n_clients=3, n_features=10, rng=0)
        b = make_har_tasks(n_clients=3, n_features=12, rng=0)
        with pytest.raises(ValueError):
            MochaTrainer(a + b, VanillaPolicy(), config)

    def test_empty_tasks_rejected(self, config):
        with pytest.raises(ValueError):
            MochaTrainer([], VanillaPolicy(), config)

"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import LinearDecayThreshold
from repro.data.dataset import Dataset
from repro.data.vocab import Vocabulary
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs
from repro.utils.smoothing import moving_average


def _trainer(policy, client_sizes, rounds=3, seed=0, **cfg_kw):
    rngs = child_rngs(seed, len(client_sizes) + 3)
    w = rngs[0].normal(size=4)
    clients = []
    for i, size in enumerate(client_sizes):
        x = rngs[1].normal(size=(size, 4))
        y = (x @ w > 0).astype(np.int64)
        clients.append(FLClient(i, Dataset(x, y), rng=rngs[3 + i]))
    model = make_logistic_regression(4, rng=rngs[2])
    workspace = ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), SGD(model.parameters(), 0.5),
        metric=binary_accuracy,
    )
    config = FLConfig(rounds=rounds, local_epochs=1, batch_size=8,
                      lr=ConstantLR(0.3), **cfg_kw)
    return FederatedTrainer(workspace, clients, policy, config)


class TestTinyClients:
    def test_single_sample_client_works(self):
        trainer = _trainer(VanillaPolicy(), [1, 10, 10])
        history = trainer.run()
        assert len(history) == 3
        assert all(np.isfinite(r.mean_train_loss) for r in history)

    def test_wildly_unbalanced_clients(self):
        trainer = _trainer(VanillaPolicy(), [1, 100])
        trainer.run()
        assert np.all(np.isfinite(trainer.server.global_params))


class TestSchedulesInTrainer:
    def test_linear_decay_threshold_in_trainer(self):
        trainer = _trainer(
            CMFLPolicy(LinearDecayThreshold(0.8, 0.2, 3)), [10, 10], rounds=4
        )
        history = trainer.run()
        thresholds = [r.threshold for r in history]
        assert thresholds[0] == pytest.approx(0.8)
        assert thresholds[-1] == pytest.approx(0.2)

    def test_no_eval_fn_leaves_metrics_none(self):
        trainer = _trainer(VanillaPolicy(), [10, 10])
        history = trainer.run()
        assert all(r.test_metric is None for r in history)
        its, comm, acc = history.evaluated_points()
        assert its.size == 0

    def test_feedback_staleness_in_trainer(self):
        trainer = _trainer(VanillaPolicy(), [10, 10], rounds=5,
                           feedback_staleness=3)
        assert trainer.server.estimator.staleness == 3
        trainer.run()
        assert len(trainer.history) == 5


class TestNumericalEdges:
    def test_moving_average_window_larger_than_series(self):
        out = moving_average([1.0, 2.0], window=10)
        np.testing.assert_allclose(out, [1.0, 1.5])

    def test_vocab_empty_encode(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode([]).size == 0

    def test_ledger_total_megabytes(self):
        trainer = _trainer(VanillaPolicy(), [5, 5], rounds=2)
        trainer.run()
        assert trainer.ledger.total_megabytes() == pytest.approx(
            trainer.ledger.total_bytes / 1e6
        )

    def test_history_scores_and_iterations_views(self):
        trainer = _trainer(VanillaPolicy(), [5, 5], rounds=3)
        history = trainer.run()
        assert history.iterations().tolist() == [1, 2, 3]
        assert history.scores().shape == (3,)
        assert history.total_bytes().tolist() == sorted(
            history.total_bytes().tolist()
        )

    def test_batch_larger_than_dataset(self):
        ds = Dataset(np.arange(4)[:, None].astype(float), np.arange(4))
        batches = list(ds.batches(100, rng=0))
        assert len(batches) == 1
        assert len(batches[0][1]) == 4

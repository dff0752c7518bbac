"""Client sampling."""

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.sampling import FullParticipation, UniformSampler
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.rng import child_rngs


def _clients(n=10, per=12, seed=0):
    rngs = child_rngs(seed, n + 2)
    w = rngs[0].normal(size=4)
    out = []
    for i in range(n):
        x = rngs[1].normal(size=(per, 4))
        y = (x @ w > 0).astype(np.int64)
        out.append(FLClient(i, Dataset(x, y), rng=rngs[2 + i]))
    return out


class TestSamplers:
    def test_full_participation(self):
        clients = _clients(5)
        assert FullParticipation().select(1, clients) == clients

    def test_uniform_cohort_size(self):
        clients = _clients(10)
        sampler = UniformSampler(count=3, rng=0)
        selected = sampler.select(1, clients)
        assert len(selected) == 3
        assert len({c.client_id for c in selected}) == 3

    def test_uniform_changes_across_rounds(self):
        clients = _clients(10)
        sampler = UniformSampler(count=5, rng=1)
        a = {c.client_id for c in sampler.select(1, clients)}
        b = {c.client_id for c in sampler.select(2, clients)}
        c = {c.client_id for c in sampler.select(3, clients)}
        assert len({frozenset(a), frozenset(b), frozenset(c)}) > 1



class TestIndexSpace:
    """select_indices is the primary form; select derives from it."""

    def test_select_matches_select_indices(self):
        clients = _clients(10)
        a = UniformSampler(count=4, rng=3)
        b = UniformSampler(count=4, rng=3)
        selected = a.select(1, clients)
        indices = b.select_indices(1, 10)
        assert [c.client_id for c in selected] == [int(i) for i in indices]

    def test_uniform_draws_unchanged_by_index_rewrite(self):
        # The exact RNG consumption of the pre-index-space sampler:
        # one choice(n, k, replace=False) then an index sort.  Existing
        # run digests depend on it.
        rng = np.random.default_rng(7)
        expected = sorted(rng.choice(10, size=4, replace=False))
        got = UniformSampler(count=4, rng=7).select_indices(5, 10)
        assert [int(i) for i in got] == [int(i) for i in expected]

    def test_full_participation_indices(self):
        idx = FullParticipation().select_indices(3, 7)
        assert idx.tolist() == list(range(7))

    def test_uniform_count_mode(self):
        sampler = UniformSampler(count=5, rng=0)
        idx = sampler.select_indices(1, 1_000_000)
        assert len(idx) == 5
        assert len(set(idx.tolist())) == 5
        assert all(0 <= i < 1_000_000 for i in idx)
        with pytest.raises(ValueError):
            UniformSampler(count=50, rng=0).select_indices(1, 10)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            UniformSampler(count=0)

    def test_state_dict_round_trips_count_sampler(self):
        a = UniformSampler(count=4, rng=5)
        a.select_indices(1, 100)
        state = a.state_dict()
        b = UniformSampler(count=4, rng=0)
        b.load_state_dict(state)
        assert a.select_indices(2, 100).tolist() == (
            b.select_indices(2, 100).tolist()
        )


class TestTrainerIntegration:
    def _trainer(self, sampler, rounds=4):
        clients = _clients(8)
        model = make_logistic_regression(4, rng=3)
        workspace = ModelWorkspace(model, SigmoidBinaryCrossEntropy(),
                                   SGD(model.parameters(), 0.5))
        config = FLConfig(rounds=rounds, local_epochs=1, batch_size=6,
                          lr=ConstantLR(0.3))
        return FederatedTrainer(workspace, clients, VanillaPolicy(), config,
                                sampler=sampler)

    def test_sampled_round_uploads_only_participants(self):
        trainer = self._trainer(UniformSampler(count=2, rng=0))
        history = trainer.run()
        assert all(r.n_clients == 2 for r in history)
        assert all(r.n_uploaded == 2 for r in history)
        assert history.final.accumulated_rounds == 2 * 4

    def test_default_is_full_participation(self):
        trainer = self._trainer(None)
        history = trainer.run()
        assert all(r.n_clients == 8 for r in history)

    def test_learning_still_happens_with_sampling(self):
        trainer = self._trainer(UniformSampler(count=4, rng=2), rounds=8)
        history = trainer.run()
        losses = history.train_losses()
        assert losses[-1] < losses[0]

"""The shared experiment workload builders."""

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.experiments.workloads import (
    _DIGIT_SCALES,
    _DIGIT_SPLITS,
    SCALES,
    DigitsWorkload,
    NWPWorkload,
    resolve_scale,
)
from repro.nn.serialization import flatten_parameters


class TestScaleResolution:
    def test_known_scales(self):
        assert set(SCALES) == {"test", "bench", "paper"}

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale("gigantic")


class TestDigitsWorkload:
    def test_partition_covers_everything(self):
        workload = DigitsWorkload(scale="test")
        allidx = np.concatenate(workload.partition)
        assert sorted(allidx.tolist()) == list(range(len(workload.train)))

    def test_trainers_share_data_and_init(self):
        """Different policies must start from identical conditions."""
        workload = DigitsWorkload(scale="test")
        t1 = workload.make_trainer(VanillaPolicy())
        t2 = workload.make_trainer(VanillaPolicy())
        np.testing.assert_array_equal(
            flatten_parameters(t1.workspace.model),
            flatten_parameters(t2.workspace.model),
        )
        np.testing.assert_array_equal(
            t1.clients[0].train_data.y, t2.clients[0].train_data.y
        )

    def test_config_overrides(self):
        workload = DigitsWorkload(scale="test")
        trainer = workload.make_trainer(VanillaPolicy(), rounds=2,
                                        local_epochs=3)
        assert trainer.config.rounds == 2
        assert trainer.config.local_epochs == 3

    def test_distinct_seeds_give_distinct_data(self):
        a = DigitsWorkload(scale="test", seed=1)
        b = DigitsWorkload(scale="test", seed=2)
        assert not np.array_equal(a.train.x, b.train.x)


class TestNWPWorkload:
    def test_one_client_per_role(self):
        workload = NWPWorkload(scale="test")
        assert len(workload.train_indices_by_role) == workload.params.n_clients

    def test_vocab_consistent_with_model(self):
        workload = NWPWorkload(scale="test")
        trainer = workload.make_trainer(VanillaPolicy(), rounds=1)
        out = trainer.workspace.model.forward(workload.test.x[:2])
        assert out.shape == (2, workload.vocab_size)


class TestPaperPreset:
    """``paper`` is the paper's federation (Sec. V-A) at bench width."""

    def test_digits_federation(self):
        # Read off the preset tables: building it renders 62,000 images.
        p = _DIGIT_SCALES["paper"]
        assert (p.n_clients, p.samples_per_client) == (100, 600)
        assert (p.local_epochs, p.batch_size) == (4, 2)
        shards_per_client, _ = _DIGIT_SPLITS["paper"]
        assert shards_per_client == 1

    def test_nwp_federation_at_bench_width(self):
        workload = NWPWorkload(scale="paper")
        trainer = workload.make_trainer(VanillaPolicy())
        assert len(trainer.clients) == 100
        assert len(workload.train_indices_by_role) == 100
        assert (trainer.config.local_epochs, trainer.config.batch_size) == (4, 2)
        bench = NWPWorkload(scale="bench").make_trainer(VanillaPolicy())
        assert trainer.server.n_params == bench.server.n_params == 24_490

    @pytest.mark.parametrize("workload", [DigitsWorkload, NWPWorkload])
    def test_only_scale_and_seed_are_settable(self, workload):
        with pytest.raises(TypeError):
            workload(scale="test", hidden=64)

"""The shared experiment workload builders."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.data.synthetic_digits import make_digit_dataset
from repro.experiments.workloads import (
    _DIGIT_SCALES,
    _DIGIT_SPLITS,
    SCALES,
    DigitsWorkload,
    NWPWorkload,
    resolve_scale,
)
from repro.nn.serialization import flatten_parameters
from repro.utils.rng import child_rngs


class TestScaleResolution:
    def test_known_scales(self):
        assert set(SCALES) == {"test", "bench", "paper"}

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            resolve_scale("gigantic")


class TestDigitsWorkload:
    def test_partition_covers_everything(self):
        """Every generated row is in exactly one client's shard, and the
        shards tile ``train`` in client order."""
        workload = DigitsWorkload(scale="test")
        allidx = np.concatenate(workload.partition)
        assert sorted(allidx.tolist()) == list(range(len(workload.train)))
        stops = np.cumsum([len(part) for part in workload.partition]).tolist()
        assert [(s.source, s.start, s.start + len(s)) for s in workload.shards] == [
            (workload.train, stop - len(part), stop)
            for part, stop in zip(workload.partition, stops)
        ]

    def test_every_client_is_a_window_of_the_one_training_copy(self):
        """Two trainers' clients all read one source: the generated rows,
        gathered once in partition order."""
        workload = DigitsWorkload(scale="test")
        generated = make_digit_dataset(
            len(workload.train), rng=child_rngs(workload.seed, 4)[0],
            image_size=workload.image_size,
        )
        order = np.concatenate(workload.partition)
        assert workload.train.x.tobytes() == generated.x[order].tobytes()
        assert workload.train.y.tobytes() == generated.y[order].tobytes()
        for trainer in (workload.make_trainer(VanillaPolicy()),
                        workload.make_trainer(VanillaPolicy())):
            assert all(c.train_data.source is workload.train for c in trainer.clients)

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



class TestDigitsMemory:
    """The digits transients are bounded by a render chunk or an unfold
    block, not by the data set: tracemalloc's peak over what is kept."""

    def test_the_build_holds_the_training_set_once(self):
        DigitsWorkload("bench")  # first-use imports and caches
        tracemalloc.start()
        try:
            workload = DigitsWorkload("bench")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept >= workload.train.x.nbytes + workload.test.x.nbytes
        assert peak - kept < 2 * 2**20

    def test_evaluation_unfolds_in_blocks(self):
        """The 250 test images in one evaluation batch: conv1's columns
        alone would be 12.2 MiB."""
        workload = DigitsWorkload("bench")
        workspace = workload.make_trainer(VanillaPolicy()).workspace
        test = workload.test
        assert len(test) == 250
        workspace.evaluate(test.x, test.y)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            workspace.evaluate(test.x, test.y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 4 * 2**20


class TestNWPWorkload:
    def test_one_client_per_role(self):
        workload = NWPWorkload(scale="test")
        assert len(workload.train_indices_by_role) == workload.params.n_clients

    def test_every_client_is_a_window_of_the_one_training_copy(self):
        workload = NWPWorkload(scale="test")
        full = workload.corpus.as_dataset()
        order = np.concatenate(workload.train_indices_by_role)
        sources = {
            id(c.train_data.source)
            for trainer in (workload.make_trainer(VanillaPolicy()),
                            workload.make_trainer(VanillaPolicy()))
            for c in trainer.clients
        }
        source = workload.shards[0].source
        assert sources == {id(source)}
        assert source.x.tobytes() == full.x[order].tobytes()
        assert source.y.tobytes() == full.y[order].tobytes()

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

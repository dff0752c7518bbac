"""Datasets, partitioners and generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset, train_test_split
from repro.data.har import make_har_tasks
from repro.data.partition import (
    group_partition,
    iid_partition,
    label_shard_partition,
)
from repro.data.semeion import make_semeion_tasks
from repro.data.shakespeare import make_dialogue_corpus
from repro.data.synthetic_digits import (
    N_CLASSES,
    binarize_images,
    make_digit_dataset,
    render_digit,
)
from repro.data.vocab import Vocabulary


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_batches_cover_everything_once(self):
        ds = Dataset(np.arange(10)[:, None], np.arange(10))
        seen = np.concatenate([y for _, y in ds.batches(3, rng=0)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_batches_deterministic_under_seed(self):
        ds = Dataset(np.arange(10)[:, None], np.arange(10))
        a = [y.tolist() for _, y in ds.batches(4, rng=5)]
        b = [y.tolist() for _, y in ds.batches(4, rng=5)]
        assert a == b

    def test_split(self):
        """The parts' rows, gathered once in part order into one new
        source; each part a zero-copy window of it."""
        ds = Dataset(np.arange(10)[:, None] * 10, np.arange(10))
        parts = ds.split([[7, 2], [5], [0, 9, 1]])
        source = parts[0].source
        assert source.y.tolist() == [7, 2, 5, 0, 9, 1]
        assert source.x[:, 0].tolist() == [70, 20, 50, 0, 90, 10]
        assert not np.shares_memory(source.x, ds.x)
        assert [(p.source, p.start, p.y.tolist()) for p in parts] == [
            (source, 0, [7, 2]), (source, 2, [5]), (source, 3, [0, 9, 1]),
        ]
        assert all(np.shares_memory(p.x, source.x) for p in parts)
        with pytest.raises(ValueError):
            ds.split([[1], []])

    def test_train_test_split_disjoint(self):
        ds = Dataset(np.arange(20)[:, None], np.arange(20))
        train, test = train_test_split(ds, 0.25, rng=0)
        assert len(train) == 15 and len(test) == 5
        assert not set(train.y.tolist()) & set(test.y.tolist())


class TestPartitioners:
    @settings(max_examples=25)
    @given(st.integers(10, 200), st.integers(1, 10), st.integers(0, 1000))
    def test_iid_partition_is_exact_cover(self, n, k, seed):
        parts = iid_partition(n, k, rng=seed)
        allidx = np.concatenate(parts)
        assert sorted(allidx.tolist()) == list(range(n))

    @settings(max_examples=25)
    @given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 1000))
    def test_label_shard_partition_is_exact_cover(self, k, spc, seed):
        gen = np.random.default_rng(seed)
        labels = gen.integers(0, 5, size=k * spc * 7)
        parts = label_shard_partition(labels, k, shards_per_client=spc, rng=seed)
        allidx = np.concatenate(parts)
        assert sorted(allidx.tolist()) == list(range(labels.size))

    def test_label_shard_partition_concentrates_labels(self):
        labels = np.repeat(np.arange(10), 60)
        parts = label_shard_partition(labels, 10, shards_per_client=1, rng=0)
        for part in parts:
            assert len(np.unique(labels[part])) <= 2

    def test_group_partition(self):
        groups = np.array([0, 1, 0, 2, 1])
        parts = group_partition(groups)
        assert [p.tolist() for p in parts] == [[0, 2], [1, 4], [3]]

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            iid_partition(3, 5)


class TestDigits:
    def test_render_shape_and_range(self):
        img = render_digit(7, rng=0)
        assert img.shape == (28, 28)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_invalid_digit(self):
        with pytest.raises(ValueError):
            render_digit(10)

    def test_dataset_shapes(self):
        ds = make_digit_dataset(30, rng=0, image_size=20)
        assert ds.x.shape == (30, 1, 20, 20)
        assert set(np.unique(ds.y)) <= set(range(N_CLASSES))

    def test_flat_option(self):
        ds = make_digit_dataset(10, rng=0, image_size=16, flat=True)
        assert ds.x.shape == (10, 256)

    def test_class_balance(self):
        ds = make_digit_dataset(100, rng=0)
        counts = np.bincount(ds.y, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_determinism(self):
        a = make_digit_dataset(5, rng=3).x
        b = make_digit_dataset(5, rng=3).x
        np.testing.assert_array_equal(a, b)

    def test_same_digit_varies_between_samples(self):
        imgs = [render_digit(3, rng=np.random.default_rng(i)) for i in range(2)]
        assert not np.array_equal(imgs[0], imgs[1])

    def test_binarize(self):
        out = binarize_images(np.array([[0.2, 0.8]]))
        np.testing.assert_array_equal(out, [[0.0, 1.0]])


class TestShakespeare:
    def test_corpus_structure(self):
        corpus = make_dialogue_corpus(n_roles=5, words_per_role=60, rng=0)
        assert corpus.sequences.shape[1] == 10
        assert corpus.next_words.shape[0] == corpus.sequences.shape[0]
        assert corpus.n_roles == 5

    def test_every_role_has_samples(self):
        corpus = make_dialogue_corpus(n_roles=8, words_per_role=40, rng=1)
        assert set(np.unique(corpus.roles)) == set(range(8))

    def test_token_ids_within_vocab(self):
        corpus = make_dialogue_corpus(n_roles=3, words_per_role=50, rng=2)
        assert corpus.sequences.max() < len(corpus.vocab)
        assert corpus.next_words.max() < len(corpus.vocab)

    def test_role_dataset(self):
        corpus = make_dialogue_corpus(n_roles=3, words_per_role=50, rng=2)
        ds = corpus.role_dataset(1)
        assert len(ds) == np.count_nonzero(corpus.roles == 1)

    def test_roles_have_distinct_word_distributions(self):
        """The non-IID property the paper's NWP workload relies on."""
        corpus = make_dialogue_corpus(
            n_roles=2, words_per_role=400, topic_alpha=0.1, rng=3
        )
        v = len(corpus.vocab)
        hists = []
        for role in (0, 1):
            tokens = corpus.sequences[corpus.roles == role].reshape(-1)
            hists.append(np.bincount(tokens, minlength=v) / tokens.size)
        overlap = np.minimum(hists[0], hists[1]).sum()
        assert overlap < 0.8  # far from identical distributions

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_dialogue_corpus(n_roles=2, words_per_role=5, seq_len=10)
        with pytest.raises(ValueError):
            make_dialogue_corpus(bigram_strength=1.5)


class TestVocabulary:
    def test_round_trip(self):
        vocab = Vocabulary(["a", "b", "c"])
        ids = vocab.encode(["b", "a", "zzz"])
        assert ids.tolist() == [2, 1, 0]
        assert vocab.decode([2, 1, 0]) == ["b", "a", "<unk>"]

    def test_duplicates_collapse(self):
        vocab = Vocabulary(["a", "a", "b"])
        assert len(vocab) == 3  # <unk>, a, b

    def test_out_of_range_decode(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"]).decode([5])


class TestHAR:
    def test_task_count_and_flags(self):
        tasks = make_har_tasks(n_clients=20, n_features=30,
                               outlier_fraction=0.25, rng=0)
        assert len(tasks) == 20
        assert sum(t.is_outlier for t in tasks) == 5

    def test_sample_ranges(self):
        tasks = make_har_tasks(n_clients=10, n_features=20,
                               min_samples=10, max_samples=30, rng=1)
        for t in tasks:
            assert 10 <= len(t.train) <= 30
            assert len(t.test) >= 2

    def test_outliers_have_noisy_train_labels(self):
        """Outlier train labels should be near-uncorrelated with the
        optimal direction; clean clients' labels should be predictable."""
        tasks = make_har_tasks(n_clients=30, n_features=50, noise_std=0.1,
                               label_flip_fraction=0.5, rng=2)
        clean_acc, outl_acc = [], []
        for t in tasks:
            if len(np.unique(t.test.y)) < 2:
                continue
            # direction from the (clean) test data
            mu1 = t.test.x[t.test.y == 1].mean(axis=0)
            mu0 = t.test.x[t.test.y == 0].mean(axis=0)
            w = mu1 - mu0
            pred = (t.train.x @ w > 0).astype(int)
            acc = np.mean(pred == t.train.y)
            (outl_acc if t.is_outlier else clean_acc).append(acc)
        assert np.mean(clean_acc) > 0.9
        assert np.mean(outl_acc) < 0.75

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            make_har_tasks(n_clients=1)
        with pytest.raises(ValueError):
            make_har_tasks(outlier_fraction=1.0)


class TestSemeion:
    def test_binary_features(self):
        tasks = make_semeion_tasks(n_clients=4, total_samples=120, rng=0)
        for t in tasks:
            assert set(np.unique(t.train.x)) <= {0.0, 1.0}
            assert t.train.x.shape[1] == 256

    def test_outlier_flags_present(self):
        tasks = make_semeion_tasks(n_clients=10, total_samples=300,
                                   outlier_fraction=0.3, rng=1)
        assert sum(t.is_outlier for t in tasks) == 3

    def test_labels_binary(self):
        tasks = make_semeion_tasks(n_clients=3, total_samples=90, rng=2)
        for t in tasks:
            assert set(np.unique(t.train.y)) <= {0, 1}

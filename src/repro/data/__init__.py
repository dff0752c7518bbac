"""Synthetic datasets and partitioners.

Real MNIST / Shakespeare / UCI downloads are unavailable offline, so
each dataset here is a synthetic equivalent engineered to preserve the
property the paper's evaluation depends on: heavy client-specific
(non-IID) skew on top of a learnable shared structure.  See DESIGN.md
section 2 for the substitution rationale.
"""

from repro.data.dataset import Dataset, train_test_split
from repro.data.partition import (
    group_partition,
    iid_partition,
    label_shard_partition,
)
from repro.data.synthetic_digits import make_digit_dataset
from repro.data.shakespeare import make_dialogue_corpus
from repro.data.har import make_har_tasks
from repro.data.semeion import make_semeion_tasks
from repro.data.vocab import Vocabulary

__all__ = [
    "Dataset",
    "train_test_split",
    "iid_partition",
    "label_shard_partition",
    "group_partition",
    "make_digit_dataset",
    "make_dialogue_corpus",
    "make_har_tasks",
    "make_semeion_tasks",
    "Vocabulary",
]

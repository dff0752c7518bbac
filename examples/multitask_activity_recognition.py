"""CMFL on federated multi-task learning (the paper's MOCHA experiment).

Forty clients each solve a personal sitting-vs-active classifier; a
quarter of them have corrupted training labels (the "outliers" of the
paper's Fig. 6).  CMFL's relevance check quietly filters exactly those
clients, saving uploads *and* keeping the shared base model clean.

Run:  python examples/multitask_activity_recognition.py       (seconds)
"""

import numpy as np

from repro import CMFLPolicy, VanillaPolicy
from repro.core.thresholds import ConstantThreshold
from repro.data import make_har_tasks
from repro.mtl import MochaTrainer, MTLConfig


def run(policy, tasks):
    config = MTLConfig(rounds=30, local_epochs=1, batch_size=5, lr=0.002,
                       eval_every=5, seed=1)
    trainer = MochaTrainer(tasks, policy, config)
    history = trainer.run()
    return trainer, history


def main():
    tasks = make_har_tasks(n_clients=40, n_features=120,
                           min_samples=10, max_samples=60, rng=0)
    n_outliers = sum(t.is_outlier for t in tasks)
    print(f"Tasks: {len(tasks)} clients, {n_outliers} with corrupted "
          "training labels\n")

    _, vanilla = run(VanillaPolicy(), tasks)
    tasks = make_har_tasks(n_clients=40, n_features=120,
                           min_samples=10, max_samples=60, rng=0)
    trainer, cmfl = run(CMFLPolicy(ConstantThreshold(0.53)), tasks)

    print(f"vanilla MOCHA : Phi={vanilla.final.accumulated_rounds:>5}  "
          f"final accuracy={vanilla.final.test_metric:.3f}")
    print(f"MOCHA + CMFL  : Phi={cmfl.final.accumulated_rounds:>5}  "
          f"final accuracy={cmfl.final.test_metric:.3f}\n")

    skips = np.asarray(trainer.ledger.elimination_counts(len(tasks)))
    outliers = np.asarray([t.is_outlier for t in tasks])
    print("Eliminated updates per client (paper Fig. 6):")
    print(f"  outlier clients : {skips[outliers].mean():5.1f} of 30 rounds")
    print(f"  clean clients   : {skips[~outliers].mean():5.1f} of 30 rounds")
    share = skips[outliers].sum() / max(skips.sum(), 1)
    print(f"  share of all eliminations owned by outliers: {share:.0%}")


if __name__ == "__main__":
    main()

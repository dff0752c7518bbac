"""Quickstart: federated digit recognition with and without CMFL.

Builds a small non-IID federation (every client holds only two digit
classes), trains it once with vanilla federated learning and once with
CMFL's relevance filtering, and prints the communication ledger --
the accumulated communication rounds Phi the paper minimises.

Run:  python examples/quickstart.py        (~1 minute)
"""

import numpy as np

from repro import CMFLPolicy, FLConfig, FederatedTrainer, VanillaPolicy
from repro.core.thresholds import ConstantThreshold
from repro.data import label_shard_partition, make_digit_dataset
from repro.fl import FLClient, ModelWorkspace
from repro.models import make_digits_cnn
from repro.nn import SGD, SoftmaxCrossEntropy, accuracy
from repro.nn.schedules import InverseSqrtLR
from repro.utils.rng import child_rngs
from repro.utils.tables import format_table

N_CLIENTS = 12
ROUNDS = 15


def build_trainer(policy, seed=7):
    """A fresh federation (same data and initial model for any policy)."""
    rngs = child_rngs(seed, N_CLIENTS + 4)
    train = make_digit_dataset(N_CLIENTS * 40, rng=rngs[0], image_size=20)
    test = make_digit_dataset(200, rng=rngs[1], image_size=20)

    # The paper's non-IID split: sort by label, one shard per client.
    partition = label_shard_partition(
        train.y, N_CLIENTS, shards_per_client=2, rng=rngs[2]
    )
    model = make_digits_cnn(image_size=20, channels=(4, 8), hidden=32,
                            rng=rngs[3])
    workspace = ModelWorkspace(
        model, SoftmaxCrossEntropy(), SGD(model.parameters(), 0.12),
        metric=accuracy,
    )
    clients = [
        FLClient(i, shard, rng=rngs[4 + i])
        for i, shard in enumerate(train.split(partition))
    ]
    config = FLConfig(
        rounds=ROUNDS, local_epochs=2, batch_size=5,
        lr=InverseSqrtLR(0.12), eval_every=3,
    )
    return FederatedTrainer(
        workspace, clients, policy, config,
        eval_fn=lambda w: w.evaluate(test.x, test.y),
    )


def main():
    print(f"Federation: {N_CLIENTS} clients, {ROUNDS} rounds\n")
    curves = {}
    for name, policy in (
        ("vanilla", VanillaPolicy()),
        ("cmfl", CMFLPolicy(ConstantThreshold(0.55))),
    ):
        history = build_trainer(policy).run()
        accs = [r.test_metric for r in history if r.test_metric is not None]
        uploads = np.mean([r.n_uploaded for r in history])
        _, comm, acc = history.evaluated_points()
        curves[name] = (comm, acc)
        print(f"== {name}")
        print(f"   accumulated communication rounds (Phi): "
              f"{history.final.accumulated_rounds}")
        print(f"   mean uploads per round: {uploads:.1f} / {N_CLIENTS}")
        print(f"   final test accuracy: {accs[-1]:.3f}\n")

    # The Fig. 4 view: accuracy against accumulated communication rounds.
    for name, (comm, acc) in curves.items():
        print(format_table(
            ["accumulated comm rounds (Phi)", "test accuracy"],
            zip(comm.tolist(), acc.tolist()),
            title=f"{name}: accuracy against communication",
        ) + "\n")


if __name__ == "__main__":
    main()

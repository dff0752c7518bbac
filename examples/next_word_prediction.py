"""Next-word prediction across speaking roles (the paper's Gboard story).

Each client is one "speaking role" with its own topical vocabulary --
the extreme non-IID regime where the paper reports its biggest saving
(13.97x).  This example trains the 2-layer LSTM federation with CMFL
and shows the per-round relevance scores that drive upload decisions.

Run:  python examples/next_word_prediction.py        (~2 minutes)
"""

import numpy as np

from repro import CMFLPolicy, FLConfig, FederatedTrainer
from repro.core.thresholds import LinearDecayThreshold
from repro.data import make_dialogue_corpus
from repro.data.partition import group_partition
from repro.fl import FLClient, ModelWorkspace
from repro.models import make_nwp_lstm
from repro.nn import SGD, SoftmaxCrossEntropy, accuracy
from repro.nn.schedules import InverseSqrtLR
from repro.utils.rng import child_rngs

ROUNDS = 12


def main():
    rngs = child_rngs(11, 12)
    corpus = make_dialogue_corpus(
        n_roles=8, words_per_role=150, n_topics=6, words_per_topic=25,
        rng=rngs[0],
    )
    print(f"Corpus: {corpus.n_roles} roles, vocabulary {len(corpus.vocab)}, "
          f"{len(corpus.sequences)} ten-word windows")

    full = corpus.as_dataset()
    parts = group_partition(corpus.roles)
    model = make_nwp_lstm(len(corpus.vocab), embedding_dim=16, hidden=32,
                          rng=rngs[1])
    workspace = ModelWorkspace(
        model, SoftmaxCrossEntropy(), SGD(model.parameters(), 2.0),
        metric=accuracy,
    )
    clients = [FLClient(i, shard, rng=rngs[2 + i])
               for i, shard in enumerate(full.split(parts))]
    config = FLConfig(rounds=ROUNDS, local_epochs=3, batch_size=8,
                      lr=InverseSqrtLR(2.0), eval_every=3)
    trainer = FederatedTrainer(
        workspace, clients,
        CMFLPolicy(LinearDecayThreshold(0.54, 0.48, ROUNDS)),
        config,
        eval_fn=lambda w: w.evaluate(full.x, full.y),
    )

    scores = []
    trainer.on_decision = lambda res, dec: scores.append(dec.score)
    print(f"\n{'round':>5} {'uploads':>8} {'Phi':>6} {'relevance':>18} "
          f"{'accuracy':>9}")
    for t in range(1, ROUNDS + 1):
        record = trainer.run_round(t)
        round_scores = scores[-len(clients):]
        acc = "" if record.test_metric is None else f"{record.test_metric:.3f}"
        print(f"{t:>5} {record.n_uploaded:>8} "
              f"{record.accumulated_rounds:>6} "
              f"{np.mean(round_scores):>8.3f} (thr {record.threshold:.3f}) "
              f"{acc:>9}")

    print(f"\nTotal uploads: {trainer.ledger.accumulated_rounds} "
          f"of {ROUNDS * len(clients)} possible "
          f"({trainer.ledger.total_megabytes():.2f} MB upstream)")


if __name__ == "__main__":
    main()

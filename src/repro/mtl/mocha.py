"""The federated multi-task trainer (MOCHA-style) with the CMFL hook.

MOCHA trains separate-but-related per-client models.  We realise the
same structure with the standard shared-base decomposition of federated
MTL: task k's model is ``w_k = b + v_k`` where the *base* ``b`` is the
globally aggregated component (the "global matrix" CMFL's extension
reasons about) and the *offset* ``v_k`` is private to the client and
never communicated.  One synchronous round:

1. the server broadcasts the base b and the previous aggregate base
   update (the CMFL feedback);
2. client k refreshes its private offset against the new base, then
   runs E local epochs of minibatch SGD on its logistic loss from
   ``b + v_k``;
3. the upload policy judges the client's local drift u_k against the
   federation's previous tendency (paper Sec. IV-B "Extensions");
4. the server moves the base by the mean of the uploaded drifts.

Outlier clients (anti-aligned tasks) produce drifts that point against
the federation: uploading them pollutes the shared base for everyone,
which is exactly why filtering them both saves communication *and*
improves mean accuracy (the paper's Fig. 5/6 finding).  MOCHA's task
relationship matrix has no counterpart: the offsets are what keep the
tasks apart, and every client judges its drift against the one shared
tendency.

Accuracy is the average per-task test accuracy of ``b + v_k``,
matching the paper's Fig. 5 y-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.policy import PolicyContext, UploadPolicy
from repro.data.har import TaskData
from repro.fl.accounting import CommunicationLedger
from repro.fl.history import RoundRecord, RunHistory
from repro.nn.activations import sigmoid
from repro.utils.rng import RngLike, child_rngs

__all__ = ["MTLConfig", "MochaTrainer", "PERSONAL_RETENTION"]

#: The fraction of a task's residual from the shared base kept as its
#: private offset each round (0 would make every task use the base
#: alone; 1 would keep the full residual).
PERSONAL_RETENTION = 0.5


@dataclass
class MTLConfig:
    """Hyper-parameters of a federated MTL run (paper Sec. V-B setup)."""

    rounds: int = 100
    local_epochs: int = 10
    batch_size: int = 3
    lr: float = 1e-4
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("rounds, local_epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


def _logistic_gradient(w: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean gradient of the logistic loss for one minibatch.

    ``w`` carries a trailing bias entry; the bias column is appended to
    ``x`` here.
    """
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    logits = xb @ w
    residual = sigmoid(logits) - y
    return xb.T @ residual / x.shape[0]


class MochaTrainer:
    """Runs federated multi-task learning under an upload policy."""

    def __init__(
        self,
        tasks: Sequence[TaskData],
        policy: UploadPolicy,
        config: MTLConfig,
        rng: RngLike = None,
    ) -> None:
        if not tasks:
            raise ValueError("need at least one task")
        self.tasks = list(tasks)
        self.policy = policy
        self.config = config
        n_features = tasks[0].train.x.shape[1]
        for t in self.tasks:
            if t.train.x.shape[1] != n_features:
                raise ValueError("all tasks must share the feature dimension")
        self.n_tasks = len(self.tasks)
        dim = n_features + 1  # +1 bias
        self.base = np.zeros(dim)
        self.offsets = np.zeros((dim, self.n_tasks))
        self._last_local = np.zeros((dim, self.n_tasks))
        self._have_locals = False
        # The CMFL feedback: the previous round's aggregate base update.
        self._prev_base_update = np.zeros(dim)
        self._rngs = child_rngs(config.seed if rng is None else rng, self.n_tasks)
        self.ledger = CommunicationLedger(n_params=dim)
        self.history = RunHistory(policy_name=policy.name)

    # ------------------------------------------------------------------
    # per-client pieces
    # ------------------------------------------------------------------
    def task_weights(self, task_idx: int) -> np.ndarray:
        """The effective model of task ``task_idx``: base + private offset."""
        return self.base + self.offsets[:, task_idx]

    def _refresh_offset(self, task_idx: int) -> None:
        """Keep a retained fraction of the task's residual from the base."""
        if not self._have_locals:
            return
        residual = self._last_local[:, task_idx] - self.base
        self.offsets[:, task_idx] = PERSONAL_RETENTION * residual

    def _local_update(self, task_idx: int) -> np.ndarray:
        """E epochs of minibatch SGD from ``b + v_k``; returns the drift."""
        cfg = self.config
        task = self.tasks[task_idx]
        start = self.task_weights(task_idx)
        w = start.copy()
        for _ in range(cfg.local_epochs):
            for xb, yb in task.train.batches(cfg.batch_size, rng=self._rngs[task_idx]):
                w -= cfg.lr * _logistic_gradient(w, xb, yb.astype(float))
        self._last_local[:, task_idx] = w
        return w - start

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Average per-task test accuracy of ``b + v_k``."""
        accs = []
        for k, task in enumerate(self.tasks):
            xb = np.hstack([task.test.x, np.ones((len(task.test), 1))])
            pred = (xb @ self.task_weights(k) > 0).astype(int)
            accs.append(float(np.mean(pred == task.test.y)))
        return float(np.mean(accs))

    # ------------------------------------------------------------------
    # the synchronous round
    # ------------------------------------------------------------------
    def run_round(self, t: int) -> RoundRecord:
        uploads: List[int] = []
        skipped: List[int] = []
        scores: List[float] = []
        threshold = 0.0
        pending: List[tuple] = []
        for k in range(self.n_tasks):
            self._refresh_offset(k)
            update = self._local_update(k)
            ctx = PolicyContext(
                iteration=t,
                global_params=self.task_weights(k),
                global_update_estimate=self._prev_base_update,
                client_id=k,
            )
            decision = self.policy.decide(update, ctx)
            scores.append(decision.score)
            threshold = decision.threshold
            if decision.upload:
                pending.append((k, update))
                uploads.append(k)
            else:
                skipped.append(k)
        self._have_locals = True

        if pending:
            base_update = np.mean([u for _, u in pending], axis=0)
            self.base += base_update
            self._prev_base_update = base_update

        self.ledger.record_round(uploads, skipped)
        record = RoundRecord(
            iteration=t,
            n_clients=self.n_tasks,
            n_uploaded=len(uploads),
            accumulated_rounds=self.ledger.accumulated_rounds,
            total_bytes=self.ledger.total_bytes,
            lr=self.config.lr,
            mean_train_loss=float("nan"),
            mean_score=float(np.mean(scores)),
            threshold=threshold,
            uploaded_ids=uploads,
        )
        if t % self.config.eval_every == 0:
            record.test_metric = self.evaluate()
        self.history.append(record)
        return record

    def run(self, rounds: Optional[int] = None) -> RunHistory:
        total = self.config.rounds if rounds is None else rounds
        if total < 1:
            raise ValueError("rounds must be >= 1")
        start = len(self.history) + 1
        for t in range(start, start + total):
            self.run_round(t)
        return self.history

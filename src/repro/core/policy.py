"""Client-side upload policies.

A policy decides, for each freshly computed local update, whether it is
worth uploading.  CMFL's policy implements Algorithm 1's CheckRelevance
(semantically: upload iff e(u, u_bar) >= v_t -- the paper's pseudo-code
has the comparison inverted relative to its own prose).  Vanilla FL and
Gaia live in :mod:`repro.baselines` behind the same interface — the one
upload-rule type both the synchronous trainer and the async engine call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from repro.core.relevance import relevance
from repro.core.thresholds import ThresholdSchedule

__all__ = ["CMFLPolicy", "PolicyContext", "UploadDecision", "UploadPolicy"]


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may consult when judging an update.

    ``iteration`` is the 1-based federated round; ``global_params`` the
    model the update was computed against; ``global_update_estimate``
    the feedback u_bar_{t-1} the server broadcast with it.

    The trainer builds one context per round and derives the per-client
    views with :meth:`for_client`; all views share ``_round_cache``, so
    round-constant derived quantities (the feedback sign vector and
    whether it has any non-zero component) are computed once per round
    instead of once per client.
    """

    iteration: int
    global_params: np.ndarray
    global_update_estimate: np.ndarray
    client_id: int = -1
    _round_cache: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _feedback(self) -> Tuple[np.ndarray, bool]:
        cached = self._round_cache.get("feedback")
        if cached is None:
            sign = np.sign(
                np.asarray(self.global_update_estimate, dtype=float).reshape(-1)
            )
            cached = self._round_cache["feedback"] = (sign, bool(np.any(sign)))
        return cached

    @property
    def feedback_sign(self) -> np.ndarray:
        """``np.sign(global_update_estimate)``, flat, cached for the round."""
        return self._feedback()[0]

    @property
    def has_feedback(self) -> bool:
        """Whether any feedback component is non-zero, cached for the round."""
        return self._feedback()[1]

    def for_client(self, client_id: int) -> "PolicyContext":
        """A view of this round's context for one client (shared cache)."""
        return PolicyContext(
            self.iteration, self.global_params, self.global_update_estimate,
            client_id, self._round_cache,
        )


@dataclass(frozen=True)
class UploadDecision:
    """Outcome of a policy check.

    ``score`` is the policy's raw measure (relevance for CMFL,
    significance for Gaia, 1.0 for vanilla) and ``threshold`` the value
    it was compared against; both are recorded by the trainer for the
    Fig. 2 measurement experiments.
    """

    upload: bool
    score: float
    threshold: float


class UploadPolicy:
    """Interface: judge one local update in one round.

    The shipped policies (CMFL, vanilla, Gaia) are stateless — their
    thresholds are pure functions of the iteration — so the default
    :meth:`state_dict` is empty and a checkpoint restores them by
    reconstructing with the same constructor arguments.  A stateful
    policy overrides both methods.
    """

    name = "policy"

    def decide(self, update: np.ndarray, ctx: PolicyContext) -> UploadDecision:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, Any]:
        """Mutable policy state for checkpoints (empty when stateless)."""
        return {}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (stateless default)."""
        if state:
            raise ValueError(
                f"policy {self.name!r} is stateless, but the snapshot "
                f"carries state: {sorted(state)}"
            )


class CMFLPolicy(UploadPolicy):
    """CMFL relevance filtering (the paper's Algorithm 1).

    An update is uploaded iff its sign-alignment relevance against the
    broadcast feedback reaches the scheduled threshold v_t.  Before any
    feedback exists (u_bar = 0) relevance is defined as 1.0, so the
    first round uploads everything.
    """

    name = "cmfl"

    def __init__(self, threshold: ThresholdSchedule) -> None:
        self.threshold = threshold  # ckpt: transient — schedule rebuilt from config

    def decide(self, update: np.ndarray, ctx: PolicyContext) -> UploadDecision:
        score = relevance(
            update,
            ctx.global_update_estimate,
            u_bar_sign=ctx.feedback_sign,
            has_feedback=ctx.has_feedback,
        )
        v_t = min(1.0, self.threshold(ctx.iteration))
        return UploadDecision(upload=score >= v_t, score=score, threshold=v_t)

    def __repr__(self) -> str:
        return f"CMFLPolicy(threshold={self.threshold!r})"

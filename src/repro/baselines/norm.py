"""Event-triggered magnitude band (ET-SAGA style, arXiv:2402.18018)."""

from __future__ import annotations

import numpy as np

from repro.core.policy import PolicyContext, UploadDecision, UploadPolicy

__all__ = ["NormPolicy"]


class NormPolicy(UploadPolicy):
    """Upload iff the update's l2 norm clears a decaying band.

    Ship when ``||u||_2 >= scale / (1 + t) ** decay``: early rounds
    (large updates) pass easily, and as training converges only the
    still-informative large deltas clear the shrinking band.  The band
    is a pure function of the iteration — the stateless analogue of the
    ET-SAGA "change since last communication" test, chosen so the
    decision needs no per-client memory.
    """

    name = "norm"

    def __init__(self, scale: float = 1.0, decay: float = 0.5) -> None:
        if scale <= 0.0:
            raise ValueError(f"scale must be > 0, got {scale}")
        if decay < 0.0:
            raise ValueError(f"decay must be >= 0, got {decay}")
        self.scale = float(scale)  # ckpt: transient — constructor constant
        self.decay = float(decay)  # ckpt: transient — constructor constant

    def decide(self, update: np.ndarray, ctx: PolicyContext) -> UploadDecision:
        u = np.asarray(update, dtype=float).reshape(-1)
        score = float(np.linalg.norm(u))
        v_t = self.scale / (1.0 + ctx.iteration) ** self.decay
        return UploadDecision(upload=score >= v_t, score=score, threshold=v_t)

    def __repr__(self) -> str:
        return f"NormPolicy(scale={self.scale}, decay={self.decay})"

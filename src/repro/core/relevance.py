"""The CMFL relevance measure (paper Eq. 9).

Given a local update ``u`` and the (estimated) global update ``u_bar``,
the relevance is the fraction of parameters whose signs agree:

    e(u, u_bar) = (1/N) * sum_j I(sgn(u_j) == sgn(u_bar_j))

The sign of a parameter determines the *direction* the model moves
along that dimension, so sign agreement measures alignment with the
collaborative optimisation trend -- irrespective of learning rate or
local dataset size (the two quantities that defeat Gaia's
magnitude-based significance).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["relevance", "relevance_per_segment", "sign_agreement_counts"]


def sign_agreement_counts(
    u: np.ndarray, u_bar: np.ndarray, u_bar_sign: Optional[np.ndarray] = None
) -> Tuple[int, int]:
    """(number of same-sign parameters, total parameters).

    ``np.sign`` maps to {-1, 0, +1}; two exact zeros count as agreeing,
    matching the indicator in Eq. (9).

    ``u_bar_sign``, when given, must be the flat float ``np.sign(u_bar)``
    computed in advance; ``u_bar`` is then not consulted.  The trainer
    scores every client of a round against the same feedback vector, so
    this fast path turns n_clients sign computations per round into one
    (see :attr:`repro.core.policy.PolicyContext.feedback_sign`).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u_bar_sign is None:
        u_bar_sign = np.sign(np.asarray(u_bar, dtype=float).reshape(-1))
    if u.shape != u_bar_sign.shape:
        raise ValueError(
            f"update shapes differ: {u.shape} vs {u_bar_sign.shape}"
        )
    if u.size == 0:
        raise ValueError("updates cannot be empty")
    agree = int(np.count_nonzero(np.sign(u) == u_bar_sign))
    return agree, int(u.size)


def relevance(
    u: np.ndarray,
    u_bar: np.ndarray,
    u_bar_sign: Optional[np.ndarray] = None,
    has_feedback: Optional[bool] = None,
) -> float:
    """e(u, u_bar) in [0, 1]; 1 means perfectly aligned with the federation.

    When the feedback ``u_bar`` is identically zero (the very first
    iteration, before any global update exists), there is no tendency to
    compare against and every update is defined to be fully relevant
    (returns 1.0), so round 1 behaves like vanilla FL.

    ``u_bar_sign`` is the optional precomputed ``np.sign(u_bar)``; a
    sign vector is zero exactly where the feedback is zero, so the
    zero-feedback rule is decided from it alone on the fast path —
    or from ``has_feedback``, the precomputed ``np.any(u_bar_sign)``,
    which like the sign is a constant of the round
    (:attr:`repro.core.policy.PolicyContext.has_feedback`).
    """
    if has_feedback is None:
        probe = np.asarray(u_bar, dtype=float) if u_bar_sign is None else u_bar_sign
        has_feedback = bool(np.any(probe))
    if not has_feedback:
        np.asarray(u, dtype=float)  # still validate the partner argument
        return 1.0
    agree, total = sign_agreement_counts(u, u_bar, u_bar_sign=u_bar_sign)
    return agree / total


def relevance_per_segment(
    u: np.ndarray, u_bar: np.ndarray, boundaries: "list[int]"
) -> np.ndarray:
    """Relevance computed independently per contiguous segment.

    ``boundaries`` are cumulative end offsets (e.g. per-layer parameter
    counts accumulated); used by the per-layer ablation benchmark.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    u_bar = np.asarray(u_bar, dtype=float).reshape(-1)
    if u.shape != u_bar.shape:
        raise ValueError("update shapes differ")
    if not boundaries or boundaries[-1] != u.size:
        raise ValueError("boundaries must end at the vector length")
    out = []
    start = 0
    for end in boundaries:
        if end <= start:
            raise ValueError("boundaries must be strictly increasing")
        out.append(relevance(u[start:end], u_bar[start:end]))
        start = end
    return np.asarray(out)

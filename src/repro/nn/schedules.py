"""Learning-rate schedules.

The paper sets eta_t = eta_0 / sqrt(t) for the vanilla-FL experiments
(Sec. V-A) and a constant eta = 1e-4 for the MOCHA experiments
(Sec. V-B); both live here.  Iteration indices are 1-based, matching
the paper's notation.
"""

from __future__ import annotations

__all__ = ["ConstantLR", "InverseSqrtLR", "LRSchedule"]


class LRSchedule:
    """Maps a 1-based iteration index to a learning rate."""

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ValueError(f"iteration index is 1-based, got {t}")
        return self.value(t)

    def value(self, t: int) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # checkpoints compare it: never an address
        fields = ", ".join(f"{k}={v!r}" for k, v in sorted(vars(self).items()))
        return f"{type(self).__name__}({fields})"


class ConstantLR(LRSchedule):
    """eta_t = eta_0."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = lr

    def value(self, t: int) -> float:
        return self.lr

    def __repr__(self) -> str:
        return f"ConstantLR({self.lr})"


class InverseSqrtLR(LRSchedule):
    """eta_t = eta_0 / sqrt(t) -- the schedule Theorem 1's remark 2 uses."""

    def __init__(self, lr0: float) -> None:
        if lr0 <= 0:
            raise ValueError(f"lr0 must be positive, got {lr0}")
        self.lr0 = lr0

    def value(self, t: int) -> float:
        return self.lr0 / (t**0.5)

    def __repr__(self) -> str:
        return f"InverseSqrtLR({self.lr0})"

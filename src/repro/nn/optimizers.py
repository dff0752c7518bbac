"""The first-order optimizer over ``Parameter`` lists."""

from __future__ import annotations

from typing import List, Optional

from repro.nn.parameter import Parameter

__all__ = ["SGD"]


class SGD:
    """Plain stochastic gradient descent.

    ``step(lr=...)`` applies one update using the accumulated gradients;
    the learning rate can be overridden per step, which is how the
    federated trainer implements the paper's eta_t = eta_0 / sqrt(t)
    schedule.  SGD holds no state beyond the parameters it steps, so a
    checkpoint's flat global vector is all a resumed run needs.
    """

    def __init__(self, parameters: List[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.parameters = list(parameters)  # ckpt: transient — bound at build; values live in the workspace
        self.lr = lr  # ckpt: transient — constructor constant

    def step(self, lr: Optional[float] = None) -> None:
        eta = self.lr if lr is None else lr
        for p in self.parameters:
            p.data -= eta * p.grad

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

"""First-order optimizers over ``Parameter`` lists."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["Momentum", "Optimizer", "SGD"]


class Optimizer:
    """Base optimizer: subclasses implement the per-parameter update rule.

    ``step(lr=...)`` applies one update using the accumulated gradients;
    the learning rate can be overridden per step, which is how the
    federated trainer implements the paper's eta_t = eta_0 / sqrt(t)
    schedule.

    ``state_dict``/``load_state_dict`` snapshot the *slot* state
    (momentum velocity) that the flat parameter vector
    does not carry — what checkpoints must persist so a resumed run
    steps identically.  The shared layout is
    ``{"type", "scalars": {...}, "slots": {name: [array per parameter,
    in parameter order]}}``; stateless optimizers have empty scalars
    and slots.
    """

    def __init__(self, parameters: List[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.parameters = list(parameters)  # ckpt: transient — bound at build; values live in the workspace
        self.lr = lr  # ckpt: transient — constructor constant

    def step(self, lr: Optional[float] = None) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable slot-state snapshot (see the class docstring)."""
        return {"type": type(self).__name__, "scalars": {}, "slots": {}}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (stateless default)."""
        self._check_state_type(state)
        if state.get("scalars") or state.get("slots"):
            raise ValueError(
                f"{type(self).__name__} carries no slot state, but the "
                "snapshot does"
            )

    def _check_state_type(self, state: Dict[str, Any]) -> None:
        expected = type(self).__name__
        if state.get("type") != expected:
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, "
                f"not {expected!r}"
            )

    def _load_slot(
        self,
        slot_name: str,
        arrays: List[np.ndarray],
        target: Dict[int, np.ndarray],
    ) -> None:
        """Copy ``arrays`` (parameter order) into an id-keyed slot dict."""
        if len(arrays) != len(self.parameters):
            raise ValueError(
                f"slot {slot_name!r} has {len(arrays)} arrays for "
                f"{len(self.parameters)} parameters"
            )
        for p, value in zip(self.parameters, arrays):
            value = np.asarray(value)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"slot {slot_name!r}: array shape {value.shape} does "
                    f"not match parameter shape {p.data.shape}"
                )
            target[id(p)][...] = value


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional weight decay."""

    def __init__(
        self, parameters: List[Parameter], lr: float, weight_decay: float = 0.0
    ) -> None:
        super().__init__(parameters, lr)
        if weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.weight_decay = weight_decay  # ckpt: transient — constructor constant

    def step(self, lr: Optional[float] = None) -> None:
        eta = self.lr if lr is None else lr
        for p in self.parameters:
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            p.data -= eta * grad


class Momentum(Optimizer):
    """SGD with classical (heavy-ball) momentum."""

    def __init__(
        self,
        parameters: List[Parameter],
        lr: float,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum  # ckpt: transient — constructor constant
        self.weight_decay = weight_decay  # ckpt: transient — constructor constant
        self._velocity: Dict[int, np.ndarray] = {
            id(p): np.zeros_like(p.data) for p in self.parameters
        }

    def step(self, lr: Optional[float] = None) -> None:
        eta = self.lr if lr is None else lr
        for p in self.parameters:
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            v = self._velocity[id(p)]
            v *= self.momentum
            v -= eta * grad
            p.data += v

    def state_dict(self) -> Dict[str, Any]:
        return {
            "type": type(self).__name__,
            "scalars": {},
            "slots": {
                "velocity": [
                    self._velocity[id(p)].copy() for p in self.parameters
                ]
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self._check_state_type(state)
        self._load_slot(
            "velocity", state["slots"]["velocity"], self._velocity
        )

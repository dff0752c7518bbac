"""Finite-difference gradient verification.

Used by the test suite to prove every layer's backward pass against a
numerical derivative of the loss.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.losses import Loss
from repro.nn.module import Module

__all__ = [
    "check_input_gradient",
    "check_module_gradients",
    "max_relative_error",
    "numerical_gradient",
]


def numerical_gradient(
    f: Callable[[], float], array: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        f_plus = f()
        array[idx] = original - eps
        f_minus = f()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_module_gradients(
    module: Module,
    loss: Loss,
    x: np.ndarray,
    targets: np.ndarray,
    eps: float = 1e-6,
) -> float:
    """Return the worst relative error across all parameters of ``module``.

    Runs one forward/backward pass to obtain analytic gradients, then
    perturbs every parameter entry with central differences.  Intended
    for tiny modules only (cost is O(parameters) forward passes).
    """
    module.zero_grad()
    out = module.forward(x, training=True)
    loss.forward(out, targets, training=True)
    module.backward(loss.backward())

    worst = 0.0
    for p in module.parameters():
        analytic = p.grad.copy()

        def f() -> float:
            return loss.forward(module.forward(x, training=False), targets)

        numeric = numerical_gradient(f, p.data, eps=eps)
        worst = max(worst, max_relative_error(analytic, numeric))
    return worst


def check_input_gradient(
    module: Module,
    loss: Loss,
    x: np.ndarray,
    targets: np.ndarray,
    eps: float = 1e-6,
) -> float:
    """Worst relative error of the gradient w.r.t. the module input."""
    module.zero_grad()
    out = module.forward(x, training=True)
    loss.forward(out, targets, training=True)
    analytic = module.backward(loss.backward())

    def f() -> float:
        return loss.forward(module.forward(x, training=False), targets)

    numeric = numerical_gradient(f, x, eps=eps)
    return max_relative_error(analytic, numeric)

"""Module base class, the ``Sequential`` container, and the
batched-leading-axis counterpart machinery.

Serial modules process one client's minibatch at a time.  The batched
executor backend (see :mod:`repro.fl.batched`) instead stacks C
same-architecture clients into a leading client axis and runs each
round step as a handful of large numpy ops.  The bridge is
:meth:`Module.batched`: given a :class:`BatchedParamBinder` it returns
a :class:`BatchedModule` whose ``forward``/``backward`` take
``(C, batch, ...)`` tensors and whose parameters/gradients are strided
views into one stacked ``(C, n_params)`` pair of flat vectors.

Each layer has one body.  A layer with a stacked twin of its own is a
:class:`TwinView`: its serial ``forward``/``backward`` run that twin
with C = 1, bound to one-row views of the layer's own parameter and
gradient arrays, so serial is the one-row case of batched by
construction.  Parameter-free elementwise and per-plane layers (ReLU,
MaxPool2D) are the other way round: their stacked twin is
:class:`BatchedStateless`, a fresh serial instance fed the stacked
tensor as is.

The contract every stacked body honours: for each client ``c``, its
slice of the outputs and gradient accumulations is **bitwise** what
the same body computes with that client alone — all reductions stay
per-client (no cross-client sums), and every kernel is chosen so numpy
performs the same per-element floating-point operation sequence
whatever the client count (stacked GEMMs loop the same BLAS call per
slice; elementwise ops are stacking-invariant; reduction axes keep the
same length and memory layout).  This is what lets the ``batched``
executor produce run histories digest-identical to serial.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter

__all__ = [
    "BatchedModule",
    "BatchedParamBinder",
    "BatchedSequential",
    "BatchedStateless",
    "Module",
    "Sequential",
    "TwinHolder",
    "TwinView",
    "claim_cache",
    "keep_cache",
]


def keep_cache(owner: Any, training: bool, out_shape: tuple, payload: Any) -> None:
    """Forward half of the activation-lifetime rule.

    A training forward keeps ``payload`` — what ``owner``'s backward
    reads — together with the shape its output had, for exactly one
    backward.  An inference forward keeps nothing and drops whatever an
    earlier forward left, so evaluation holds no activations.
    """
    owner._cache = (out_shape, payload) if training else None


def claim_cache(owner: Any, grad_shape: Optional[tuple] = None) -> Any:
    """Backward half: ``owner``'s forward payload, released (it serves
    one backward and only holds memory afterwards) once ``grad_shape``
    is the shape the forward produced.  Losses, whose backward takes no
    gradient, pass None.
    """
    name = type(owner).__name__
    if owner._cache is None:
        raise RuntimeError(f"{name}: backward called before forward")
    out_shape, payload = owner._cache
    if grad_shape is not None and grad_shape != out_shape:
        raise ValueError(
            f"{name}: expected gradient shape {out_shape}, got {grad_shape}"
        )
    owner._cache = None
    return payload


class BatchedParamBinder:
    """Allocates stacked parameter/gradient views for batched modules.

    Owns one ``(n_clients, n_params)`` float64 array pair — ``data``
    (stacked flat parameters, row ``c`` is client ``c``'s flat vector
    in :func:`repro.nn.serialization.flatten_parameters` order) and
    ``grad`` (the matching stacked gradients).  ``bind`` hands each
    parameter, **in ``Module.parameters()`` order**, a
    ``(n_clients, *param_shape)`` view into each; because rows are
    contiguous, every per-client slice of a bound view has exactly the
    memory layout of the serial parameter array, which is what keeps
    stacked GEMMs bitwise-identical per client.

    :meth:`window` gives a binder over **views** of adjacent rows of
    the same pair: a twin model built on it computes on — and writes
    to — those rows only, with no second copy of their parameters.
    """

    def __init__(self, n_clients: int, n_params: int) -> None:
        if n_clients < 1 or n_params < 0:
            # n_params == 0 is legal: a parameter-free module stack.
            raise ValueError(
                "n_clients must be positive and n_params non-negative"
            )
        self.n_clients = n_clients
        self.n_params = n_params
        self.data = np.zeros((n_clients, n_params), dtype=float)
        self.grad = np.zeros((n_clients, n_params), dtype=float)
        self._offset = 0

    def window(self, start: int, stop: int) -> "BatchedParamBinder":
        """An unbound binder over views of rows ``start:stop``."""
        if not 0 <= start < stop <= self.n_clients:
            raise ValueError(
                f"rows {start}:{stop} are not a window of {self.n_clients} clients"
            )
        window = copy.copy(self)
        window.n_clients, window._offset = stop - start, 0
        window.data, window.grad = self.data[start:stop], self.grad[start:stop]
        return window

    def bind(self, param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(data_view, grad_view)`` for ``param``; advances
        the flat-vector cursor by ``param.size``."""
        size = param.size
        if self._offset + size > self.n_params:
            raise ValueError(
                f"binder overflow: parameter {param.name!r} ({size} values) "
                f"does not fit at offset {self._offset} of {self.n_params}"
            )
        shape = (self.n_clients,) + param.data.shape
        sl = slice(self._offset, self._offset + size)
        data_view = self.data[:, sl].reshape(shape)
        grad_view = self.grad[:, sl].reshape(shape)
        # Splitting the contiguous per-row slice must stay a view; a
        # silent copy would detach the module from the stacked vectors.
        if data_view.base is None or grad_view.base is None:
            raise RuntimeError(
                f"stacked view for {param.name!r} materialised a copy"
            )
        self._offset += size
        return data_view, grad_view

    def finish(self) -> None:
        """Assert every flat slot was bound (call after building)."""
        if self._offset != self.n_params:
            raise ValueError(
                f"binder bound {self._offset} of {self.n_params} values; "
                "batched layers must bind every parameter in "
                "Module.parameters() order"
            )


class BatchedModule:
    """Base class for batched-leading-axis module counterparts.

    Mirrors the :class:`Module` contract with every tensor carrying a
    leading client axis: ``forward`` takes ``(C, batch, ...)`` and, in
    training, caches what ``backward`` needs; ``backward`` consumes that
    cache, accumulates into the stacked gradient views and returns the
    stacked input gradient.
    """

    _cache: Optional[tuple] = None  # see keep_cache

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def head_backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        """Network-head backward: same contract as
        :meth:`Module.head_backward`, one leading client axis."""
        return self.backward(grad_output)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BatchedStateless(BatchedModule):
    """Batched adapter for parameter-free, stacking-invariant modules.

    Wraps a **fresh** serial instance of a layer whose forward/backward
    already accept arbitrary leading shapes and compute each element
    (ReLU) or each trailing plane (MaxPool2D)
    independently — running it on ``(C, batch, ...)`` is
    bitwise-identical to running each client slice separately.  A
    fresh instance is required so the batched path never clobbers the
    serial workspace's forward caches.
    """

    def __init__(self, inner: Module) -> None:
        if inner.parameters():
            raise ValueError(
                f"{type(inner).__name__} has parameters; it needs a real "
                "batched counterpart, not the stateless adapter"
            )
        self._inner = inner

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._inner.forward(x, training=training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._inner.backward(grad_output)

    def __repr__(self) -> str:
        return f"BatchedStateless({type(self._inner).__name__})"


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` (caching, when ``training``,
    the activations the backward pass needs) and :meth:`backward`
    (accumulating parameter gradients, returning the input gradient).
    The cache lives for one step: :func:`keep_cache` /
    :func:`claim_cache` keep it on a training forward only and release
    it in the one backward that reads it.
    """

    _cache: Optional[tuple] = None  # see keep_cache

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module, in a stable order."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def batched(self, binder: BatchedParamBinder) -> BatchedModule:
        """Build this module's batched-leading-axis counterpart.

        Must call ``binder.bind`` once per parameter, in
        :meth:`parameters` order.  A module without one cannot run on
        the batched executor; the serial executor runs it.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched twin; "
            "the serial executor runs it"
        )

    def head_backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        """Backward pass when this module is the network head.

        The head (first) layer's *input* gradient is dead work — no
        caller of a training step consumes it — so layers whose input
        gradient is separable (the twins of Dense, Conv2D, Embedding)
        override this to accumulate parameter gradients only and
        return None.
        Parameter gradients are bitwise-unchanged, which is why the
        trainer's histories are unaffected.  The default falls back to
        the full :meth:`backward`.
        """
        return self.backward(grad_output)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:
        n = sum(p.size for p in self.parameters())
        return f"{type(self).__name__}(parameters={n})"


class TwinHolder:
    """Owner of ``_twin``, a stacked twin built on first use
    (:meth:`_build_twin`) over views of the owner's own arrays.

    The views are safe to keep because parameter arrays are only ever
    written in place, never rebound (``assign_flat_parameters``, SGD,
    ``zero_grad``), so the twin
    always computes on the current values.  A copy must not share
    them: copies and pickles drop the twin, and the forward cache that
    belongs with it, and the copy builds its own over its own arrays.
    """

    def _build_twin(self) -> Any:
        raise NotImplementedError

    def __getattr__(self, name: str) -> Any:
        # Reached only while ``_twin`` is unset: first use, or a copy.
        if name != "_twin":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        twin = self._twin = self._build_twin()
        return twin

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_twin", None)
        state.pop("_cache", None)
        return state


class _OwnRows:
    """The binder of a :class:`TwinView`'s twin: each parameter bound
    to one-row views of its own data and gradient arrays."""

    @staticmethod
    def bind(param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        return param.data[None], param.grad[None]


class TwinView(TwinHolder, Module):
    """A layer whose one body is its stacked twin (:meth:`batched`).

    ``forward`` / ``backward`` / ``head_backward`` run the twin on
    ``x[None]`` / ``grad_output[None]`` and return row 0.  The layer
    keeps only its output shape in its own cache, so a mis-shaped
    gradient is refused naming the layer and its serial shapes; what
    backward reads lives in the twin's cache.  Subclasses define their
    parameters and :meth:`batched`, nothing else.
    """

    _twin: BatchedModule

    def _build_twin(self) -> BatchedModule:
        # Through the class: ``self.batched`` may be wrapped on the
        # instance to see every stacked model handed out, and this twin
        # is the layer's own body, not another model.
        return type(self).batched(self, _OwnRows)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = self._twin.forward(x[None], training=training)[0]
        keep_cache(self, training, out.shape, None)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        claim_cache(self, grad_output.shape)
        return self._twin.backward(grad_output[None])[0]

    def head_backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        claim_cache(self, grad_output.shape)
        grad = self._twin.head_backward(grad_output[None])
        return None if grad is None else grad[0]


class Sequential(Module):
    """Feed-forward composition of layers.

    ``forward`` threads the input through each layer in order and
    ``backward`` runs the chain rule in reverse.
    """

    def __init__(self, layers: Iterable[Module]) -> None:
        self.layers: List[Module] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def head_backward(self, grad_output: np.ndarray) -> Optional[np.ndarray]:
        grad = grad_output
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return self.layers[0].head_backward(grad)

    def batched(self, binder: BatchedParamBinder) -> "BatchedSequential":
        return BatchedSequential(
            [layer.batched(binder) for layer in self.layers]
        )

    def __repr__(self) -> str:
        inner = ", ".join(type(l).__name__ for l in self.layers)
        return f"Sequential([{inner}])"


class BatchedSequential(BatchedModule):
    """Batched counterpart of :class:`Sequential`: the same chain rule,
    one leading client axis on every tensor."""

    def __init__(self, layers: Iterable[BatchedModule]) -> None:
        self.layers: List[BatchedModule] = list(layers)
        if not self.layers:
            raise ValueError("BatchedSequential requires at least one layer")

    forward = Sequential.forward
    backward = Sequential.backward
    head_backward = Sequential.head_backward

    def __repr__(self) -> str:
        inner = ", ".join(type(l).__name__ for l in self.layers)
        return f"BatchedSequential([{inner}])"

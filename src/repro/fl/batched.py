"""Stacked-client compute engine behind the ``batched`` executor backend.

A federated round's compute half is embarrassingly parallel across
clients, but running it one client at a time spends most of each step
in numpy dispatch on small operands.  :class:`BatchedWorkspace` stacks
C clients into one leading client axis — stacked flat parameters
``(C, n_params)``, one ``(C, batch, ...)`` minibatch tensor per step —
so a round runs as a handful of large kernels (stacked GEMMs, batched
im2col/einsum) instead of ``C`` small ones.  Unequal shards share the
stack: a step only rows ``a:b`` have runs on a *window* of it (the
schedule is :class:`~repro.fl.executor.BatchedExecutor`'s).

Determinism contract (what keeps history digests bitwise-identical to
the serial backend):

* every reduction stays **per client** — losses are ``(C,)`` vectors,
  gradient sums reduce over batch/spatial axes only, and nothing is
  summed across the client axis before each client's flat update has
  been extracted from its own row;
* every stacked kernel is chosen so each per-client slice sees the
  serial operand shapes and strides, making numpy perform the same
  per-element floating-point operation sequence (see
  :mod:`repro.nn.module` for the layer-level contract) — which is why
  unequal minibatches are never padded and masked;
* per-client minibatch order is driven by each client's own RNG stream
  (:meth:`repro.fl.client.FLClient.epoch_order`), drawn exactly as
  ``Dataset.batches`` would draw it serially.

Anything without a batched path — an exotic layer, a custom loss, a
stateful optimizer — raises
:class:`~repro.nn.module.BatchedUnsupported` at construction, which the
executor treats as "use the per-client fallback".

Observability caveat: clients on one stack run in lockstep, so the
executor can only split the stack's wall over them — in proportion to
their sample-steps (``E x n_k``).  Per-client compute quantiles
therefore follow the shard sizes (flat when they are equal) and a
``runtime.health.straggler`` finding on this backend means "more data",
never "slow device" — real timing variance needs the serial backend.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.fl.workspace import ModelWorkspace
from repro.nn.losses import BatchedLoss
from repro.nn.module import BatchedModule, BatchedParamBinder, BatchedUnsupported
from repro.nn.optimizers import SGD

__all__ = ["BatchedWorkspace"]


class BatchedWorkspace:
    """C clients as one stack of large numpy ops.

    Built from the trainer's (serial) workspace: the model's batched
    counterpart reads and writes strided views into one
    ``(C, n_params)`` parameter/gradient pair, the loss returns a
    ``(C,)`` per-client vector, and the optimizer step is the fused
    elementwise SGD update applied to the whole stack at once.  Only
    plain :class:`~repro.nn.optimizers.SGD` has that fused form;
    stateful optimizers (Momentum) raise
    :class:`~repro.nn.module.BatchedUnsupported` so cohorts fall back
    to the per-client path.

    A step can also run on a *window*, a second twin model bound to
    **views** of rows ``a:b`` of the same pair (no copy of anybody's
    parameters); windows are built on first use and dropped by
    :meth:`extract_updates`, when the round's ragged tail is over.
    """

    def __init__(self, workspace: ModelWorkspace, n_clients: int) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be positive")
        optimizer = workspace.optimizer
        if type(optimizer) is not SGD:
            raise BatchedUnsupported(
                f"{type(optimizer).__name__} has no fused stacked step; "
                "only plain SGD runs batched"
            )
        self.n_clients = n_clients
        self.n_params = workspace.n_params
        self._workspace = workspace
        self._weight_decay = optimizer.weight_decay
        self._binder = BatchedParamBinder(n_clients, workspace.n_params)
        #: ``(binder, twin model, twin loss)`` by row window; ``None``
        #: is the whole stack.
        self._bound: Dict[Optional[Tuple[int, int]], tuple] = {
            None: self._bind(self._binder)
        }

    def _bind(
        self, binder: BatchedParamBinder
    ) -> Tuple[BatchedParamBinder, BatchedModule, BatchedLoss]:
        model = self._workspace.model.batched(binder)
        binder.finish()
        return binder, model, self._workspace.loss.batched()

    @property
    def params(self) -> np.ndarray:
        """The stacked ``(C, n_params)`` parameter matrix (row = client)."""
        return self._binder.data

    def load_global(self, global_params: np.ndarray) -> None:
        """Broadcast x_{t-1} into every client row.

        The broadcast vector itself is treated as read-only, exactly as
        ``compute_update`` treats its ``global_params`` argument.
        """
        flat = np.asarray(global_params, dtype=np.float64).reshape(-1)
        if flat.size != self.n_params:
            raise ValueError(
                f"global vector has {flat.size} values, model has "
                f"{self.n_params}"
            )
        self._binder.data[...] = flat[None, :]

    def train_step_all(
        self,
        x: np.ndarray,
        y: np.ndarray,
        lr: float,
        rows: Optional[Tuple[int, int]] = None,
    ) -> np.ndarray:
        """One stacked SGD step; returns the per-client losses.

        Mirrors ``ModelWorkspace.train_step`` slice by slice: zero the
        gradients, forward, loss, backward, SGD update — with every
        reduction kept inside its client row.  The fused update
        ``params -= lr * grads`` is elementwise, hence bitwise equal to
        the serial per-parameter loop.  ``rows=(a, b)`` steps only
        rows ``a:b`` (``x`` and ``y`` carry ``b - a`` clients); no
        other row is read or written.
        """
        if rows == (0, self.n_clients):
            rows = None  # the whole stack is not a second twin
        bound = self._bound.get(rows)
        if bound is None:
            bound = self._bound[rows] = self._bind(self._binder.window(*rows))
        binder, model, loss = bound
        binder.grad[...] = 0.0
        out = model.forward(x, training=True)
        loss_values = loss.forward(out, y, training=True)
        model.head_backward(loss.backward())
        # In place on the gradient rows (the next step zeroes them):
        # no stack-sized temporary, same ``lr * (grad + wd * param)``.
        grads = binder.grad
        if self._weight_decay:
            grads += self._weight_decay * binder.data
        grads *= lr
        binder.data -= grads
        return loss_values

    def extract_updates(self, global_params: np.ndarray) -> np.ndarray:
        """Per-client flat updates ``x_local_final - x_{t-1}``, stacked.

        This is the first point where client results leave the stack —
        and they leave one row at a time; nothing is ever summed across
        the client axis inside the engine.
        """
        self._bound = {None: self._bound[None]}
        updates = self._binder.data.copy()
        flat = np.asarray(global_params, dtype=np.float64).reshape(-1)
        updates -= flat[None, :]
        return updates

    def __repr__(self) -> str:
        return (
            f"BatchedWorkspace(n_clients={self.n_clients}, "
            f"n_params={self.n_params})"
        )

"""Stacked-client compute engine behind the ``batched`` executor backend.

A federated round's compute half is embarrassingly parallel across
clients, but running it one client at a time spends most of each step
in numpy dispatch on small operands.  :class:`BatchedWorkspace` stacks
C same-schedule clients into one leading client axis — stacked flat
parameters ``(C, n_params)``, one ``(C, batch, ...)`` minibatch tensor
per step — so a cohort's round runs as a handful of large kernels
(stacked GEMMs, batched im2col/einsum) instead of ``C`` small ones.

Determinism contract (what keeps history digests bitwise-identical to
the serial backend):

* every reduction stays **per client** — losses are ``(C,)`` vectors,
  gradient sums reduce over batch/spatial axes only, and nothing is
  summed across the client axis before each client's flat update has
  been extracted from its own row;
* every stacked kernel is chosen so each per-client slice sees the
  serial operand shapes and strides, making numpy perform the same
  per-element floating-point operation sequence (see
  :mod:`repro.nn.module` for the layer-level contract);
* per-client minibatch order is driven by each client's own RNG stream
  (:meth:`repro.fl.client.FLClient.epoch_order`), drawn exactly as
  ``Dataset.batches`` would draw it serially.

Anything without a batched path — an exotic layer, a custom loss, a
stateful optimizer — raises
:class:`~repro.nn.module.BatchedUnsupported` at construction, which the
executor treats as "use the per-client fallback".

Observability caveat: a cohort's kernel time is attributed *evenly*
across its members when the executor replays ``client_compute`` spans
and feeds the round rollup, so per-client compute quantiles are flat
within a cohort and ``runtime.health.straggler`` findings can only
surface *between* cohorts (or from fallback singletons) on this
backend — real per-client timing variance needs the serial backend.
"""

from __future__ import annotations

import numpy as np

from repro.fl.workspace import ModelWorkspace
from repro.nn.losses import BatchedLoss
from repro.nn.module import BatchedModule, BatchedParamBinder, BatchedUnsupported
from repro.nn.optimizers import SGD

__all__ = ["BatchedWorkspace"]


class BatchedWorkspace:
    """C same-schedule clients as one stack of large numpy ops.

    Built from the trainer's (serial) workspace: the model's batched
    counterpart reads and writes strided views into one
    ``(C, n_params)`` parameter/gradient pair, the loss returns a
    ``(C,)`` per-client vector, and the optimizer step is the fused
    elementwise SGD update applied to the whole stack at once.  Only
    plain :class:`~repro.nn.optimizers.SGD` has that fused form;
    stateful optimizers (Momentum, Adam) raise
    :class:`~repro.nn.module.BatchedUnsupported` so cohorts fall back
    to the per-client path.
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
        self._binder = BatchedParamBinder(n_clients, workspace.n_params)
        self._model: BatchedModule = workspace.model.batched(self._binder)
        self._binder.finish()
        self._loss: BatchedLoss = workspace.loss.batched()
        self._weight_decay = optimizer.weight_decay

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
        self, x: np.ndarray, y: np.ndarray, lr: float
    ) -> np.ndarray:
        """One stacked SGD step; returns the ``(C,)`` per-client losses.

        Mirrors ``ModelWorkspace.train_step`` slice by slice: zero the
        gradients, forward, loss, backward, SGD update — with every
        reduction kept inside its client row.  The fused update
        ``params -= lr * grads`` is elementwise, hence bitwise equal to
        the serial per-parameter loop.
        """
        self._binder.grad[...] = 0.0
        out = self._model.forward(x, training=True)
        loss_values = self._loss.forward(out, y)
        self._model.head_backward(self._loss.backward())
        grads = self._binder.grad
        if self._weight_decay:
            grads = grads + self._weight_decay * self._binder.data
        self._binder.data -= lr * grads
        return loss_values

    def extract_updates(self, global_params: np.ndarray) -> np.ndarray:
        """Per-client flat updates ``x_local_final - x_{t-1}``, stacked.

        This is the first point where client results leave the stack —
        and they leave one row at a time; nothing is ever summed across
        the client axis inside the engine.
        """
        updates = self._binder.data.copy()
        flat = np.asarray(global_params, dtype=np.float64).reshape(-1)
        updates -= flat[None, :]
        return updates

    def __repr__(self) -> str:
        return (
            f"BatchedWorkspace(n_clients={self.n_clients}, "
            f"n_params={self.n_params})"
        )

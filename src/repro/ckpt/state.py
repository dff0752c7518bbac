"""Capturing and restoring a federated run's complete state.

:func:`capture_run_state` walks a :class:`~repro.fl.trainer.
FederatedTrainer` and produces the (manifest, arrays, texts) triple the
container format persists; :func:`apply_run_state` pushes a read
checkpoint back into a freshly constructed trainer.  Between them they
cover everything round ``t+1`` depends on:

* the global model parameters (SGD carries no other model state);
* the CMFL feedback state (the estimator's retained update history,
  which determines u_bar and the threshold context) and any mutable
  policy state;
* every client's RNG stream position plus the sampler's RNG — for a
  store-backed federation, the materialized shard arrays of the
  :class:`~repro.fl.store.ClientStateStore` instead (rows already hold
  the encoded stream positions);
* the communication ledger (its per-client tables and
  ``rounds_per_iteration`` as ``ledger/<name>`` int64 array members —
  the manifest keeps only their lengths) and the full
  :class:`RunHistory`;
* the tracer continuation snapshot (sequence/id counters and open
  spans), so a resumed trace extends the original stream.

The restore side validates shape/identity invariants (parameter count,
policy name, client-id set, feedback staleness, and the run settings
that change what later rounds compute) and
wraps any structural mismatch in :class:`CheckpointError` so a
checkpoint applied against the wrong federation fails loudly.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Tuple

import numpy as np

from repro.ckpt.format import ArrayMember, CheckpointError, Checkpoint
from repro.fl.history import RunHistory
from repro.obs import JsonlSink, MemorySink, Tracer
from repro.obs.sinks import truncate_trace

__all__ = [
    "HISTORY_MEMBER",
    "apply_run_state",
    "build_resume_tracer",
    "capture_run_state",
]

#: Container member holding the serialised RunHistory.
HISTORY_MEMBER = "history.jsonl"


def capture_run_state(
    trainer: Any,
) -> Tuple[Dict[str, Any], Dict[str, ArrayMember], Dict[str, str]]:
    """Snapshot ``trainer`` into (manifest, arrays, texts).

    Must be called at a round boundary (between ``run_round`` calls):
    that is the only point where the scattered state — server params,
    RNG streams, ledger — is mutually consistent.
    """
    server = trainer.server
    estimator = server.estimator

    arrays: Dict[str, ArrayMember] = {"global_params": server.global_params}
    feedback_state = estimator.state_dict()
    for i, update in enumerate(feedback_state["history"]):
        arrays[f"feedback/{i}"] = update
    arrays["feedback_deltas"] = np.asarray(
        feedback_state["delta_updates"], dtype=float
    )
    ledger_entry = _split_ledger(trainer.ledger.state_dict(), arrays)

    manifest: Dict[str, Any] = {
        "iteration": len(trainer.history),
        "n_params": server.n_params,
        "policy": {
            "name": trainer.policy.name,
            "state": trainer.policy.state_dict(),
        },
        "server": {
            "feedback_staleness": estimator.staleness,
            "n_feedback": len(feedback_state["history"]),
        },
        "rng": {
            "clients": {
                str(client.client_id): client.rng_state()
                for client in trainer.clients
            },
            "sampler": trainer.sampler.state_dict(),
        },
        "ledger": ledger_entry,
        "trace": (
            trainer.tracer.export_state() if trainer.tracer.enabled else None
        ),
        "executor": {"backend": trainer.executor.name},
        "run": _run_settings(trainer.config),
    }
    # Store-backed federations: the population lives in shard arrays,
    # not client objects, so ``rng.clients`` above is empty and the
    # shard state rides along as whole-store ``store/<column>`` members,
    # handed over as the shards' own row blocks: the writer streams
    # them, so a save never concatenates the store.
    # The store refuses to snapshot while round views are outstanding,
    # which re-asserts the round-boundary contract for this mode.
    if trainer.store is not None:
        manifest["store"] = trainer.store.manifest()
        for key, value in trainer.store.state_arrays().items():
            arrays[f"store/{key}"] = value

    # A trainer driven by the async engine (repro.fl.events) carries
    # its timeline — virtual clock, event queue, in-flight rounds'
    # computed results — under ``manifest["async"]`` / ``async/*``
    # arrays; AsyncFederatedTrainer.restore reads them back.
    engine = getattr(trainer, "async_engine", None)
    if engine is not None:
        async_manifest, async_arrays = engine.export_state()
        manifest["async"] = async_manifest
        arrays.update(async_arrays)

    texts = {HISTORY_MEMBER: trainer.history.to_jsonl()}
    return manifest, arrays, texts


def _run_settings(config: Any) -> Dict[str, Any]:
    """The config fields a resume must share with the checkpointed run:
    each changes what the remaining rounds compute.  ``rounds``,
    ``executor`` (every backend resumes the same bits), ``trace*`` and
    ``checkpoint*`` may differ."""
    names = ("local_epochs", "batch_size", "eval_every", "on_empty_round", "seed")
    return dict({n: getattr(config, n) for n in names}, lr=repr(config.lr))


def _split_ledger(
    state: Dict[str, Any], arrays: Dict[str, ArrayMember]
) -> Dict[str, Any]:
    """Move the ledger's arrays into ``arrays`` as ``ledger/<name>``
    members; the manifest entry returned keeps only their lengths, so
    it is O(1) however many clients the run has touched."""
    for name, array in state["arrays"].items():
        arrays[f"ledger/{name}"] = array
    state["arrays"] = {name: len(a) for name, a in state["arrays"].items()}
    return state


def _join_ledger(
    entry: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> Dict[str, Any]:
    """Inverse of :func:`_split_ledger`, checking every length."""
    state = dict(entry, arrays={})
    for name, length in entry["arrays"].items():
        array = arrays[f"ledger/{name}"]
        if len(array) != int(length):
            raise ValueError(
                f"ledger member {name!r} has {len(array)} entries, "
                f"manifest says {length}"
            )
        state["arrays"][name] = array
    return state


def apply_run_state(trainer: Any, ckpt: Checkpoint) -> None:
    """Restore a checkpoint into a freshly constructed ``trainer``.

    The trainer must have been built over the same federation shape —
    same model architecture, policy, clients, sampler
    and feedback staleness — as the run that produced the checkpoint.
    """
    manifest = ckpt.manifest
    try:
        _apply(trainer, ckpt, manifest)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {ckpt.path} does not match this federation: {exc}"
        ) from exc


def _apply(trainer: Any, ckpt: Checkpoint, manifest: Dict[str, Any]) -> None:
    server = trainer.server
    if int(manifest["n_params"]) != server.n_params:
        raise ValueError(
            f"checkpoint has {manifest['n_params']} parameters, "
            f"model has {server.n_params}"
        )
    if manifest["policy"]["name"] != trainer.policy.name:
        raise ValueError(
            f"checkpoint is for policy {manifest['policy']['name']!r}, "
            f"trainer runs {trainer.policy.name!r}"
        )
    if manifest["server"].get("weighted", False):
        raise ValueError(
            "checkpoint was written with weighted_aggregation=True, "
            "a FedAvg-weighted mean this engine no longer has"
        )
    if int(manifest["server"]["feedback_staleness"]) != server.estimator.staleness:
        raise ValueError(
            f"checkpoint has feedback staleness "
            f"{manifest['server']['feedback_staleness']}, trainer has "
            f"{server.estimator.staleness}"
        )
    recorded = manifest.get("run")  # absent from older checkpoints
    if recorded is not None:
        for name, ours in _run_settings(trainer.config).items():
            theirs = recorded.get(name, "<missing>")
            if theirs != ours:
                raise ValueError(
                    f"checkpoint was taken with {name}={theirs!r}, this "
                    f"run has {name}={ours!r}"
                )
    ckpt_ids = set(manifest["rng"]["clients"])
    trainer_ids = {str(c.client_id) for c in trainer.clients}
    if ckpt_ids != trainer_ids:
        raise ValueError(
            f"checkpoint covers clients {sorted(ckpt_ids)}, trainer has "
            f"{sorted(trainer_ids)}"
        )

    global_params = np.asarray(ckpt.arrays["global_params"], dtype=float)
    if global_params.shape != server.global_params.shape:
        raise ValueError(
            f"global_params has shape {global_params.shape}, expected "
            f"{server.global_params.shape}"
        )
    server.global_params[...] = global_params
    server.estimator.load_state_dict(
        {
            "n_params": manifest["n_params"],
            "staleness": manifest["server"]["feedback_staleness"],
            "history": [
                ckpt.arrays[f"feedback/{i}"]
                for i in range(int(manifest["server"]["n_feedback"]))
            ],
            "delta_updates": ckpt.arrays["feedback_deltas"].tolist(),
        }
    )
    trainer.policy.load_state_dict(manifest["policy"]["state"])
    for client in trainer.clients:
        client.set_rng_state(manifest["rng"]["clients"][str(client.client_id)])
    trainer.sampler.load_state_dict(manifest["rng"]["sampler"])
    trainer.ledger.load_state_dict(_join_ledger(manifest["ledger"], ckpt.arrays))

    store_manifest = manifest.get("store")
    if (store_manifest is None) != (trainer.store is None):
        raise ValueError(
            "checkpoint is store-backed but the trainer is not"
            if store_manifest is not None
            else "trainer is store-backed but the checkpoint is not"
        )
    if store_manifest is not None:
        # The store validates population/shard_size/seed/partition
        # identity itself and rebuilds exactly the shards the snapshot
        # had materialized.
        trainer.store.load_state(
            store_manifest,
            {
                key[len("store/") :]: array
                for key, array in ckpt.arrays.items()
                if key.startswith("store/")
            },
        )

    history = RunHistory.from_jsonl(ckpt.texts[HISTORY_MEMBER])
    if history.policy_name != trainer.policy.name:
        raise ValueError(
            f"checkpointed history is for policy {history.policy_name!r}"
        )
    if len(history) != int(manifest["iteration"]):
        raise ValueError(
            f"history holds {len(history)} records, manifest says "
            f"iteration {manifest['iteration']}"
        )
    trainer.history = history
    # Round t+1 trains from the restored global model.
    trainer.workspace.load_flat(server.global_params)


def build_resume_tracer(trace_state: Any, config: Any) -> Any:
    """Reconstruct the tracer continuation for a resumed run.

    Returns ``None`` when the checkpoint carried no trace state or the
    config has tracing off (the trainer then builds its default).  With
    a ``trace_path``, the original JSONL file is truncated back to the
    events the checkpoint had durably flushed (``seq`` strictly below
    the snapshot's counter — anything later belongs to the crashed
    partial round) and reopened in append mode, so the resumed run
    extends the exact original stream.
    """
    if trace_state is None or not config.trace_enabled:
        return None
    # Adopt the snapshot before touching the file: one this tracer
    # cannot continue is refused with the trace still intact.
    tracer = Tracer(emit_header=False)
    tracer.restore_state(trace_state)
    upto_seq = int(trace_state["seq"])
    if config.trace_path:
        path = Path(config.trace_path)
        if not path.exists():
            raise CheckpointError(
                f"checkpoint expects a trace at {path}, but the file "
                "does not exist"
            )
        kept = truncate_trace(path, upto_seq)
        if kept != upto_seq:
            raise CheckpointError(
                f"trace at {path} has only {kept} events before seq "
                f"{upto_seq}; it does not match this checkpoint"
            )
        sink = JsonlSink(path, mode="a")
    else:
        # In-memory traces do not survive the original process; the
        # resumed stream continues from the checkpoint's counters.
        sink = MemorySink()
    tracer.sinks.append(sink)
    return tracer

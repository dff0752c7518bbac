"""Attach span wrappers to a built federation, layer by layer.

Every wrapper goes on an *instance* the workload built (see
:mod:`benchmarks.perf.spans`); no class and no source file is touched.
Two seams are private names, because the program builds the objects
behind them itself and offers no public handle:

* ``BatchedExecutor._engine_for`` — the executor creates its stacked
  ``BatchedWorkspace`` engines lazily inside ``run_round``; the
  interceptor wraps each engine the first time it is handed out.
* ``FederatedTrainer._begin_round`` / ``_finish_round`` — the two
  halves the async engine drives.  Wrapping them keeps the trainer's
  decide/aggregate glue out of ``fl.events``' self time.

A bucket is ``<layer>.<boundary>``; :data:`SHARE_OF` maps every bucket
to the one ``*_share`` metric its self time is reported under, so the
shares of a traced run add up to exactly 1.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict

from benchmarks.perf.spans import BucketStats, SpanRecorder, aggregate
from benchmarks.perf.workloads import Federation
from repro.nn.module import BatchedModule, Module

__all__ = ["ROOT", "SHARE_OF", "instrument", "layer_metrics"]

#: The harness' own root span: one per timed chunk of the traced run.
ROOT = "harness.chunk"

#: nn layer classes -> the K of ``nn.K.*``.  Shape-only layers
#: (Flatten, LastStep) are left unwrapped; their time is their caller's.
_KINDS = {
    "Conv2D": "conv",
    "MaxPool2D": "pool",
    "ReLU": "relu",
    "Dense": "dense",
    "LSTM": "lstm",
    "Embedding": "embedding",
}
_NN_KINDS = tuple(_KINDS.values()) + ("loss",)

SHARE_OF: Dict[str, str] = {
    **{f"nn.{k}.fwd": f"nn.{k}.share" for k in _NN_KINDS},
    **{f"nn.{k}.bwd": f"nn.{k}.share" for k in _NN_KINDS},
    **{f"nn.{k}.infer": f"nn.{k}.share" for k in _KINDS.values()},
    "nn.sgd.step": "nn.sgd.share",
    "fl.workspace.train_step": "fl.workspace.self_share",
    "fl.workspace.flat_io": "fl.workspace.flat_io_share",
    "fl.workspace.evaluate": "fl.workspace.evaluate_share",
    "fl.batched.train_step_all": "fl.batched.self_share",
    "fl.batched.load_extract": "fl.batched.load_extract_share",
    "fl.client.compute_update": "fl.client.self_share",
    "data.batches": "data.batches_share",
    "fl.executor.run_round": "fl.executor.self_share",
    "core.decide": "core.decide_share",
    "fl.server.apply_round": "fl.server.share",
    "fl.accounting.record_round": "fl.accounting.share",
    "fl.sampling.select": "fl.sampling.share",
    "fl.store.checkout": "fl.store.share",
    "fl.store.writeback": "fl.store.share",
    "fl.store.record_round": "fl.store.share",
    "fl.events.run": "fl.events.share",
    "fl.events.latency_timing": "fl.events.share",
    "fl.events.queue_op": "fl.events.share",
    "fl.trainer": "fl.trainer.self_share",
    ROOT: "fl.trainer.self_share",
    "ckpt.maybe_save": "ckpt.stall_share",
    "ckpt.save": "ckpt.stall_share",
}


def _wrap_nn(rec: SpanRecorder, obj: Any, kind: str) -> None:
    """forward/backward of one layer, loss or batched twin.

    A layer's inference forward (``training=False``, the evaluation
    path with its 250-row batches) gets its own bucket: it counts
    toward the layer's share, but ``fwd_us`` stays a pure
    training-step mean.  A loss's forward takes no such flag.
    """
    fwd, infer = f"nn.{kind}.fwd", f"nn.{kind}.infer"

    def by_mode(args: tuple, kwargs: dict) -> str:
        if "training" in kwargs:
            return fwd if kwargs["training"] else infer
        return fwd if len(args) > 1 and args[1] else infer

    rec.wrap(obj, "forward", fwd if kind == "loss" else by_mode)
    rec.wrap(obj, "backward", f"nn.{kind}.bwd")
    # The default head_backward only delegates to backward (already
    # wrapped); an override does the head layer's real work.
    head = getattr(type(obj), "head_backward", None)
    if head not in (None, Module.head_backward, BatchedModule.head_backward):
        rec.wrap(obj, "head_backward", f"nn.{kind}.bwd")


def _wrap_twin_factory(rec: SpanRecorder, obj: Any, kind: str) -> None:
    """Intercept ``obj.batched(...)`` and wrap the twin it returns."""
    inner = obj.batched

    def batched(*args, **kwargs):
        twin = inner(*args, **kwargs)
        _wrap_nn(rec, twin, kind)
        return twin

    obj.batched = batched


def _wrap_engines(rec: SpanRecorder, executor: Any) -> None:
    inner = executor._engine_for
    seen: set = set()

    def engine_for(size):
        engine = inner(size)
        if engine is not None and id(engine) not in seen:
            seen.add(id(engine))
            n = engine.n_clients
            rec.wrap(
                engine, "train_step_all", "fl.batched.train_step_all",
                on_return=lambda *_: rec.count("batched.client_steps", n),
            )
            rec.wrap(
                engine, "load_global", "fl.batched.load_extract",
                on_return=lambda *_: rec.count("batched.cohorts"),
            )
            rec.wrap(engine, "extract_updates", "fl.batched.load_extract")
        return engine

    executor._engine_for = engine_for


def instrument(fed: Federation, rec: SpanRecorder) -> None:
    """Wrap every layer boundary of ``fed``; call before its first round."""
    trainer = fed.trainer
    workspace = trainer.workspace

    # nn: per layer kind, serial instances and (lazily) their twins.
    for layer in workspace.model.layers:
        kind = _KINDS.get(type(layer).__name__)
        if kind is not None:
            _wrap_nn(rec, layer, kind)
            _wrap_twin_factory(rec, layer, kind)
    _wrap_nn(rec, workspace.loss, "loss")
    _wrap_twin_factory(rec, workspace.loss, "loss")
    rec.wrap(workspace.optimizer, "step", "nn.sgd.step")

    # fl.workspace.
    rec.wrap(workspace, "train_step", "fl.workspace.train_step")
    rec.wrap(workspace, "load_flat", "fl.workspace.flat_io")
    rec.wrap(workspace, "get_flat", "fl.workspace.flat_io")
    rec.wrap(workspace, "evaluate", "fl.workspace.evaluate")

    # fl.executor / fl.batched.
    executor = trainer.executor
    rec.wrap(
        executor, "run_round", "fl.executor.run_round",
        on_return=lambda result, *_: rec.count("client_results", len(result)),
    )
    if hasattr(executor, "_engine_for"):
        _wrap_engines(rec, executor)

    # fl.client / data (eager federations; store views live one round
    # and the soak's equal-sized cohort never takes the per-client path).
    for client in trainer.clients:
        rec.wrap(client, "compute_update", "fl.client.compute_update")
        rec.wrap_generator(client.train_data, "batches", "data.batches")

    # core.
    def decided(decision, *_):
        rec.count("decisions")
        if decision.upload:
            rec.count("uploads")

    rec.wrap(trainer.policy, "decide", "core.decide", on_return=decided)

    # fl.server (with fl.aggregation below it), fl.accounting, fl.sampling.
    rec.wrap(trainer.server, "apply_round", "fl.server.apply_round")
    rec.wrap(trainer.ledger, "record_round", "fl.accounting.record_round")
    rec.wrap(trainer.sampler, "select", "fl.sampling.select")
    rec.wrap(trainer.sampler, "select_indices", "fl.sampling.select")

    # fl.store.
    store = trainer.store
    if store is not None:
        rec.wrap(
            store, "checkout", "fl.store.checkout",
            on_return=lambda views, *_: rec.count("store.checkouts", len(views)),
        )
        rec.wrap(
            store, "writeback", "fl.store.writeback",
            on_return=lambda _, args, __: rec.count(
                "store.writebacks", len(args[0])
            ),
        )
        rec.wrap(store, "record_round", "fl.store.record_round")

    # fl.trainer: the round driver and its two halves.
    rec.wrap(trainer, "run", "fl.trainer")
    rec.wrap(trainer, "_begin_round", "fl.trainer")
    rec.wrap(trainer, "_finish_round", "fl.trainer")

    # fl.events.
    engine = fed.engine
    if engine is not None:
        rec.wrap(engine, "run", "fl.events.run")

        def timed(timing, *_):
            rec.count("events.timings")
            if timing.dropped:
                rec.count("events.dropped")

        rec.wrap(
            engine.latency, "timing", "fl.events.latency_timing",
            on_return=timed,
        )
        rec.wrap(engine.queue, "push", "fl.events.queue_op")
        rec.wrap(
            engine.queue, "pop", "fl.events.queue_op",
            on_return=lambda *_: rec.count("events.processed"),
        )

    # ckpt.
    checkpointer = trainer.checkpointer
    if checkpointer is not None:
        rec.wrap(checkpointer, "maybe_save", "ckpt.maybe_save")

        def saved(path, *_):
            rec.counts["ckpt.bytes_last"] = os.path.getsize(path)

        rec.wrap(checkpointer, "save", "ckpt.save", on_return=saved)


# -- from spans to the per-layer metrics -------------------------------------


def layer_metrics(
    rec: SpanRecorder,
    fed: Federation,
    rounds: int,
    cpu_s: float,
) -> Dict[str, float]:
    """Every span- and count-derived per-layer metric of a traced run.

    ``rounds`` is how many rounds the traced chunks covered; ``cpu_s``
    the process CPU time over the same interval.  A metric whose layer
    the workload never enters reads 0.
    """
    buckets, wall_ns = aggregate(rec.spans)
    unknown = sorted(set(buckets) - set(SHARE_OF))
    if unknown:
        raise KeyError(f"spans in buckets with no share metric: {unknown}")
    if wall_ns <= 0:
        raise ValueError("traced run recorded no root span")
    empty = BucketStats()

    def b(name: str) -> BucketStats:
        return buckets.get(name, empty)

    def per(total: float, n: float) -> float:
        return total / n if n else 0.0

    out: Dict[str, float] = {name: 0.0 for name in set(SHARE_OF.values())}
    for name, stats in buckets.items():
        out[SHARE_OF[name]] += stats.self_ns / wall_ns

    out["nn.forward_share"] = sum(
        b(f"nn.{k}.fwd").self_ns + b(f"nn.{k}.infer").self_ns
        for k in _NN_KINDS
    ) / wall_ns
    out["nn.backward_share"] = sum(
        b(f"nn.{k}.bwd").self_ns for k in _NN_KINDS
    ) / wall_ns
    for k in _NN_KINDS:
        out[f"nn.{k}.fwd_us"] = b(f"nn.{k}.fwd").mean_us
        out[f"nn.{k}.bwd_us"] = b(f"nn.{k}.bwd").mean_us
    out["nn.sgd.step_us"] = b("nn.sgd.step").mean_us

    counts = rec.counts
    results = counts.get("client_results", 0)
    out["fl.workspace.train_step_us"] = b("fl.workspace.train_step").mean_us
    step_all = b("fl.batched.train_step_all")
    out["fl.batched.train_step_all_us"] = step_all.mean_us
    out["fl.batched.step_us_per_client"] = per(
        step_all.total_ns / 1e3, counts.get("batched.client_steps", 0)
    )
    compute = b("fl.client.compute_update")
    out["fl.client.compute_update_ms"] = compute.mean_us / 1e3
    out["fl.executor.run_round_ms"] = b("fl.executor.run_round").mean_us / 1e3
    out["fl.executor.cohorts_per_round"] = per(
        counts.get("batched.cohorts", 0), rounds
    )
    out["fl.executor.fallback_client_share"] = per(compute.calls, results)

    decisions = counts.get("decisions", 0)
    out["core.decide_us"] = b("core.decide").mean_us
    out["core.upload_ratio"] = per(counts.get("uploads", 0), decisions)
    out["fl.server.apply_round_us"] = b("fl.server.apply_round").mean_us
    out["fl.sampling.select_us"] = b("fl.sampling.select").mean_us

    store = fed.trainer.store
    out["fl.store.checkout_us_per_client"] = per(
        b("fl.store.checkout").total_ns / 1e3, counts.get("store.checkouts", 0)
    )
    out["fl.store.writeback_us_per_client"] = per(
        b("fl.store.writeback").total_ns / 1e3,
        counts.get("store.writebacks", 0),
    )
    out["fl.store.record_round_us"] = b("fl.store.record_round").mean_us
    out["fl.store.shards_materialized"] = (
        float(store.materialized_shards) if store is not None else 0.0
    )
    out["fl.store.nbytes"] = float(store.nbytes) if store is not None else 0.0

    engine = fed.engine
    staleness = [r.staleness for r in fed.trainer.history][-rounds:]
    out["fl.events.latency_timing_us"] = b("fl.events.latency_timing").mean_us
    out["fl.events.queue_op_us"] = b("fl.events.queue_op").mean_us
    out["fl.events.events_processed"] = float(counts.get("events.processed", 0))
    out["fl.events.dropped_share"] = per(
        counts.get("events.dropped", 0), counts.get("events.timings", 0)
    )
    out["fl.events.staleness_p50"] = (
        float(statistics.median(staleness)) if engine is not None else 0.0
    )
    out["fl.events.staleness_max"] = (
        float(max(staleness)) if engine is not None else 0.0
    )
    out["fl.events.virtual_finish_s"] = (
        float(engine.clock.now) if engine is not None else 0.0
    )

    save_ms = [
        (end - start) / 1e6
        for bucket, start, end, _ in rec.spans if bucket == "ckpt.save"
    ]
    out["ckpt.saves"] = float(len(save_ms))
    out["ckpt.save_ms_p50"] = statistics.median(save_ms) if save_ms else 0.0
    out["ckpt.save_ms_last"] = save_ms[-1] if save_ms else 0.0
    out["ckpt.bytes_last"] = float(counts.get("ckpt.bytes_last", 0))

    out["proc.cpu_s"] = cpu_s
    out["proc.cpu_wall_ratio"] = cpu_s / (wall_ns / 1e9)
    return out

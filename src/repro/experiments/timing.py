"""Round-throughput timing: the machine-readable perf baseline.

Times the federated round hot path (the compute fan-out plus the
ordered decide/aggregate reduction) under each execution backend of
:mod:`repro.fl.executor` on two workloads:

* ``digits_cnn`` — the paper's digit-CNN federation at bench scale
  (compute-heavy clients), and
* ``linear`` — a logistic-regression federation (tiny per-client
  steps; an upper bound on per-task engine overhead).

``run_timing`` returns a JSON-ready payload recording, per backend,
wall-clock sec/round (the **median** over per-round samples, which are
also recorded — one scheduler hiccup must not move the regression
gate), clients/sec and the speedup over serial, plus a history digest
proving the backends produced bitwise-identical runs.
``tools/bench_timing.py`` writes it to ``BENCH_timing.json`` at the
repo root and ``tools/bench_compare.py`` diffs two such baselines.

A micro section times the ``im2col`` unfold with and without a trailing
``np.ascontiguousarray`` — the measurement behind dropping that call
(see :func:`repro.nn.layers.conv.im2col`) — the stacked-vs-looped
kernels behind the ``batched`` backend, and the checkpoint
save/restore path of :mod:`repro.ckpt` (sec per save, bytes on disk).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Sequence

import numpy as np

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.experiments.workloads import DigitsWorkload
from repro.fl.client import FLClient
from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.layers.conv import im2col
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.utils.atomic_io import atomic_write_text
from repro.utils.rng import child_rngs

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_BACKENDS",
    "TIMING_WORKLOADS",
    "format_report",
    "history_digest",
    "make_digits_timing_trainer",
    "make_linear_timing_trainer",
    "run_timing",
    "time_async_vs_sync",
    "time_backend",
    "time_batched_kernels",
    "time_checkpoint",
    "time_im2col",
    "time_obs_overhead",
    "write_baseline",
]

BENCH_SCHEMA = "repro-bench-timing/v1"

DEFAULT_BACKENDS = EXECUTOR_BACKENDS

#: Never evaluate during timed rounds: evaluation runs on the parent
#: workspace identically under every backend and would only blur the
#: per-round compute signal.
_NO_EVAL = 10**9

_TIMING_SEED = 23


def make_digits_timing_trainer(backend: str = "serial") -> FederatedTrainer:
    """The digit-CNN federation at bench scale (30 clients), CMFL policy."""
    workload = DigitsWorkload(scale="bench")
    return workload.make_trainer(
        CMFLPolicy(InverseSqrtThreshold(0.8)),
        executor=backend,
        eval_every=_NO_EVAL,
    )


def make_linear_timing_trainer(backend: str = "serial") -> FederatedTrainer:
    """A 30-client logistic-regression federation with tiny local steps."""
    n_clients, n_features, per_client = 30, 64, 80
    rngs = child_rngs(_TIMING_SEED, n_clients + 3)
    w_true = rngs[0].normal(size=n_features)
    x = rngs[1].normal(size=(n_clients * per_client, n_features))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    model = make_logistic_regression(n_features, rng=rngs[2])
    workspace = ModelWorkspace(
        model, SigmoidBinaryCrossEntropy(), SGD(model.parameters(), 0.3)
    )
    parts = iid_partition(len(data), n_clients, rng=_TIMING_SEED)
    clients = [
        FLClient(i, data.subset(p), rng=rngs[3 + i])
        for i, p in enumerate(parts)
    ]
    config = FLConfig(
        rounds=100,
        local_epochs=2,
        batch_size=8,
        lr=ConstantLR(0.3),
        eval_every=_NO_EVAL,
        executor=backend,
    )
    return FederatedTrainer(
        workspace, clients, CMFLPolicy(InverseSqrtThreshold(0.8)), config
    )


TIMING_WORKLOADS: Dict[str, Callable[[str], FederatedTrainer]] = {
    "digits_cnn": make_digits_timing_trainer,
    "linear": make_linear_timing_trainer,
}


def history_digest(trainer: FederatedTrainer) -> str:
    """SHA-256 over everything a backend could perturb.

    Covers per-round losses, scores, upload decisions and the final
    global parameter bytes; equal digests mean bitwise-equal runs.
    """
    h = hashlib.sha256()
    for r in trainer.history:
        h.update(np.float64(r.mean_train_loss).tobytes())
        h.update(np.float64(r.mean_score).tobytes())
        h.update(np.asarray(r.uploaded_ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trainer.server.global_params).tobytes())
    return h.hexdigest()


def time_backend(
    workload: str,
    backend: str,
    rounds: int = 3,
    warmup: int = 1,
) -> Dict[str, object]:
    """Time ``rounds`` rounds of ``workload`` under ``backend``.

    ``warmup`` untimed rounds absorb one-time costs (cohort-engine
    builds, allocator warm-up) so sec/round reflects the steady state.
    Rounds are timed individually; ``sec_per_round`` is the median of
    the per-round samples (all recorded in the payload), so a single
    noisy round cannot flip the throughput regression gate.
    """
    if workload not in TIMING_WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choices: "
            f"{tuple(TIMING_WORKLOADS)}"
        )
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    trainer = TIMING_WORKLOADS[workload](backend)
    try:
        if warmup > 0:
            trainer.run(warmup)
        # Time each round on its own and report the **median**: one
        # scheduler hiccup or GC pause then skews a single sample, not
        # the headline number the regression gate compares.
        samples = []
        for _ in range(rounds):
            start = perf_counter()
            trainer.run(1)
            samples.append(perf_counter() - start)
        digest = history_digest(trainer)
    finally:
        trainer.close()
    sec_per_round = float(np.median(samples))
    n_clients = len(trainer.clients)
    return {
        "backend": backend,
        "rounds_timed": rounds,
        "n_clients": n_clients,
        "n_params": trainer.workspace.n_params,
        "sec_per_round": sec_per_round,
        "sec_per_round_samples": samples,
        "clients_per_sec": n_clients / sec_per_round,
        "history_digest": digest,
    }


def time_im2col(reps: int = 200) -> Dict[str, object]:
    """Measure the im2col unfold with vs without ``ascontiguousarray``.

    The unfold reshapes a transposed strided window view, which NumPy
    must materialise as a fresh C-contiguous array whenever the kernel
    covers more than one element — so the historical trailing
    ``np.ascontiguousarray`` was a no-op copy check.  This measurement
    (recorded in ``BENCH_timing.json``) backs the decision to drop it.
    """
    rng = np.random.default_rng(_TIMING_SEED)
    # The digits-CNN first-layer shape at bench scale.
    x = rng.normal(size=(32, 4, 20, 20))
    kh = kw = 5

    def _strided(arr):
        return im2col(arr, kh, kw, 1)[0]

    def _ascontiguous(arr):
        return np.ascontiguousarray(im2col(arr, kh, kw, 1)[0])

    variants = (("strided_view", _strided), ("ascontiguousarray", _ascontiguous))
    totals = {name: 0.0 for name, _ in variants}
    for _, fn in variants:
        fn(x)  # warm the allocator
    # Interleave the variants so cache/CPU state biases neither side.
    for _ in range(reps):
        for name, fn in variants:
            start = perf_counter()
            fn(x)
            totals[name] += perf_counter() - start
    timings = {name: totals[name] / reps * 1e3 for name in totals}
    cols = _strided(x)
    return {
        "input_shape": list(x.shape),
        "kernel": [kh, kw],
        "reps": reps,
        "strided_view_ms": timings["strided_view"],
        "ascontiguousarray_ms": timings["ascontiguousarray"],
        "result_is_contiguous": bool(cols.flags["C_CONTIGUOUS"]),
        "kept": "strided_view",
    }


def time_batched_kernels(
    reps: int = 50, n_clients: int = 30
) -> Dict[str, object]:
    """Stacked vs per-client-looped kernels behind the batched backend.

    Measures the two compute shapes the ``batched`` executor vectorizes
    at digits-CNN bench scale: the dense GEMM as one 3-D ``np.matmul``
    over a leading client axis vs a Python loop of 2-D GEMMs, and the
    convolution unfold as one folded ``im2col`` over ``C * batch``
    images vs ``C`` per-client calls.  Also asserts the stacked results
    equal the looped ones bitwise — the micro-scale version of the
    backend's digest guarantee.
    """
    rng = np.random.default_rng(_TIMING_SEED)
    # Dense GEMM at roughly the digits-CNN head shape.
    x = rng.normal(size=(n_clients, 32, 128))
    w = rng.normal(size=(n_clients, 128, 64))
    # First-conv unfold shape per client.
    imgs = rng.normal(size=(n_clients, 8, 4, 20, 20))
    kh = kw = 5

    def _gemm_looped():
        return np.stack([x[c] @ w[c] for c in range(n_clients)])

    def _gemm_stacked():
        return np.matmul(x, w)

    def _im2col_looped():
        return [im2col(imgs[c], kh, kw, 1)[0] for c in range(n_clients)]

    def _im2col_folded():
        folded = imgs.reshape((-1,) + imgs.shape[2:])
        return im2col(folded, kh, kw, 1)[0]

    variants = (
        ("gemm_looped", _gemm_looped),
        ("gemm_stacked", _gemm_stacked),
        ("im2col_looped", _im2col_looped),
        ("im2col_folded", _im2col_folded),
    )
    totals = {name: 0.0 for name, _ in variants}
    for _, fn in variants:
        fn()  # warm the allocator
    # Interleave so cache/CPU state biases no variant.
    for _ in range(reps):
        for name, fn in variants:
            start = perf_counter()
            fn()
            totals[name] += perf_counter() - start
    ms = {name: totals[name] / reps * 1e3 for name in totals}
    gemm_equal = np.array_equal(_gemm_looped(), _gemm_stacked())
    cols_folded = _im2col_folded()
    n_per = imgs.shape[1]
    cols_equal = all(
        np.array_equal(cols_c, cols_folded[c * n_per:(c + 1) * n_per])
        for c, cols_c in enumerate(_im2col_looped())
    )
    return {
        "n_clients": n_clients,
        "reps": reps,
        "gemm_shape": [list(x.shape), list(w.shape)],
        "gemm_looped_ms": ms["gemm_looped"],
        "gemm_stacked_ms": ms["gemm_stacked"],
        "gemm_speedup": ms["gemm_looped"] / ms["gemm_stacked"],
        "gemm_bitwise_equal": bool(gemm_equal),
        "im2col_shape": list(imgs.shape),
        "im2col_looped_ms": ms["im2col_looped"],
        "im2col_folded_ms": ms["im2col_folded"],
        "im2col_speedup": ms["im2col_looped"] / ms["im2col_folded"],
        "im2col_bitwise_equal": bool(cols_equal),
    }


def time_checkpoint(reps: int = 5, rounds: int = 2) -> Dict[str, object]:
    """Measure the :mod:`repro.ckpt` save and load/verify paths.

    Runs the linear federation for a couple of rounds so the captured
    state is realistic (non-trivial feedback history, ledger, run
    history), then times ``save_checkpoint`` and digest-verifying
    ``read_checkpoint`` against a temp file.  Records bytes on disk so
    baseline diffs catch container-format size regressions too.
    """
    from repro.ckpt import read_checkpoint, save_checkpoint

    if reps < 1:
        raise ValueError("reps must be >= 1")
    trainer = make_linear_timing_trainer()
    try:
        trainer.run(rounds)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bench.ckpt"
            save_checkpoint(trainer, path)  # warm allocator + dir entry
            save_total = 0.0
            for _ in range(reps):
                start = perf_counter()
                save_checkpoint(trainer, path)
                save_total += perf_counter() - start
            nbytes = path.stat().st_size
            load_total = 0.0
            for _ in range(reps):
                start = perf_counter()
                read_checkpoint(path)
                load_total += perf_counter() - start
    finally:
        trainer.close()
    return {
        "reps": reps,
        "rounds_before_save": rounds,
        "n_params": trainer.workspace.n_params,
        "n_clients": len(trainer.clients),
        "bytes_on_disk": nbytes,
        "sec_per_save": save_total / reps,
        "sec_per_load_verify": load_total / reps,
    }


def time_obs_overhead(
    population: int = 100_000,
    cohort: int = 100,
    rounds: int = 16,
    sample_rate: float = 0.01,
) -> Dict[str, object]:
    """What the observability layer itself costs at population scale.

    Runs the store-backed scale federation three ways — tracing off,
    tracing with per-client spans head-sampled at ``sample_rate``, and
    tracing at full sampling — and records clients/sec for each.  The
    bench gate (``tools/bench_compare.py --max-obs-overhead``) holds
    the *sampled* mode's throughput cost to a few percent: sampling is
    what makes tracing affordable at scale.  ``identical_histories``
    asserts the tracer changed nothing about the run itself.

    The measurement is built to survive a noisy host, because the
    signal (a few hundred extra dict/hash operations per round) is
    tiny against scheduler jitter at ~60 ms/round: the three trainers
    run their timed rounds **interleaved round-robin** and each mode
    gets one untimed warm-up round.  ``overhead_vs_off`` is the
    **median of per-slot ratios** — within one round-robin slot the
    three modes run back-to-back under the same ambient load, so the
    slot-local ratio cancels drift (thermal, co-tenancy) that would
    corrupt any comparison of whole-run aggregates; the median then
    shrugs off slots where a context switch landed mid-round.
    ``sec_per_round`` is the minimum sample (the least-contaminated
    absolute estimate); clients/sec derives from it and is reported
    for context, not used for the overhead figure.
    """
    from repro.experiments.scale import make_scale_trainer

    modes = (
        ("off", False, 1.0),
        ("sampled", True, sample_rate),
        ("full", True, 1.0),
    )
    trainers = {}
    entries: Dict[str, Dict[str, object]] = {}
    try:
        for name, trace, rate in modes:
            trainers[name] = make_scale_trainer(
                population, cohort, trace=trace, trace_sample=rate
            )
            entries[name] = {
                "trace": trace,
                "sample": rate,
                "sec_per_round_samples": [],
            }
            trainers[name].run(1)  # warm-up, untimed
        for _ in range(rounds):
            for name, _, _ in modes:
                start = perf_counter()
                trainers[name].run(1)
                entries[name]["sec_per_round_samples"].append(
                    perf_counter() - start
                )
        digests = {
            name: history_digest(trainer)
            for name, trainer in trainers.items()
        }
        for name, _, _ in modes:
            samples = entries[name]["sec_per_round_samples"]
            sec = float(min(samples))
            events = trainers[name].tracer.memory_events()
            entries[name].update(
                sec_per_round=sec,
                clients_per_sec=cohort / sec,
                n_events=len(events) if events is not None else 0,
            )
    finally:
        for trainer in trainers.values():
            trainer.close()
    off_samples = entries["off"]["sec_per_round_samples"]
    for name in ("sampled", "full"):
        ratios = [
            mode_s / off_s
            for mode_s, off_s in zip(
                entries[name]["sec_per_round_samples"], off_samples
            )
        ]
        entries[name]["overhead_vs_off"] = float(np.median(ratios)) - 1.0
    return {
        "population": population,
        "cohort": cohort,
        "rounds": rounds,
        "modes": entries,
        "identical_histories": len(set(digests.values())) == 1,
    }


def time_async_vs_sync(rounds: int = 8) -> Dict[str, object]:
    """The async event engine vs the synchronous loop it wraps.

    Three runs of the linear federation: the plain synchronous trainer,
    its S=0 async twin (which must produce the **identical** history
    digest — the engine's sync-equivalence contract, gated by
    ``tools/bench_compare.py --check-async-digest``), and an S=2
    bounded-staleness run with stragglers, for which events/sec and the
    staleness spread (p50/p99) are recorded.
    """
    from repro.fl.events import AsyncConfig, AsyncFederatedTrainer

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    sync_trainer = make_linear_timing_trainer()
    try:
        start = perf_counter()
        sync_trainer.run(rounds)
        sync_s = perf_counter() - start
        sync_digest = history_digest(sync_trainer)
    finally:
        sync_trainer.close()

    equiv = AsyncFederatedTrainer(
        make_linear_timing_trainer(), async_config=AsyncConfig()
    )
    try:
        start = perf_counter()
        equiv.run(rounds)
        equiv_s = perf_counter() - start
        equiv_digest = history_digest(equiv.trainer)
    finally:
        equiv.close()

    stale = AsyncFederatedTrainer(
        make_linear_timing_trainer(),
        async_config=AsyncConfig(staleness_bound=2, speed_sigma=1.0),
    )
    try:
        start = perf_counter()
        stale.run(rounds)
        stale_s = perf_counter() - start
        staleness = stale.history.staleness()
        # Every processed event: one dispatch per round plus one
        # arrival per surviving upload.
        n_events = rounds + int(
            sum(r.n_clients for r in stale.history)
        )
    finally:
        stale.close()

    return {
        "rounds": rounds,
        "sync_sec_per_round": sync_s / rounds,
        "async_s0_sec_per_round": equiv_s / rounds,
        "overhead_vs_sync": equiv_s / sync_s - 1.0,
        "sync_digest": sync_digest,
        "async_s0_digest": equiv_digest,
        "identical": equiv_digest == sync_digest,
        "stale": {
            "staleness_bound": 2,
            "sec_per_round": stale_s / rounds,
            "n_events": n_events,
            "events_per_sec": n_events / stale_s,
            "staleness_p50": float(np.percentile(staleness, 50)),
            "staleness_p99": float(np.percentile(staleness, 99)),
            "staleness_max": int(staleness.max()),
        },
    }


def run_timing(
    backends: Sequence[str] = DEFAULT_BACKENDS,
    rounds: int = 3,
    warmup: int = 1,
    workloads: Sequence[str] = ("digits_cnn", "linear"),
) -> Dict[str, object]:
    """The full timing sweep: every backend on every workload."""
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "config": {
            "rounds_timed": rounds,
            "warmup_rounds": warmup,
            "backends": list(backends),
        },
        "workloads": {},
        "micro": {
            "im2col": time_im2col(),
            "batched_kernels": time_batched_kernels(),
            "checkpoint": time_checkpoint(),
            "obs_overhead": time_obs_overhead(),
            "async_vs_sync": time_async_vs_sync(),
        },
    }
    for workload in workloads:
        per_backend: Dict[str, object] = {}
        for backend in backends:
            per_backend[backend] = time_backend(
                workload, backend, rounds=rounds, warmup=warmup
            )
        serial = per_backend.get("serial")
        for entry in per_backend.values():
            entry["speedup_vs_serial"] = (
                serial["sec_per_round"] / entry["sec_per_round"]
                if serial is not None
                else None
            )
        digests = {e["history_digest"] for e in per_backend.values()}
        payload["workloads"][workload] = {
            "backends": per_backend,
            "identical_histories": len(digests) == 1,
        }
    return payload


def write_baseline(payload: Dict[str, object], path: Path) -> None:
    """Persist a timing payload as pretty, diff-stable JSON (atomically)."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def format_report(payload: Dict[str, object]) -> str:
    """Human-readable table of a timing payload (for the bench report)."""
    lines = [
        f"round-throughput timing (cpus={payload['host']['cpu_count']})",
        "",
        f"{'workload':<12} {'backend':<8} {'sec/round':>10} "
        f"{'clients/s':>10} {'speedup':>8}  identical",
    ]
    for workload, data in payload["workloads"].items():
        for backend, entry in data["backends"].items():
            speedup = entry["speedup_vs_serial"]
            lines.append(
                f"{workload:<12} {backend:<8} "
                f"{entry['sec_per_round']:>10.4f} "
                f"{entry['clients_per_sec']:>10.2f} "
                f"{speedup:>7.2f}x  {data['identical_histories']}"
            )
    micro = payload["micro"]["im2col"]
    lines += [
        "",
        "im2col unfold (per call): "
        f"strided_view {micro['strided_view_ms']:.3f} ms vs "
        f"ascontiguousarray {micro['ascontiguousarray_ms']:.3f} ms "
        f"-> kept {micro['kept']}",
    ]
    bk = payload["micro"].get("batched_kernels")
    if bk:
        lines.append(
            f"batched kernels ({bk['n_clients']} clients): "
            f"gemm looped {bk['gemm_looped_ms']:.3f} ms vs "
            f"stacked {bk['gemm_stacked_ms']:.3f} ms "
            f"({bk['gemm_speedup']:.1f}x), "
            f"im2col looped {bk['im2col_looped_ms']:.3f} ms vs "
            f"folded {bk['im2col_folded_ms']:.3f} ms "
            f"({bk['im2col_speedup']:.1f}x)"
        )
    ckpt = payload["micro"].get("checkpoint")
    if ckpt:
        lines.append(
            "checkpoint (linear, "
            f"{ckpt['n_params']} params): "
            f"save {ckpt['sec_per_save'] * 1e3:.2f} ms, "
            f"load+verify {ckpt['sec_per_load_verify'] * 1e3:.2f} ms, "
            f"{ckpt['bytes_on_disk']} bytes on disk"
        )
    avs = payload["micro"].get("async_vs_sync")
    if avs:
        stale = avs["stale"]
        lines.append(
            f"async engine (linear, {avs['rounds']} rounds): "
            f"S=0 overhead {avs['overhead_vs_sync'] * 100:+.1f}% vs sync, "
            f"digest identical: {avs['identical']}; "
            f"S={stale['staleness_bound']}: "
            f"{stale['events_per_sec']:.0f} events/s, "
            f"staleness p50 {stale['staleness_p50']:.1f} / "
            f"p99 {stale['staleness_p99']:.1f}"
        )
    obs = payload["micro"].get("obs_overhead")
    if obs:
        modes = obs["modes"]
        lines.append(
            f"obs overhead ({obs['population']:,} pop, "
            f"{obs['cohort']} cohort): "
            f"sampled {modes['sampled']['overhead_vs_off'] * 100:+.1f}%, "
            f"full {modes['full']['overhead_vs_off'] * 100:+.1f}% "
            f"clients/sec vs off; "
            f"identical histories: {obs['identical_histories']}"
        )
    return "\n".join(lines)

"""The two phases of one workload run and their correctness checks.

``measure_end_to_end`` is the untraced run every end-to-end metric
comes from; ``measure_per_layer`` is the separate traced run (plus the
untraced twin it is checked against) behind the per-layer metrics.
Both count what they attempt and what fails — rounds that raise and
correctness checks alike — and always come back with a report.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf.instrument import ROOT, instrument, layer_metrics
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.workloads import WORKLOADS, Federation, Workload
from repro.ckpt import verify_checkpoint
from repro.fl.executor import ClientExecutionError

__all__ = [
    "RunLog",
    "SETUP_REPEATS",
    "measure_end_to_end",
    "measure_per_layer",
    "records_digest",
    "tail_percentile",
]

#: Set-up is repeated until both limits are met (capped): the digits
#: federations take ~0.4 s to build, the other two ~20 ms, and a median
#: of five 20 ms samples is not steady.
SETUP_REPEATS = (5, 1.0)
_SETUP_MAX_REPEATS = 25

#: Rounds of the opposite-executor twin the digits workloads are
#: digest-checked against (serial == batched, bit for bit).
_CROSS_ROUNDS = 6

_MAX_CONSECUTIVE_FAILURES = 3


@dataclass
class RunLog:
    """Attempts and failures of one phase (rounds and checks)."""

    attempted: int = 0
    failed: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"check": name, "detail": detail})

    def round_raised(self, exc: BaseException, iteration: int) -> None:
        self.failed += 1
        entry: Dict[str, Any] = {
            "round": iteration,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        if isinstance(exc, ClientExecutionError):
            entry["context"] = exc.context()
        self.failures.append(entry)


def records_digest(records: Sequence[Any], params: Optional[np.ndarray] = None) -> str:
    """SHA-256 over each record's loss, score and ``uploaded_ids``.

    With ``params`` the final global parameters are folded in too —
    the same coverage as ``repro.experiments.timing.history_digest``.
    """
    h = hashlib.sha256()
    for r in records:
        h.update(np.float64(r.mean_train_loss).tobytes())
        h.update(np.float64(r.mean_score).tobytes())
        h.update(np.asarray(r.uploaded_ids, dtype=np.int64).tobytes())
    if params is not None:
        h.update(np.ascontiguousarray(params).tobytes())
    return h.hexdigest()


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for permille in (999, 990, 950, 900, 750):  # integers: 100 * 0.1 < 10
        if n * (1000 - permille) >= 10_000:
            pct = permille / 10
            return pct, float(np.percentile(samples, pct))
    return None


def _run_chunk(fed: Federation, chunk: int, log: RunLog) -> Optional[float]:
    """One ``run(chunk)`` call; its wall time, or None if it raised."""
    log.attempted += chunk
    start = perf_counter()
    try:
        fed.driver.run(chunk)
    except Exception as exc:  # the set must reach its report
        log.round_raised(exc, len(fed.trainer.history) + 1)
        return None
    return perf_counter() - start


def _run_chunks(
    fed: Federation, workload: Workload, n_chunks: int, log: RunLog,
    recorder: Optional[SpanRecorder] = None,
) -> List[float]:
    """Run ``n_chunks`` chunks; the wall time of each that completed.

    With a ``recorder`` every chunk runs under one harness root span.
    """
    samples: List[float] = []
    consecutive = 0
    while len(samples) < n_chunks:
        if recorder is None:
            sample = _run_chunk(fed, workload.chunk, log)
        else:
            root = recorder.open(ROOT)
            try:
                sample = _run_chunk(fed, workload.chunk, log)
            finally:
                recorder.close(root)
        if sample is None:
            consecutive += 1
            if consecutive >= _MAX_CONSECUTIVE_FAILURES:
                break
            continue
        consecutive = 0
        samples.append(sample)
    return samples


def _check_ledger(fed: Federation, log: RunLog) -> None:
    history = fed.trainer.history
    ledger = fed.trainer.ledger.total_bytes
    last = history.final.total_bytes if len(history) else None
    log.check(
        "last_record_bytes_equal_ledger", last == ledger,
        f"record {last} != ledger {ledger}",
    )


def _check_checkpoint(fed: Federation, log: RunLog) -> None:
    checkpointer = fed.trainer.checkpointer
    if checkpointer is None or not any(
        checkpointer.due(r.iteration) for r in fed.trainer.history
    ):
        return
    latest = checkpointer.latest()
    try:
        ok = latest is not None and bool(verify_checkpoint(latest))
        detail = "no checkpoint was written" if latest is None else ""
    except Exception as exc:  # a corrupt checkpoint is a failed check
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    log.check("last_checkpoint_verifies", ok, detail)


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024  # bytes vs KiB
    return max(own, children) * scale / 2**20


# -- phase 1: end to end, tracing off ----------------------------------------


def _timed_setup(
    workload: Workload, seed: int, workdir: Path,
    min_repeats: int, min_seconds: float,
) -> Tuple[Federation, List[float]]:
    """Build the federation repeatedly; keep the last one built."""
    times: List[float] = []
    fed: Optional[Federation] = None
    while True:
        if fed is not None:
            fed.close()
        start = perf_counter()
        fed = workload.build(seed, workdir / f"setup{len(times)}")
        times.append(perf_counter() - start)
        done = len(times) >= min_repeats and sum(times) >= min_seconds
        if done or len(times) >= _SETUP_MAX_REPEATS:
            return fed, times


def measure_end_to_end(
    workload: Workload, seed: int, workdir: Path,
    setup_repeats: Tuple[int, float] = SETUP_REPEATS,
) -> Tuple[Dict[str, float], RunLog, Dict[str, Any]]:
    """The untraced run: (end-to-end metrics, log, un-gated detail).

    The run is a fixed amount of work — ``ref_chunks`` timed chunks
    after the warm-up — not a fixed time: per-round cost is not
    stationary (on ``population_soak`` it grows by half as shards go
    live and checkpoints fatten), so a time-boxed median would depend
    on how far the host got, and bytes, accuracy and digest would not
    repeat at all.  ``setup_repeats`` is (at least this many builds,
    for at least this many seconds).
    """
    log = RunLog()
    fed, setup_times = _timed_setup(workload, seed, workdir, *setup_repeats)
    try:
        _run_chunks(fed, workload, workload.warmup_chunks, log)
        warm_rounds = len(fed.trainer.history)
        samples = _run_chunks(fed, workload, workload.ref_chunks, log)
        _check_ledger(fed, log)
        _check_checkpoint(fed, log)
        records = list(fed.trainer.history)
        params = fed.trainer.server.global_params.copy()
        eval_every = fed.trainer.config.eval_every
    finally:
        fed.close()

    wall = sum(samples)
    per_round = [s / workload.chunk * 1e3 for s in samples]
    accuracies = [r.test_metric for r in records if r.test_metric is not None]
    if any(r.iteration % eval_every == 0 for r in records):
        log.check(
            "test_metric_recorded", bool(accuracies),
            "an evaluation was due but no test metric was recorded",
        )
    decisions = sum(r.n_clients for r in records[warm_rounds:])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_wall_s": wall,
        "round_ms_p50": statistics.median(per_round) if per_round else 0.0,
        "client_updates_per_s": decisions / wall if wall else 0.0,
        "peak_rss_mib": _peak_rss_mib(),
        "uploaded_mib": records[-1].total_bytes / 2**20 if records else 0.0,
        "final_test_accuracy": accuracies[-1] if accuracies else 0.0,
        "ok_share": 1.0 - log.failed_share,
    }
    tail = tail_percentile(per_round)
    detail = {
        "federation_digest": fed.digest,
        "history_digest": records_digest(records, params),
        "timed_rounds": len(records) - warm_rounds,
        "round_ms_samples": len(per_round),
        "rounds_per_sample": workload.chunk,
        "round_ms_tail": (
            None if tail is None
            else {"percentile": tail[0], "value": tail[1],
                  "samples": len(per_round)}
        ),
        "setup_repeats": len(setup_times),
        "failed_share": log.failed_share,
    }
    return metrics, log, detail


# -- phase 2: per layer, harness tracing on ----------------------------------


def _cross_executor_check(
    workload: Workload, seed: int, workdir: Path, traced: Federation,
    log: RunLog,
) -> None:
    """digits_serial and digits_batched must agree bit for bit."""
    other = {"digits_serial": "digits_batched",
             "digits_batched": "digits_serial"}.get(workload.name)
    if other is None:
        return
    rounds = min(_CROSS_ROUNDS, len(traced.trainer.history))
    twin = WORKLOADS[other].build(seed, workdir / "cross")
    try:
        instrument(twin, SpanRecorder())
        _run_chunks(twin, WORKLOADS[other], rounds, log)
        same = records_digest(list(twin.trainer.history)[:rounds]) == (
            records_digest(list(traced.trainer.history)[:rounds])
        )
    finally:
        twin.close()
    log.check(f"traced_history_equals_traced_{other}", same,
              f"first {rounds} rounds differ")


def measure_per_layer(
    workload: Workload, seed: int, workdir: Path
) -> Tuple[Dict[str, float], RunLog, Dict[str, Any]]:
    """The traced run: (per-layer metrics, log, un-gated detail).

    Up to three copies of the federation advance chunk slot by chunk
    slot, rotating who goes first so host drift hits all alike: the
    traced one; its untraced twin (bitwise reference and the base of
    ``harness.trace_overhead_ratio``); and, where the workload ships
    with the program's own sampled tracing on, a twin with that off
    (the base of ``obs.sampled_overhead_ratio``).
    """
    log = RunLog()
    recorder = SpanRecorder()
    traced = workload.build(seed, workdir / "traced")
    feds = [traced, workload.build(seed, workdir / "twin")]
    if traced.trace_path is not None:
        feds.append(workload.build(seed, workdir / "twin-obs-off", obs=False))
    samples: List[List[float]] = [[] for _ in feds]
    cpu_s = 0.0
    try:
        instrument(traced, recorder)
        recorder.pause()
        for fed in feds:
            _run_chunks(fed, workload, workload.warmup_chunks, log)
        recorder.resume()
        for slot in range(workload.traced_chunks):
            for offset in range(len(feds)):
                lane = (slot + offset) % len(feds)
                cpu_start = process_time()
                samples[lane] += _run_chunks(
                    feds[lane], workload, 1, log,
                    recorder=recorder if lane == 0 else None,
                )
                if lane == 0:
                    cpu_s += process_time() - cpu_start
        _check_ledger(traced, log)
        _check_checkpoint(traced, log)
        digests = [records_digest(fed.trainer.history) for fed in feds]
        log.check("traced_records_equal_untraced", digests[0] == digests[1])
        if len(feds) == 3:
            log.check(
                "program_tracing_leaves_history_unchanged",
                digests[1] == digests[2],
            )
        _cross_executor_check(workload, seed, workdir, traced, log)
        metrics = layer_metrics(
            recorder, traced, len(samples[0]) * workload.chunk, cpu_s
        )
        history_digest = records_digest(
            traced.trainer.history, traced.trainer.server.global_params
        )
    finally:
        for fed in feds:
            fed.close()

    def paired_ratio(top: List[float], base: List[float]) -> float:
        if not top or len(top) != len(base):
            return 0.0
        return statistics.median(a / b for a, b in zip(top, base))

    metrics["harness.trace_overhead_ratio"] = paired_ratio(*samples[:2])
    metrics["obs.sampled_overhead_ratio"] = (
        paired_ratio(samples[1], samples[2]) if len(feds) == 3 else 0.0
    )
    # After close: the trainer's final flush is part of the trace.
    metrics["obs.trace_bytes"] = float(
        traced.trace_path.stat().st_size if traced.trace_path else 0
    )
    detail = {
        "federation_digest": traced.digest,
        "history_digest": history_digest,
        "traced_rounds": len(samples[0]) * workload.chunk,
        "spans": len(recorder.spans),
        "failed_share": log.failed_share,
    }
    return metrics, log, detail

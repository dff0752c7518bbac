#!/usr/bin/env python
"""Diff two round-throughput baselines; fail on throughput regressions.

Compares clients/sec per (workload, backend) between two
``BENCH_timing.json`` files written by ``tools/bench_timing.py`` and
exits non-zero when any pair regressed by more than the threshold
(default 20%).  Clients/sec derives from the **median** per-round
sample (see :mod:`repro.experiments.timing`), so one noisy round in
either baseline cannot flip the gate.  Pairs present in only one file
are reported but never fail the comparison.  Further one-sided gates
run against the candidate: the batched backend's digits_cnn speedup +
digest identity, and — when ``--scale`` points at a
``BENCH_scale.json`` from ``tools/bench_scale.py`` — the
population-scale peak-RSS growth gate (``--max-rss-growth``) plus the
traced-vs-untraced peak-RSS ratio (``--max-traced-rss``).  The
observability tax is gated one-sided as well: head-sampled tracing
must cost no more than ``--max-obs-overhead`` clients/sec vs tracing
off, with bitwise-identical history digests across all modes.

Usage::

    python tools/bench_timing.py --out /tmp/after.json
    python tools/bench_compare.py BENCH_timing.json /tmp/after.json
    python tools/bench_compare.py before.json after.json --threshold 0.1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _throughputs(payload):
    """Flatten a timing payload into {(workload, backend): clients/sec}."""
    if payload.get("schema") != "repro-bench-timing/v1":
        raise ValueError(
            f"not a repro-bench-timing/v1 payload (schema={payload.get('schema')!r})"
        )
    out = {}
    for workload, data in payload["workloads"].items():
        for backend, entry in data["backends"].items():
            out[(workload, backend)] = float(entry["clients_per_sec"])
    return out


def compare(before, after, threshold):
    """Return (report_lines, regressions) for two timing payloads."""
    base = _throughputs(before)
    new = _throughputs(after)
    lines = []
    regressions = []
    for key in sorted(set(base) | set(new)):
        workload, backend = key
        label = f"{workload}/{backend}"
        if key not in base:
            lines.append(f"  {label:<24} only in AFTER ({new[key]:.2f} clients/s)")
            continue
        if key not in new:
            lines.append(f"  {label:<24} only in BEFORE ({base[key]:.2f} clients/s)")
            continue
        delta = (new[key] - base[key]) / base[key]
        verdict = "ok"
        if delta < -threshold:
            verdict = "REGRESSION"
            regressions.append((label, base[key], new[key], delta))
        lines.append(
            f"  {label:<24} {base[key]:>9.2f} -> {new[key]:>9.2f} clients/s "
            f"({delta:+.1%}) {verdict}"
        )
    return lines, regressions


def check_batched_speedup(before, after, min_speedup, workload="digits_cnn"):
    """Gate the batched backend: fast enough AND bitwise-identical.

    The throughput half is an **introduction gate**: when the BEFORE
    baseline predates the batched backend (no batched entry), the
    candidate's batched clients/sec must be at least ``min_speedup``
    times the serial clients/sec of that pre-vectorization baseline —
    the reference ROADMAP's "Nx serial clients/sec" target is defined
    against.  The candidate's *own* serial entry is deliberately not
    the reference: bitwise-identical digests force both backends
    through the same kernels, so kernel work that speeds the batched
    path speeds serial too and the same-file ratio (reported as
    ``speedup_vs_serial``) structurally undersells the win.  Once a
    baseline carries a batched entry the introduction proof is banked
    and the ordinary drop gate guards batched throughput; this check
    then only enforces digest identity.

    Digest identity between the candidate's serial and batched runs is
    enforced whenever both entries exist.  A candidate without a
    batched entry (partial sweep) passes — only full candidate
    baselines are gated.
    """
    backends = (
        after.get("workloads", {}).get(workload, {}).get("backends", {})
    )
    serial, batched = backends.get("serial"), backends.get("batched")
    if serial is None or batched is None:
        return [
            f"  {workload} serial/batched pair absent in AFTER (skipped)"
        ], False
    identical = batched["history_digest"] == serial["history_digest"]
    digest_note = f"digests {'identical' if identical else 'DIFFER'}"
    base_backends = (
        before.get("workloads", {}).get(workload, {}).get("backends", {})
    )
    if "batched" in base_backends:
        line = (
            f"  {workload} batched already in BEFORE (drop gate guards "
            f"throughput), {digest_note}"
        )
        failed = not identical
        return [line + (" REGRESSION" if failed else " ok")], failed
    base_serial = base_backends.get("serial")
    if base_serial is None:
        return [
            f"  {workload} serial entry absent in BEFORE (skipped), "
            f"{digest_note}"
        ], not identical
    speedup = float(batched["clients_per_sec"]) / float(
        base_serial["clients_per_sec"]
    )
    line = (
        f"  {workload} batched {float(batched['clients_per_sec']):.2f} "
        f"clients/s = {speedup:.2f}x baseline serial "
        f"(minimum {min_speedup:.1f}x; same-file ratio "
        f"{float(batched['speedup_vs_serial']):.2f}x), {digest_note}"
    )
    failed = speedup < min_speedup or not identical
    return [line + (" REGRESSION" if failed else " ok")], failed


def check_obs_overhead(after, max_overhead):
    """Gate the observability tax: sampled tracing must stay cheap.

    The ``obs_overhead`` micro (see
    :func:`repro.experiments.timing.time_obs_overhead`) runs the same
    store-backed population workload with tracing off, head-sampled,
    and full, and records the clients/sec cost of each traced mode
    relative to off.  The **sampled** mode is the one meant for
    production-scale runs, so it is the one gated: its overhead must
    not exceed ``max_overhead`` (default 5%).  Full tracing is
    reported but never gated — it is the debugging mode and priced
    accordingly.  Digest identity across all three modes is enforced
    too: observability must never change the run it observes.

    Returns (report_lines, failed).  A payload without the micro
    (older baseline) passes — only the candidate is gated.
    """
    obs = after.get("micro", {}).get("obs_overhead")
    if obs is None:
        return ["  obs_overhead micro entry absent in AFTER (skipped)"], False
    modes = obs["modes"]
    sampled = float(modes["sampled"]["overhead_vs_off"])
    full = float(modes["full"]["overhead_vs_off"])
    identical = bool(obs["identical_histories"])
    failed = sampled > max_overhead or not identical
    line = (
        f"  obs overhead ({int(obs['population']):,} pop): "
        f"sampled {sampled:+.1%} (max {max_overhead:+.1%}), "
        f"full {full:+.1%} (ungated); histories "
        f"{'identical' if identical else 'DIFFER'}"
    )
    return [line + (" REGRESSION" if failed else " ok")], failed


def check_async_digest(after, require=False):
    """Gate the async engine's S=0 sync-equivalence contract.

    The ``async_vs_sync`` micro (see
    :func:`repro.experiments.timing.time_async_vs_sync`) runs the same
    linear federation through the synchronous trainer and through the
    event engine at staleness bound 0, and records both history
    digests.  Whenever the micro is present, those digests must be
    identical — the engine's whole claim is that S=0 *is* the
    synchronous schedule, bit for bit.  The S=2 throughput figures
    (events/sec, staleness spread) are reported for context, never
    gated.

    With ``require=True`` (the ``--check-async-digest`` flag) a
    payload *without* the micro also fails: the candidate was supposed
    to prove the equivalence and didn't.  Without the flag an absent
    micro passes, so pre-async baselines keep comparing cleanly.

    Returns (report_lines, failed).
    """
    avs = after.get("micro", {}).get("async_vs_sync")
    if avs is None:
        if require:
            return [
                "  async_vs_sync micro entry absent in AFTER "
                "(required by --check-async-digest) REGRESSION"
            ], True
        return ["  async_vs_sync micro entry absent in AFTER (skipped)"], False
    identical = bool(avs["identical"])
    stale = avs.get("stale", {})
    line = (
        f"  async S=0 digest vs sync: "
        f"{'identical' if identical else 'DIFFER'}; "
        f"S={stale.get('staleness_bound')}: "
        f"{float(stale.get('events_per_sec', 0.0)):.0f} events/s, "
        f"staleness p50 {float(stale.get('staleness_p50', 0.0)):.1f} / "
        f"p99 {float(stale.get('staleness_p99', 0.0)):.1f} (ungated)"
    )
    failed = not identical
    return [line + (" REGRESSION" if failed else " ok")], failed


def check_traced_rss(scale, max_ratio):
    """Gate tracing's memory footprint at population scale.

    Points in ``BENCH_scale.json`` that carry a
    ``peak_rss_traced_kib`` column (a traced re-run of the same point
    in its own fresh process) must stay within ``max_ratio`` times the
    tracing-off RSS of that point.  The rollup/sampling design's whole
    claim is constant-memory observability, so a traced 100k-client
    run at 2x the untraced RSS means per-client retention crept back
    in.

    Returns (report_lines, failed).  Points without the column (older
    sweep) are skipped.
    """
    points = scale.get("points", {})
    traced = [
        p for p in points.values() if p.get("peak_rss_traced_kib") is not None
    ]
    if not traced:
        return ["  no traced-RSS columns in scale payload (skipped)"], False
    lines = []
    failed = False
    for point in sorted(traced, key=lambda p: int(p["population"])):
        ratio = float(point["peak_rss_traced_kib"]) / float(
            point["peak_rss_kib"]
        )
        bad = ratio > max_ratio
        failed = failed or bad
        lines.append(
            f"  population {int(point['population']):>9,}: traced rss "
            f"{float(point['peak_rss_traced_kib']) / 1024:8.1f} MiB = "
            f"{ratio:5.2f}x tracing-off (max {max_ratio:.1f}x)"
            + (" REGRESSION" if bad else " ok")
        )
    return lines, failed


def check_scale_rss(scale, max_growth):
    """Gate the population-scale sweep: peak RSS must stay sublinear.

    ``scale`` is a ``BENCH_scale.json`` payload from
    ``tools/bench_scale.py``: each point records the peak RSS of a
    fresh process that federated a fixed cohort over one population
    size.  Every point's RSS must stay within ``max_growth`` times the
    smallest population's RSS — the store's promise is that pool size
    costs shard touches, not resident memory, so 100k (or 1M) clients
    at 10x the 1k-point RSS means O(population) state crept back in.

    Returns (report_lines, failed).
    """
    if scale.get("schema") != "repro-bench-scale/v1":
        raise ValueError(
            f"not a repro-bench-scale/v1 payload (schema={scale.get('schema')!r})"
        )
    points = scale.get("points", {})
    if len(points) < 2:
        return [
            f"  only {len(points)} scale point(s) recorded (skipped)"
        ], False
    by_pop = sorted(points.values(), key=lambda p: int(p["population"]))
    base = by_pop[0]
    base_rss = float(base["peak_rss_kib"])
    lines = []
    failed = False
    for point in by_pop[1:]:
        growth = float(point["peak_rss_kib"]) / base_rss
        bad = growth > max_growth
        failed = failed or bad
        lines.append(
            f"  population {int(point['population']):>9,}: "
            f"rss {float(point['peak_rss_kib']) / 1024:8.1f} MiB = "
            f"{growth:5.2f}x the {int(base['population']):,}-client base "
            f"(max {max_growth:.1f}x)"
            + (" REGRESSION" if bad else " ok")
        )
    return lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path, help="baseline BENCH_timing.json")
    parser.add_argument("after", type=Path, help="candidate BENCH_timing.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="max tolerated fractional throughput drop (default: 0.2)",
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=3.0,
        help="minimum digits_cnn clients/sec of the batched backend "
        "relative to the BEFORE baseline's serial entry when that "
        "baseline predates the batched backend, with identical "
        "history digests (default: 3.0)",
    )
    parser.add_argument(
        "--scale",
        type=Path,
        default=None,
        help="candidate BENCH_scale.json from tools/bench_scale.py; "
        "enables the peak-RSS growth gate",
    )
    parser.add_argument(
        "--max-rss-growth",
        type=float,
        default=10.0,
        help="max tolerated peak-RSS ratio of any scale point over the "
        "smallest-population point (default: 10.0)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="max tolerated clients/sec cost of head-sampled tracing "
        "relative to tracing off, from the obs_overhead micro "
        "(default: 0.05)",
    )
    parser.add_argument(
        "--check-async-digest",
        action="store_true",
        help="require the async_vs_sync micro in the candidate and "
        "fail unless its S=0 history digest matches the synchronous "
        "trainer's (digest identity is enforced whenever the micro "
        "is present, flag or not)",
    )
    parser.add_argument(
        "--max-traced-rss",
        type=float,
        default=2.0,
        help="max tolerated peak-RSS ratio of a traced scale point over "
        "its tracing-off twin (default: 2.0)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.threshold < 1:
        parser.error("--threshold must be in [0, 1)")
    if args.max_rss_growth < 1:
        parser.error("--max-rss-growth must be >= 1")
    if args.max_obs_overhead < 0:
        parser.error("--max-obs-overhead must be >= 0")
    if args.max_traced_rss < 1:
        parser.error("--max-traced-rss must be >= 1")

    before = json.loads(args.before.read_text())
    after = json.loads(args.after.read_text())
    lines, regressions = compare(before, after, args.threshold)
    batched_lines, batched_failed = check_batched_speedup(
        before, after, args.min_batched_speedup
    )
    obs_lines, obs_failed = check_obs_overhead(after, args.max_obs_overhead)
    async_lines, async_failed = check_async_digest(
        after, require=args.check_async_digest
    )
    if args.scale is not None:
        scale_payload = json.loads(args.scale.read_text())
        scale_lines, scale_failed = check_scale_rss(
            scale_payload, args.max_rss_growth
        )
        traced_lines, traced_failed = check_traced_rss(
            scale_payload, args.max_traced_rss
        )
    else:
        scale_lines, scale_failed = ["  no --scale payload (skipped)"], False
        traced_lines, traced_failed = ["  no --scale payload (skipped)"], False

    print(f"throughput comparison (threshold {args.threshold:.0%} drop):")
    print("\n".join(lines))
    print("batched backend:")
    print("\n".join(batched_lines))
    print("observability overhead:")
    print("\n".join(obs_lines))
    print("async engine:")
    print("\n".join(async_lines))
    print("population-scale peak RSS:")
    print("\n".join(scale_lines))
    print("population-scale traced RSS:")
    print("\n".join(traced_lines))
    if (
        regressions
        or batched_failed
        or obs_failed
        or async_failed
        or scale_failed
        or traced_failed
    ):
        failures = (
            len(regressions)
            + (1 if batched_failed else 0)
            + (1 if obs_failed else 0)
            + (1 if async_failed else 0)
            + (1 if scale_failed else 0)
            + (1 if traced_failed else 0)
        )
        print(
            f"\nFAIL: {failures} check(s) regressed beyond their threshold"
        )
        return 1
    print("\nOK: no pair regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""``--compare A.json B.json``: judge B against A, pair by pair.

One row per (workload, metric).  End-to-end timing and memory metrics
get the direction and relative bound BENCHMARK.json declares (plus an
absolute floor for the ones that can be tiny); the verdict is

* ``ok``         — B's median is not worse than A's by more than the bound;
* ``regressed``  — it is;
* ``unresolved`` — either side's own run-to-run spread is wider than the
  bound, so the medians cannot be told apart — unless every run of B
  reads better than every run of A, which is ``ok`` whatever the spread.

Outcome metrics, digests and per-layer counts are a pure function of
(seed, config) and must be exactly equal; any difference is
``regressed``.  The exit code is 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence

__all__ = ["compare_files", "judge", "spread"]

#: End-to-end metrics that repeat exactly for a given seed and config.
EXACT_END_TO_END = ("uploaded_mib", "final_test_accuracy", "ok_share")

#: Absolute floors under the relative bounds: a difference smaller than
#: this is never a regression.  ``setup_s`` is ~20 ms on two workloads
#: and ``peak_rss_mib`` moves by a page-cache whim.
ABSOLUTE_FLOOR = {"setup_s": 0.02, "peak_rss_mib": 2.0}

_DIGEST_KEYS = ("federation_digest", "history_digest")


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median.

    The distance between the quartiles once there are four values,
    the full range below that, 0 for a single run.
    """
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def judge(
    a: Sequence[float], b: Sequence[float], better: str, bound: float,
    floor: float = 0.0,
) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_by > max(bound * abs(med_a), floor):
        return "regressed"
    return "ok"


def _digests(entry: Dict[str, Any]) -> Dict[str, str]:
    """trace-phase/key -> digest, which must agree across a file's sets."""
    out: Dict[str, str] = {}
    for run in entry["runs"]:
        for key in _DIGEST_KEYS:
            name = f"{key}[trace={run['trace']}]"
            if out.setdefault(name, run[key]) != run[key]:
                out[name] = "<differs between sets>"
    return out


def compare_files(path_a: str, path_b: str, declaration: Dict[str, Any]) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    end_to_end = {m["name"]: m for m in declaration["end_to_end"]}
    count_metrics = [
        m["name"] for m in declaration["per_layer"] if m["unit"] == "count"
    ]
    rows: List[tuple] = []
    for name in (w["name"] for w in declaration["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            rows.append((name, "<workload>", "regressed", "missing from a file"))
            continue
        for metric, spec in end_to_end.items():
            va = wa["end_to_end"][metric]["values"]
            vb = wb["end_to_end"][metric]["values"]
            if metric in EXACT_END_TO_END:
                verdict = "ok" if set(va) == set(vb) and len(set(va)) == 1 else "regressed"
                note = "exact"
            else:
                verdict = judge(
                    va, vb, spec["better"], spec["bound"],
                    ABSOLUTE_FLOOR.get(metric, 0.0),
                )
                note = (
                    f"bound {spec['bound']:.2f} spread "
                    f"{spread(va):.3f}/{spread(vb):.3f}"
                )
            rows.append((
                name, metric, verdict,
                f"{statistics.median(va):.6g} -> {statistics.median(vb):.6g} "
                f"{spec['unit']} ({note})",
            ))
        for metric in count_metrics:
            va = wa["per_layer"][metric]["values"]
            vb = wb["per_layer"][metric]["values"]
            same = set(va) == set(vb) and len(set(va)) == 1
            rows.append((
                name, metric, "ok" if same else "regressed",
                f"{va[0]:.6g} -> {vb[0]:.6g} count (exact)",
            ))
        da, db = _digests(wa), _digests(wb)
        for key in sorted(set(da) | set(db)):
            same = da.get(key) == db.get(key) and "<" not in str(da.get(key))
            rows.append((
                name, key, "ok" if same else "regressed",
                f"{str(da.get(key))[:12]} -> {str(db.get(key))[:12]} (exact)",
            ))
        if wa["config_digest"] != wb["config_digest"]:
            rows.append((name, "config_digest", "regressed",
                         "the two files measured different configurations"))
    width = max(len(r[1]) for r in rows)
    for workload, metric, verdict, note in rows:
        print(f"{workload:<16} {metric:<{width}}  {verdict:<10}  {note}")
    tally = {v: sum(r[2] == v for r in rows) for v in ("ok", "unresolved", "regressed")}
    print(f"{tally['ok']} ok, {tally['unresolved']} unresolved, "
          f"{tally['regressed']} regressed")
    return 1 if tally["regressed"] else 0

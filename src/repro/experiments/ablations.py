"""Ablations of CMFL's design choices (beyond the paper's evaluation).

Four design points the paper leaves implicit are measured here:

1. **Threshold schedule** -- constant vs the paper's 1/sqrt(t) decay vs
   linear decay.  The 1/sqrt(t) schedule falls under the relevance
   distribution within a handful of iterations (then filters nothing);
   constant and linear schedules keep filtering throughout.
2. **Feedback staleness** -- CMFL estimates the current global update
   with the previous one; how much does a k-rounds-stale estimate hurt?
3. **Gaia granularity** -- whole-update norm ratio (what the paper
   evaluates) vs the original per-parameter significance.
4. **Relevance granularity** -- Eq. (9) pools all parameters; per-layer
   relevance shows which layers carry the alignment signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.saving import best_reached_accuracy, rounds_to_accuracy
from repro.baselines.gaia import GaiaPolicy
from repro.core.policy import CMFLPolicy, UploadPolicy
from repro.core.relevance import relevance_per_segment
from repro.core.thresholds import (
    ConstantThreshold,
    InverseSqrtThreshold,
    LinearDecayThreshold,
)
from repro.experiments.workloads import DigitsWorkload, resolve_scale
from repro.fl.history import RunHistory
from repro.utils.tables import format_table

__all__ = ["AblationResult", "AblationRun", "main", "run"]

_ROUNDS = {"test": 4, "bench": 30, "paper": 50}


@dataclass
class AblationRun:
    name: str
    history: RunHistory

    def row(self, target: float) -> List:
        phi = rounds_to_accuracy(self.history, target)
        return [
            self.name,
            self.history.final.accumulated_rounds,
            f"{best_reached_accuracy(self.history):.3f}",
            "-" if phi is None else phi,
        ]


@dataclass
class AblationResult:
    scale: str
    target: float
    schedule_runs: List[AblationRun] = field(default_factory=list)
    staleness_runs: List[AblationRun] = field(default_factory=list)
    gaia_runs: List[AblationRun] = field(default_factory=list)
    layer_relevance: Dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        sections = []
        for title, runs in (
            ("Ablation: threshold schedule", self.schedule_runs),
            ("Ablation: feedback staleness", self.staleness_runs),
            ("Ablation: Gaia granularity", self.gaia_runs),
        ):
            sections.append(
                format_table(
                    ["variant", "total phi", "best acc", f"phi@{self.target}"],
                    [r.row(self.target) for r in runs],
                    title=title,
                )
            )
        if self.layer_relevance:
            sections.append(
                format_table(
                    ["layer", "mean relevance"],
                    [[k, f"{v:.3f}"] for k, v in self.layer_relevance.items()],
                    title="Ablation: per-layer relevance (measurement)",
                )
            )
        return "\n\n".join(sections)


def _run(workload: DigitsWorkload, policy: UploadPolicy, rounds: int,
         **overrides) -> RunHistory:
    trainer = workload.make_trainer(policy, rounds=rounds, **overrides)
    return trainer.run()


def run(scale: Optional[str] = None) -> AblationResult:
    """Run all four ablations on the digit workload."""
    scale = resolve_scale(scale)
    rounds = _ROUNDS[scale]
    target = 0.6 if scale != "test" else 0.2
    workload = DigitsWorkload(scale=scale)
    result = AblationResult(scale=scale, target=target)

    # 1. threshold schedules
    for name, schedule in (
        ("constant(0.57)", ConstantThreshold(0.57)),
        ("inv-sqrt(0.8) [paper]", InverseSqrtThreshold(0.8)),
        ("linear(0.6->0.5)", LinearDecayThreshold(0.6, 0.5, rounds)),
    ):
        history = _run(workload, CMFLPolicy(schedule), rounds)
        result.schedule_runs.append(AblationRun(name, history))

    # 2. feedback staleness
    for staleness in (1, 3):
        history = _run(workload, CMFLPolicy(ConstantThreshold(0.57)), rounds,
                       feedback_staleness=staleness)
        result.staleness_runs.append(
            AblationRun(f"staleness={staleness}", history)
        )

    # 3. Gaia granularity
    for name, policy in (
        ("norm-ratio(0.05)", GaiaPolicy(ConstantThreshold(0.05))),
        (
            "per-parameter(0.05)",
            GaiaPolicy(
                ConstantThreshold(0.05),
                mode="per_parameter",
                min_significant_fraction=0.3,
            ),
        ),
    ):
        history = _run(workload, policy, rounds)
        result.gaia_runs.append(AblationRun(name, history))

    # 4. per-layer relevance measurement on a short vanilla-style run.
    trainer = workload.make_trainer(CMFLPolicy(ConstantThreshold(0.0)),
                                    rounds=max(4, rounds // 4))
    boundaries: List[int] = []
    names: List[str] = []
    offset = 0
    for p in trainer.workspace.model.parameters():
        offset += p.size
        boundaries.append(offset)
        names.append(p.name)
    sums = np.zeros(len(boundaries))
    count = 0

    def hook(res, dec) -> None:
        nonlocal count
        feedback = trainer.server.feedback
        if not np.any(feedback):
            return
        sums[:] += relevance_per_segment(res.update, feedback, boundaries)
        count += 1

    trainer.on_decision = hook
    trainer.run()
    if count:
        for name, value in zip(names, sums / count):
            result.layer_relevance[name] = float(value)
    return result


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

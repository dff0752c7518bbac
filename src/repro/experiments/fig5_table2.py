"""Fig. 5 + Table II: CMFL applied to federated multi-task learning.

The paper applies CMFL to MOCHA on two MTL workloads -- Human Activity
Recognition (142 clients) and Semeion Handwritten Digit (15 clients) --
and reports savings of 4.3/5.7x (HAR at 85%/91%) and 1.97/3.3x (SHD at
75%/84%), plus a 1.03-1.04x *accuracy improvement* from excluding
outlier updates.

Our MTL substrate uses the shared-base decomposition (see
:mod:`repro.mtl.mocha`); outlier clients carry corrupted training
labels, so excluding their updates keeps the shared base clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.saving import best_reached_accuracy, rounds_to_accuracy
from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import ConstantThreshold
from repro.data.har import make_har_tasks
from repro.data.semeion import make_semeion_tasks
from repro.experiments.workloads import resolve_scale
from repro.fl.history import RunHistory
from repro.mtl.mocha import MochaTrainer, MTLConfig
from repro.utils.tables import format_table

__all__ = [
    "Fig5Result",
    "MTLComparison",
    "har_config",
    "main",
    "make_tasks",
    "run",
    "run_dataset",
    "shd_config",
]

#: Relevance thresholds.  The paper tunes 0.75 (HAR) / 0.2 (SHD); our
#: relevance distributions sit elsewhere (HAR drifts cluster near 0.5,
#: Semeion's sparse binary features push alignment toward 0.85), so the
#: tuned values differ but play the same role: just below the clean
#: clients' typical relevance.
CMFL_THRESHOLDS = {"har": 0.53, "semeion": 0.83}

#: Accuracy targets per dataset (paper: HAR 85%/91%, SHD 75%/84%).
TARGETS = {"har": (0.80, 0.84), "semeion": (0.75, 0.80)}

_HAR_SIZES = {
    "test": dict(n_clients=12, n_features=40),
    "bench": dict(n_clients=40, n_features=120),
    "paper": dict(n_clients=142, n_features=561),
}
_SHD_SIZES = {
    "test": dict(n_clients=6, total_samples=180),
    "bench": dict(n_clients=15, total_samples=800),
    "paper": dict(n_clients=15, total_samples=1593),
}
_ROUNDS = {"test": 6, "bench": 40, "paper": 200}


def har_config(scale: str, seed: int = 1) -> MTLConfig:
    return MTLConfig(
        rounds=_ROUNDS[scale],
        local_epochs=1,
        batch_size=5,
        lr=0.002,
        eval_every=2,
        seed=seed,
    )


def shd_config(scale: str, seed: int = 3) -> MTLConfig:
    return MTLConfig(
        rounds=_ROUNDS[scale],
        local_epochs=2,
        batch_size=5,
        lr=0.05,
        eval_every=2,
        seed=seed,
    )


def make_tasks(dataset: str, scale: str, seed: int = 0):
    """Fresh task list for ``dataset`` in {"har", "semeion"}."""
    if dataset == "har":
        return make_har_tasks(
            min_samples=10, max_samples=60, rng=seed, **_HAR_SIZES[scale]
        )
    if dataset == "semeion":
        return make_semeion_tasks(rng=seed, **_SHD_SIZES[scale])
    raise ValueError(f"unknown dataset {dataset!r}")


@dataclass
class MTLComparison:
    """Vanilla-MOCHA vs MOCHA+CMFL on one dataset."""

    dataset: str
    targets: Tuple[float, float]
    vanilla: RunHistory
    cmfl: RunHistory
    skips_outliers: float
    skips_clean: float

    def saving(self, target: float) -> Optional[float]:
        phi_v = rounds_to_accuracy(self.vanilla, target)
        phi_c = rounds_to_accuracy(self.cmfl, target)
        if phi_v is None or phi_c is None or phi_c == 0:
            return None
        return phi_v / phi_c

    def accuracy_ratio(self) -> float:
        base = best_reached_accuracy(self.vanilla)
        if base == 0:
            raise ValueError("vanilla never evaluated")
        return best_reached_accuracy(self.cmfl) / base

    def report(self) -> str:
        paper = {
            "har": ((4.3, 5.7), 1.03),
            "semeion": ((1.97, 3.3), 1.04),
        }
        (paper_low, paper_high), paper_acc = paper[self.dataset]
        rows = []
        for i, target in enumerate(self.targets):
            s = self.saving(target)
            rows.append(
                [
                    f"saving@{target}",
                    "-" if s is None else f"{s:.2f}",
                    f"{(paper_low, paper_high)[i]:.2f}",
                ]
            )
        rows.append(
            ["accuracy ratio", f"{self.accuracy_ratio():.3f}", f"{paper_acc:.2f}"]
        )
        rows.append(
            [
                "mean skips outlier/clean",
                f"{self.skips_outliers:.1f} / {self.skips_clean:.1f}",
                "eliminations concentrate on outliers",
            ]
        )
        rows.append(
            [
                "total phi (vanilla/cmfl)",
                f"{self.vanilla.final.accumulated_rounds} / "
                f"{self.cmfl.final.accumulated_rounds}",
                "-",
            ]
        )
        return format_table(
            ["metric", "ours", "paper"],
            rows,
            title=f"Fig 5 / Table II -- MOCHA+CMFL on {self.dataset}",
        )


@dataclass
class Fig5Result:
    scale: str
    comparisons: Dict[str, MTLComparison]

    def report(self) -> str:
        return "\n\n".join(c.report() for c in self.comparisons.values())


def run_dataset(dataset: str, scale: str) -> MTLComparison:
    """Run vanilla MOCHA and MOCHA+CMFL on one dataset."""
    config = har_config(scale) if dataset == "har" else shd_config(scale)
    vanilla = MochaTrainer(
        make_tasks(dataset, scale), VanillaPolicy(), config
    ).run()
    tasks = make_tasks(dataset, scale)
    trainer = MochaTrainer(
        tasks, CMFLPolicy(ConstantThreshold(CMFL_THRESHOLDS[dataset])), config
    )
    cmfl = trainer.run()
    skips = np.asarray(trainer.ledger.elimination_counts(len(tasks)), dtype=float)
    outliers = np.asarray([t.is_outlier for t in tasks])
    skips_outliers = float(skips[outliers].mean()) if outliers.any() else 0.0
    skips_clean = float(skips[~outliers].mean()) if (~outliers).any() else 0.0
    return MTLComparison(
        dataset=dataset,
        targets=TARGETS[dataset],
        vanilla=vanilla,
        cmfl=cmfl,
        skips_outliers=skips_outliers,
        skips_clean=skips_clean,
    )


def run(scale: Optional[str] = None) -> Fig5Result:
    """Reproduce Fig. 5 and Table II at the requested scale."""
    scale = resolve_scale(scale)
    return Fig5Result(
        scale=scale,
        comparisons={
            "har": run_dataset("har", scale),
            "semeion": run_dataset("semeion", scale),
        },
    )


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

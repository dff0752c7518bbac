"""Fig. 4 + Table I: accuracy vs accumulated communication rounds.

The paper compares vanilla FL, Gaia and CMFL on both workloads and
reports the *saving* (vanilla's accumulated communication rounds over
the compared algorithm's) at two target accuracies per workload.  Like
the paper (Sec. V-A), each filtering policy is swept over several
thresholds and the best-performing configuration per target is
reported.

Paper numbers (Table I): MNIST CNN -- Gaia 1.25/1.13, CMFL 3.45/3.47;
NWP LSTM -- Gaia 1.42/1.26, CMFL 13.35/13.97.  Our smaller federation
preserves the ordering (CMFL > Gaia > 1) with smaller factors; the
``paper`` scale runs the full threshold sweep on the paper's federation
(100 clients, E=4, B=2) at the bench model widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.saving import best_reached_accuracy, rounds_to_accuracy
from repro.baselines.gaia import GaiaPolicy
from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy, UploadPolicy
from repro.core.thresholds import (
    ConstantThreshold,
    InverseSqrtThreshold,
    LinearDecayThreshold,
)
from repro.experiments.workloads import DigitsWorkload, NWPWorkload, resolve_scale
from repro.fl.history import RunHistory
from repro.utils.tables import format_table

__all__ = ["Fig4Result", "WorkloadComparison", "main", "run"]

#: Target accuracies per workload.  The paper uses 60%/80% on its real
#: datasets; our synthetic NWP corpus has a lower attainable ceiling, so
#: its targets sit at comparable relative heights of the vanilla curve.
TARGETS = {"digits_cnn": (0.6, 0.8), "nwp_lstm": (0.2, 0.3)}


def _digit_policies(scale: str, rounds: int) -> Dict[str, UploadPolicy]:
    sweep: Dict[str, UploadPolicy] = {
        "gaia(0.05)": GaiaPolicy(ConstantThreshold(0.05)),
        "cmfl(0.57)": CMFLPolicy(ConstantThreshold(0.57)),
        "cmfl(lin 0.58-0.50)": CMFLPolicy(
            LinearDecayThreshold(0.58, 0.50, rounds)
        ),
    }
    if scale == "paper":
        for v in (0.02, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 0.7, 0.9):
            sweep[f"gaia({v})"] = GaiaPolicy(ConstantThreshold(v))
        for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9):
            sweep[f"cmfl({v})"] = CMFLPolicy(InverseSqrtThreshold(v))
    return sweep


def _nwp_policies(scale: str, rounds: int) -> Dict[str, UploadPolicy]:
    sweep: Dict[str, UploadPolicy] = {
        "gaia(0.25)": GaiaPolicy(ConstantThreshold(0.25)),
        "cmfl(lin 0.54-0.48)": CMFLPolicy(
            LinearDecayThreshold(0.54, 0.48, rounds)
        ),
    }
    if scale == "bench":
        sweep["gaia(0.15)"] = GaiaPolicy(ConstantThreshold(0.15))
    if scale == "paper":
        for v in (0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
            sweep[f"gaia({v})"] = GaiaPolicy(ConstantThreshold(v))
        for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9):
            sweep[f"cmfl({v})"] = CMFLPolicy(InverseSqrtThreshold(v))
    return sweep


@dataclass
class WorkloadComparison:
    """All runs of one workload plus the derived savings."""

    workload: str
    targets: Tuple[float, float]
    histories: Dict[str, RunHistory] = field(default_factory=dict)

    def curve(self, run_name: str) -> Tuple[np.ndarray, np.ndarray]:
        """(accumulated rounds, accuracy) -- the Fig. 4 series."""
        _, comm, acc = self.histories[run_name].evaluated_points()
        return comm, acc

    def best_saving(self, family: str, target: float) -> Optional[float]:
        """Best saving across the swept thresholds of ``family``.

        Mirrors the paper's methodology: for each algorithm the
        best-performing threshold (per target) is reported.  When the
        vanilla baseline never reaches ``target`` but a filtered run
        does, the saving is unbounded and reported as infinity.
        """
        base = rounds_to_accuracy(self.histories["vanilla"], target)
        if base is None:
            for name, history in self.histories.items():
                if (name.startswith(family)
                        and rounds_to_accuracy(history, target) is not None):
                    return float("inf")
            return None
        best: Optional[float] = None
        for name, history in self.histories.items():
            if not name.startswith(family):
                continue
            phi = rounds_to_accuracy(history, target)
            if phi is None or phi == 0:
                continue
            s = base / phi
            if best is None or s > best:
                best = s
        return best

    def report(self) -> str:
        paper_saving = {
            ("digits_cnn", "gaia"): (1.25, 1.13),
            ("digits_cnn", "cmfl"): (3.45, 3.47),
            ("nwp_lstm", "gaia"): (1.42, 1.26),
            ("nwp_lstm", "cmfl"): (13.35, 13.97),
        }
        lines = []
        rows = []
        for name, history in self.histories.items():
            phis = [rounds_to_accuracy(history, a) for a in self.targets]
            rows.append(
                [
                    name,
                    history.final.accumulated_rounds,
                    f"{best_reached_accuracy(history):.3f}",
                ]
                + [("-" if p is None else p) for p in phis]
            )
        lines.append(
            format_table(
                ["run", "total phi", "best acc"]
                + [f"phi@{a}" for a in self.targets],
                rows,
                title=f"Fig 4 -- {self.workload}: accuracy vs accumulated "
                "communication rounds",
            )
        )
        save_rows = []
        for family in ("gaia", "cmfl"):
            ours = [self.best_saving(family, a) for a in self.targets]
            paper_low, paper_high = paper_saving[(self.workload, family)]
            save_rows.append(
                [
                    family,
                    "-" if ours[0] is None else f"{ours[0]:.2f}",
                    f"{paper_low:.2f}",
                    "-" if ours[1] is None else f"{ours[1]:.2f}",
                    f"{paper_high:.2f}",
                ]
            )
        lines.append(
            format_table(
                ["algorithm",
                 f"saving@{self.targets[0]} (ours)", "paper low-acc",
                 f"saving@{self.targets[1]} (ours)", "paper high-acc"],
                save_rows,
                title=f"Table I -- saving, {self.workload}",
            )
        )
        return "\n\n".join(lines)


@dataclass
class Fig4Result:
    scale: str
    comparisons: Dict[str, WorkloadComparison]

    def report(self) -> str:
        return "\n\n".join(c.report() for c in self.comparisons.values())


def _run_workload(
    name: str,
    workload,
    policies: Dict[str, UploadPolicy],
) -> WorkloadComparison:
    comparison = WorkloadComparison(workload=name, targets=TARGETS[name])
    comparison.histories["vanilla"] = workload.make_trainer(VanillaPolicy()).run()
    for policy_name, policy in policies.items():
        comparison.histories[policy_name] = workload.make_trainer(policy).run()
    return comparison


def run(
    scale: Optional[str] = None, workloads: Optional[List[str]] = None
) -> Fig4Result:
    """Reproduce Fig. 4 and Table I.

    ``workloads`` restricts the run to a subset of
    {"digits_cnn", "nwp_lstm"} (both by default).
    """
    scale = resolve_scale(scale)
    selected = workloads or ["digits_cnn", "nwp_lstm"]
    comparisons: Dict[str, WorkloadComparison] = {}
    if "digits_cnn" in selected:
        digits = DigitsWorkload(scale=scale)
        comparisons["digits_cnn"] = _run_workload(
            "digits_cnn", digits, _digit_policies(scale, digits.params.rounds)
        )
    if "nwp_lstm" in selected:
        nwp = NWPWorkload(scale=scale)
        comparisons["nwp_lstm"] = _run_workload(
            "nwp_lstm", nwp, _nwp_policies(scale, nwp.params.rounds)
        )
    return Fig4Result(scale=scale, comparisons=comparisons)


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

"""Fig. 7: the cluster (EC2) emulation of the NWP workload.

The paper's 30-node EC2 deployment re-runs the NWP LSTM comparison on a
real master/slave prototype and reports (a) the accuracy-vs-rounds
curves (Fig. 7a, same shape as the simulation) and (b) the uploaded
data volume in MB at three accuracy levels (Fig. 7b), where CMFL ships
6.4-7.1x less data.  Sec. V-C also measures the relevance check at
<0.13% of a local training iteration.

We run the same federated rounds and replay the finished history
through the cluster emulation of :mod:`repro.emu`, which accounts every
protocol message byte-by-byte (model broadcast with feedback, full
updates, tiny status notices for withheld updates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.saving import bytes_to_accuracy, rounds_to_accuracy
from repro.baselines.gaia import GaiaPolicy
from repro.baselines.vanilla import VanillaPolicy
from repro.core.policy import CMFLPolicy, UploadPolicy
from repro.core.thresholds import ConstantThreshold, LinearDecayThreshold
from repro.emu.cluster import EmulationReport, emulate_cluster
from repro.experiments.fig4_table1 import TARGETS
from repro.experiments.workloads import NWPWorkload, resolve_scale
from repro.fl.history import RunHistory
from repro.utils.tables import format_table

__all__ = ["Fig7Result", "main", "run"]

#: Accuracy levels for the Fig. 7b byte-volume comparison; ``paper``
#: takes Table I's NWP targets, which the bench-width LSTM reaches.
ACCURACY_LEVELS = {"test": (0.05,), "bench": (0.12, 0.18, 0.22),
                   "paper": TARGETS["nwp_lstm"]}

_ROUNDS = {"test": 4, "bench": 30, "paper": 150}


def _policies(rounds: int) -> Dict[str, UploadPolicy]:
    return {
        "vanilla": VanillaPolicy(),
        "gaia": GaiaPolicy(ConstantThreshold(0.15)),
        "cmfl": CMFLPolicy(LinearDecayThreshold(0.54, 0.48, rounds)),
    }


@dataclass
class Fig7Result:
    scale: str
    histories: Dict[str, RunHistory]
    reports: Dict[str, EmulationReport]
    levels: Tuple[float, ...]

    def curve(self, name: str):
        _, comm, acc = self.histories[name].evaluated_points()
        return comm, acc

    def data_reduction(self, target: float) -> Optional[float]:
        """vanilla MB / CMFL MB at ``target`` (paper: 6.4-7.1x)."""
        bytes_v = bytes_to_accuracy(self.histories["vanilla"], target)
        bytes_c = bytes_to_accuracy(self.histories["cmfl"], target)
        if bytes_v is None or bytes_c is None or bytes_c == 0:
            return None
        return (bytes_v / 1e6) / (bytes_c / 1e6)

    def report(self) -> str:
        lines: List[str] = []
        rows = []
        for name, history in self.histories.items():
            report = self.reports[name]
            phis = [rounds_to_accuracy(history, a) for a in self.levels]
            rows.append(
                [
                    name,
                    history.final.accumulated_rounds,
                    f"{report.uploaded_megabytes:.2f}",
                    f"{report.simulated_seconds:.1f}",
                ]
                + [("-" if p is None else p) for p in phis]
            )
        lines.append(
            format_table(
                ["policy", "total phi", "uploaded MB", "sim seconds"]
                + [f"phi@{a}" for a in self.levels],
                rows,
                title=f"Fig 7a -- cluster emulation, NWP LSTM (scale={self.scale})",
            )
        )
        reduction_rows = []
        for level in self.levels:
            r = self.data_reduction(level)
            reduction_rows.append(
                [f"acc {level}", "-" if r is None else f"{r:.2f}",
                 "paper: 6.4-7.1x"]
            )
        overhead = self.reports["cmfl"].relevance_overhead_fraction()
        reduction_rows.append(
            ["relevance check / local compute", f"{overhead:.5f}",
             "paper: <0.0013"]
        )
        lines.append(
            format_table(
                ["metric", "ours", "paper"],
                reduction_rows,
                title="Fig 7b -- uploaded data reduction (vanilla / CMFL)",
            )
        )
        return "\n\n".join(lines)


def run(scale: Optional[str] = None) -> Fig7Result:
    """Reproduce Figs. 7a/7b at the requested scale."""
    scale = resolve_scale(scale)
    rounds = _ROUNDS[scale]
    levels = ACCURACY_LEVELS[scale]
    histories: Dict[str, RunHistory] = {}
    reports: Dict[str, EmulationReport] = {}
    for name, policy in _policies(rounds).items():
        workload = NWPWorkload(scale=scale)
        trainer = workload.make_trainer(policy, rounds=rounds)
        histories[name] = trainer.run(rounds)
        reports[name] = emulate_cluster(
            histories[name],
            {c.client_id: c.n_samples for c in trainer.clients},
            trainer.server.n_params,
            trainer.config.local_epochs,
            feedback_in_broadcast=(name == "cmfl"),
        )
    return Fig7Result(
        scale=scale, histories=histories, reports=reports, levels=levels
    )


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

"""Fig. 2: Gaia's significance decays, CMFL's relevance stays stable.

The paper trains the MNIST CNN and plots (a) the average magnitude
significance ||update/model|| of all clients per iteration -- which
decays exponentially, making Gaia's threshold untunable -- and (b) the
average sign-alignment relevance of Eq. (9), which stays flat.

We record both measures for every client's update in every round of a
vanilla run of the digit workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.gaia import gaia_significance
from repro.baselines.vanilla import VanillaPolicy
from repro.core.relevance import relevance
from repro.experiments.workloads import DigitsWorkload, resolve_scale
from repro.utils.tables import format_table

__all__ = ["Fig2Result", "main", "run"]

_ROUNDS = {"test": 4, "bench": 40, "paper": 50}


@dataclass
class Fig2Result:
    """Per-round mean significance (Fig. 2a) and relevance (Fig. 2b)."""

    scale: str
    significance: np.ndarray  # (rounds,)
    relevance: np.ndarray  # (rounds,)

    def significance_decay_factor(self) -> float:
        """significance(first quarter) / significance(last quarter).

        The paper's Fig. 2a shows orders-of-magnitude decay; any value
        well above 1 reproduces the qualitative finding.
        """
        q = max(1, len(self.significance) // 4)
        return float(np.mean(self.significance[:q]) / np.mean(self.significance[-q:]))

    def relevance_drift(self) -> float:
        """|relevance(last quarter) - relevance(first quarter)|, absolute.

        Fig. 2b's claim is stability: this should stay small (the
        measure lives in [0, 1]).
        """
        q = max(1, len(self.relevance) // 4)
        return float(abs(np.mean(self.relevance[-q:]) - np.mean(self.relevance[:q])))

    def report(self) -> str:
        rows = [
            [
                "gaia significance",
                f"{self.significance[0]:.4f}",
                f"{self.significance[-1]:.4f}",
                f"decays {self.significance_decay_factor():.1f}x "
                "(paper: exponential decay)",
            ],
            [
                "cmfl relevance",
                f"{self.relevance[0]:.4f}",
                f"{self.relevance[-1]:.4f}",
                f"drift {self.relevance_drift():.3f} (paper: stable)",
            ],
        ]
        return format_table(
            ["measure", "first round", "last round", "behaviour"],
            rows,
            title=f"Fig 2 -- measure stability over iterations (scale={self.scale})",
        )


def run(scale: Optional[str] = None) -> Fig2Result:
    """Reproduce Figs. 2a/2b at the requested scale."""
    scale = resolve_scale(scale)
    rounds = _ROUNDS[scale]
    workload = DigitsWorkload(scale=scale)
    trainer = workload.make_trainer(VanillaPolicy(), rounds=rounds, eval_every=rounds)

    per_round_sig: list = []
    per_round_rel: list = []
    sig_acc: list = []
    rel_acc: list = []

    def hook(result, decision) -> None:
        del decision
        sig_acc.append(
            gaia_significance(result.update, trainer.server.global_params)
        )
        rel_acc.append(relevance(result.update, trainer.server.feedback))

    trainer.on_decision = hook
    for t in range(1, rounds + 1):
        trainer.run_round(t)
        per_round_sig.append(float(np.mean(sig_acc)))
        per_round_rel.append(float(np.mean(rel_acc)))
        sig_acc.clear()
        rel_acc.clear()

    return Fig2Result(
        scale=scale,
        significance=np.asarray(per_round_sig),
        relevance=np.asarray(per_round_rel),
    )


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

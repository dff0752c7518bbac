"""Fig. 3: CDF of the normalized difference between sequential global updates.

CMFL's feedback trick estimates the current global update with the
previous one (Eq. 8).  The paper validates this by showing
||u_{t+1} - u_t|| / ||u_t|| is below 0.05 for >99% (MNIST CNN) and
>93% (NWP LSTM) of iterations.

Note on our smaller scale: with 10-30 clients instead of 100 the global
update averages fewer locals, so round-to-round variation is larger and
the sub-0.05 mass smaller than the paper's; what must survive is the
*concentration near small values* that makes the previous update a
usable estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.cdf import fraction_below, quantile
from repro.baselines.vanilla import VanillaPolicy
from repro.experiments.workloads import DigitsWorkload, NWPWorkload, resolve_scale
from repro.utils.tables import format_table

__all__ = ["Fig3Result", "main", "run"]

_ROUNDS = {"test": 4, "bench": 25, "paper": 500}


@dataclass
class Fig3Result:
    """Delta-update samples per workload."""

    scale: str
    deltas: Dict[str, np.ndarray]

    def stats(self, model: str) -> Dict[str, float]:
        d = self.deltas[model]
        return {
            "fraction_below_0.05": fraction_below(d, 0.05),
            "median": quantile(d, 0.5),
            "max": float(np.max(d)),
        }

    def report(self) -> str:
        paper = {"digits_cnn": (0.99, 0.67), "nwp_lstm": (0.93, 0.21)}
        rows = []
        for model, d in self.deltas.items():
            s = self.stats(model)
            frac_paper, max_paper = paper[model]
            rows.append(
                [
                    model,
                    f"{s['median']:.3f}",
                    f"{s['fraction_below_0.05']:.2f}",
                    f"{frac_paper:.2f}",
                    f"{s['max']:.2f}",
                    f"{max_paper:.2f}",
                ]
            )
        return format_table(
            ["model", "median dU (ours)", "frac<0.05 (ours)",
             "frac<0.05 (paper)", "max (ours)", "max (paper)"],
            rows,
            title=f"Fig 3 -- Delta-Update between sequential global updates "
            f"(scale={self.scale})",
        )


def run(scale: Optional[str] = None) -> Fig3Result:
    """Reproduce Fig. 3 at the requested scale."""
    scale = resolve_scale(scale)
    rounds = _ROUNDS[scale]

    deltas: Dict[str, np.ndarray] = {}
    for name, workload in (
        ("digits_cnn", DigitsWorkload(scale=scale)),
        ("nwp_lstm", NWPWorkload(scale=scale)),
    ):
        trainer = workload.make_trainer(
            VanillaPolicy(), rounds=rounds, eval_every=rounds
        )
        trainer.run(rounds)
        observed = trainer.server.estimator.delta_updates
        if not observed:
            raise RuntimeError(f"no delta updates recorded for {name}")
        deltas[name] = np.asarray(observed)
    return Fig3Result(scale=scale, deltas=deltas)


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

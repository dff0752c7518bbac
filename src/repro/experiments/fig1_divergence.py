"""Fig. 1: CDF of the Normalized Model Divergence d_j.

The paper trains MNIST CNN and NWP LSTM across 100 clients and finds
that more than 50% of parameters diverge by over 100% between client
and global models (maxima 268 and 175) -- the motivation for filtering
client-specific outlier updates.

We run each federation for a few warm-up rounds, then have every client
perform one more local optimisation from the shared global model and
measure Eq. (7) across the resulting client-side parameter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.analysis.cdf import fraction_below
from repro.analysis.divergence import normalized_model_divergence
from repro.baselines.vanilla import VanillaPolicy
from repro.experiments.workloads import DigitsWorkload, NWPWorkload, resolve_scale
from repro.fl.executor import RoundPlan
from repro.fl.trainer import FederatedTrainer
from repro.utils.tables import format_table

__all__ = ["Fig1Result", "main", "measure_divergence", "run"]

#: Warm-up rounds before divergence is measured, per scale.
_WARMUP = {"test": 2, "bench": 10, "paper": 50}


def measure_divergence(trainer: FederatedTrainer, warmup_rounds: int) -> np.ndarray:
    """Warm the federation up, then measure per-parameter divergence.

    Every client runs one local optimisation from the current global
    model; Eq. (7) compares the resulting local parameter vectors with
    the global vector.
    """
    if warmup_rounds > 0:
        trainer.run(warmup_rounds)
    global_params = trainer.server.global_params.copy()
    lr = trainer.config.lr(max(len(trainer.history), 1))
    # The paper measures fully locally-trained client models, so the
    # probe runs several times the per-round local epochs.  It goes
    # through the trainer's executor like a regular round, so the probe
    # vectorizes under the batched backend too.
    plan = RoundPlan(
        iteration=max(len(trainer.history), 1),
        lr=lr,
        local_epochs=4 * trainer.config.local_epochs,
        batch_size=trainer.config.batch_size,
        global_params=global_params,
    )
    results = trainer.executor.run_round(plan, trainer.clients)
    client_params = [global_params + r.update for r in results]
    return normalized_model_divergence(client_params, global_params)


@dataclass
class Fig1Result:
    """Divergence distributions for the two workloads."""

    scale: str
    divergences: Dict[str, np.ndarray]

    def stats(self, model: str) -> Dict[str, float]:
        d = self.divergences[model]
        return {
            "median": float(np.median(d)),
            "fraction_above_100pct": 1.0 - fraction_below(d, 1.0),
            "max": float(np.max(d)),
        }

    def report(self) -> str:
        rows = []
        paper = {
            "digits_cnn": (">0.5", 268.0),
            "nwp_lstm": (">0.5", 175.0),
        }
        for model, d in self.divergences.items():
            s = self.stats(model)
            frac_paper, max_paper = paper[model]
            rows.append(
                [
                    model,
                    f"{s['fraction_above_100pct']:.2f}",
                    frac_paper,
                    f"{s['max']:.1f}",
                    f"{max_paper:.0f}",
                    f"{s['median']:.2f}",
                ]
            )
        return format_table(
            ["model", "frac d>1 (ours)", "frac d>1 (paper)",
             "max d (ours)", "max d (paper)", "median d (ours)"],
            rows,
            title=f"Fig 1 -- Normalized Model Divergence (scale={self.scale})",
        )


def run(scale: Optional[str] = None) -> Fig1Result:
    """Reproduce Fig. 1 at the requested scale."""
    scale = resolve_scale(scale)
    warmup = _WARMUP[scale]

    digits = DigitsWorkload(scale=scale)
    digits_trainer = digits.make_trainer(VanillaPolicy())
    d_digits = measure_divergence(digits_trainer, warmup)

    nwp = NWPWorkload(scale=scale)
    nwp_trainer = nwp.make_trainer(VanillaPolicy())
    d_nwp = measure_divergence(nwp_trainer, warmup)

    return Fig1Result(
        scale=scale,
        divergences={"digits_cnn": d_digits, "nwp_lstm": d_nwp},
    )


def main() -> None:
    print(run().report())


if __name__ == "__main__":
    main()

"""Per-(round, client) virtual latencies and churn.

Each ``(iteration, client)`` pair owns a dedicated hash-derived RNG
stream — ``SeedSequence(entropy=(seed, STREAM_TAG, iteration,
client_id))``, the same stream idiom :mod:`repro.fl.store` uses for
client training RNGs, under its own domain tag so latency draws can
never collide with (or consume from) a training stream.  A client's
simulated round-trip is therefore a pure function of (seed, config):
the event schedule it induces is bitwise-reproducible on any backend
and across resumes, with *no RNG object to checkpoint*.

The cost model reuses :mod:`repro.emu.network`: download the global
model over the link, train (``NodeComputeModel`` seconds scaled by a
lognormal per-draw speed factor — the straggler knob), upload the
update.  Churn is a Bernoulli drop per (round, client): a dropped
client still computes (the device worked; its upload never landed) but
its result is discarded and its arrival never scheduled.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.emu.network import MOBILE_LINK, NodeComputeModel
from repro.nn.serialization import update_nbytes
from repro.utils.rng import stream_seed

__all__ = ["ClientTiming", "LatencyModel", "STREAM_TAG"]

#: Entropy-domain tag separating latency streams from every other
#: SeedSequence family in the tree (client stores use bare
#: ``(seed, index)``).
STREAM_TAG = 0x1A7E9C


class ClientTiming(NamedTuple):
    """One client's simulated fate in one round."""

    dropped: bool
    latency_s: float


class LatencyModel:
    """Draws :class:`ClientTiming` from pure per-(round, client) streams,
    over :data:`~repro.emu.network.MOBILE_LINK` and the default
    :class:`~repro.emu.network.NodeComputeModel`."""

    def __init__(
        self,
        seed: int,
        n_params: int,
        speed_sigma: float = 0.5,
        drop_rate: float = 0.0,
    ) -> None:
        if n_params < 1:
            raise ValueError("n_params must be >= 1")
        if speed_sigma < 0.0:
            raise ValueError(f"speed_sigma must be >= 0, got {speed_sigma}")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.seed = int(seed)
        self.n_params = int(n_params)
        self.compute = NodeComputeModel()
        self.speed_sigma = float(speed_sigma)
        self.drop_rate = float(drop_rate)
        # The model crosses the link once down and once up at the same
        # cost for every client of every round.
        self._transfer_s = MOBILE_LINK.transfer_time(update_nbytes(self.n_params))

    def timing(
        self,
        iteration: int,
        client_id: int,
        n_samples: int,
        local_epochs: int,
    ) -> ClientTiming:
        """The (drop decision, round-trip latency) for one dispatch.

        A fresh generator per call, from the pair's own SeedSequence:
        no state survives between calls, so the draw order across
        clients/rounds cannot matter.  The drop decision is drawn
        first, then the speed factor — both always consumed, so a
        dropped client's latency is still defined (the all-dropped
        rescue needs it).
        """
        rng = np.random.default_rng(
            stream_seed(self.seed, STREAM_TAG, int(iteration), int(client_id))
        )
        dropped = bool(rng.random() < self.drop_rate)
        train = self.compute.local_training_time(n_samples, local_epochs)
        if self.speed_sigma > 0.0:
            train *= float(np.exp(self.speed_sigma * rng.standard_normal()))
        # down + train + up, in that order.
        return ClientTiming(dropped, self._transfer_s + train + self._transfer_s)

    def __repr__(self) -> str:
        return (
            f"LatencyModel(seed={self.seed}, n_params={self.n_params}, "
            f"speed_sigma={self.speed_sigma}, drop_rate={self.drop_rate})"
        )

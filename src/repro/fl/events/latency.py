"""Per-(round, client) virtual latencies and churn.

Each ``(iteration, client)`` pair owns a dedicated hash-derived RNG
stream — ``SeedSequence(entropy=(seed, STREAM_TAG, iteration,
client_id))``, the same stream idiom :mod:`repro.fl.store` uses for
client training RNGs, under its own domain tag so latency draws can
never collide with (or consume from) a training stream.  A client's
simulated round-trip is therefore a pure function of (seed, config):
the event schedule it induces is bitwise-reproducible on any backend
and across resumes, with *no RNG object to checkpoint*.

The cost model is this module's constants: download the global model
over a phone-grade link (:data:`LINK_LATENCY_S` plus the bytes at
:data:`LINK_BANDWIDTH_BPS`), train (:data:`TRAIN_SECONDS_PER_SAMPLE`
per sample and epoch, scaled by a lognormal speed factor of sigma
:data:`SPEED_SIGMA` — the stragglers), upload the update over the same
link.  This is the tree's one model of time; its one model of bytes is
:class:`~repro.fl.accounting.CommunicationLedger`.  Churn is a
Bernoulli drop per (round, client): a dropped client still computes
(the device worked; its upload never landed) but its result is
discarded and its arrival never scheduled.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.nn.serialization import update_nbytes
from repro.utils.rng import stream_seed

__all__ = [
    "ClientTiming",
    "LINK_BANDWIDTH_BPS",
    "LINK_LATENCY_S",
    "LatencyModel",
    "SPEED_SIGMA",
    "STREAM_TAG",
    "TRAIN_SECONDS_PER_SAMPLE",
]

#: Entropy-domain tag separating latency streams from every other
#: SeedSequence family in the tree (client stores use bare
#: ``(seed, index)``).
STREAM_TAG = 0x1A7E9C

#: The link every client downloads and uploads over (LTE-uplink-ish):
#: a fixed latency per crossing plus the bytes at this bandwidth.
LINK_LATENCY_S = 0.05
LINK_BANDWIDTH_BPS = 5e6

#: One forward/backward pass of one sample in one local epoch.
TRAIN_SECONDS_PER_SAMPLE = 2e-3

#: Sigma of the lognormal per-draw speed factor on training time.
SPEED_SIGMA = 0.5


class ClientTiming(NamedTuple):
    """One client's simulated fate in one round."""

    dropped: bool
    latency_s: float


class LatencyModel:
    """Draws :class:`ClientTiming` from pure per-(round, client) streams,
    under this module's link and compute constants."""

    def __init__(self, seed: int, n_params: int, drop_rate: float = 0.0) -> None:
        if n_params < 1:
            raise ValueError("n_params must be >= 1")
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        self.seed = int(seed)
        self.n_params = int(n_params)
        self.drop_rate = float(drop_rate)
        # The model crosses the link once down and once up at the same
        # cost for every client of every round.
        self._transfer_s = (
            LINK_LATENCY_S + 8.0 * update_nbytes(self.n_params) / LINK_BANDWIDTH_BPS
        )

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
        train = TRAIN_SECONDS_PER_SAMPLE * n_samples * local_epochs
        train *= float(np.exp(SPEED_SIGMA * rng.standard_normal()))
        # down + train + up, in that order.
        return ClientTiming(dropped, self._transfer_s + train + self._transfer_s)

    def __repr__(self) -> str:
        return (
            f"LatencyModel(seed={self.seed}, n_params={self.n_params}, "
            f"drop_rate={self.drop_rate})"
        )

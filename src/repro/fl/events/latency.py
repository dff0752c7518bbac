"""Per-(round, client) virtual latencies and churn.

Each ``(iteration, client)`` pair owns a dedicated hash-derived RNG
stream — ``SeedSequence(entropy=(seed, STREAM_TAG, iteration,
client_id))``, the same stream idiom :mod:`repro.fl.store` uses for
client training RNGs, under its own domain tag so latency draws can
never collide with (or consume from) a training stream.  A client's
simulated round-trip is therefore a pure function of (seed, config):
the event schedule it induces is bitwise-reproducible on any backend
and across resumes, with *no RNG object to checkpoint*.

The cost model is this module's link and compute constants: download
the global model over :data:`MOBILE_LINK`, train
(:class:`NodeComputeModel` seconds scaled by a lognormal per-draw speed
factor — the straggler knob), upload the update.  This is the tree's
one model of time; its one model of bytes is
:class:`~repro.fl.accounting.CommunicationLedger`.  Churn is a
Bernoulli drop per (round, client): a dropped client still computes
(the device worked; its upload never landed) but its result is
discarded and its arrival never scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.nn.serialization import update_nbytes
from repro.utils.rng import stream_seed

__all__ = [
    "MOBILE_LINK",
    "ClientTiming",
    "LatencyModel",
    "LinkModel",
    "NodeComputeModel",
    "STREAM_TAG",
]

#: Entropy-domain tag separating latency streams from every other
#: SeedSequence family in the tree (client stores use bare
#: ``(seed, index)``).
STREAM_TAG = 0x1A7E9C


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point link: fixed latency plus bandwidth-limited transfer."""

    bandwidth_bps: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")

    def transfer_time(self, n_bytes: int) -> float:
        """Seconds to move ``n_bytes`` across the link."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        return self.latency_s + 8.0 * n_bytes / self.bandwidth_bps


#: A phone-grade link (LTE uplink-ish): what every client of the async
#: engine downloads and uploads over.
MOBILE_LINK = LinkModel(bandwidth_bps=5e6, latency_s=0.05)


@dataclass(frozen=True)
class NodeComputeModel:
    """Per-client computation cost: ``train_seconds_per_sample`` covers
    one forward/backward pass of one sample in one local epoch."""

    train_seconds_per_sample: float = 2e-3

    def __post_init__(self) -> None:
        if self.train_seconds_per_sample <= 0:
            raise ValueError("train_seconds_per_sample must be positive")

    def local_training_time(self, n_samples: int, local_epochs: int) -> float:
        if n_samples < 0 or local_epochs < 0:
            raise ValueError("counts must be >= 0")
        return self.train_seconds_per_sample * n_samples * local_epochs


class ClientTiming(NamedTuple):
    """One client's simulated fate in one round."""

    dropped: bool
    latency_s: float


class LatencyModel:
    """Draws :class:`ClientTiming` from pure per-(round, client) streams,
    over :data:`MOBILE_LINK` and the default :class:`NodeComputeModel`."""

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

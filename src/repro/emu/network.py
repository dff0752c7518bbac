"""Link and compute models for the cluster emulation.

Defaults approximate the paper's m4.xlarge EC2 instances: high-
bandwidth stable links (the paper chose EC2 over real phones exactly
because bandwidth does not affect the footprint metric) and roughly
1.25 s per client-side learning iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LinkModel", "NodeComputeModel"]


@dataclass(frozen=True)
class LinkModel:
    """A point-to-point link: fixed latency plus bandwidth-limited transfer."""

    bandwidth_bps: float = 1e9  # EC2-like
    latency_s: float = 5e-4

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


#: A mobile-grade link for the "what if this ran on real phones"
#: sensitivity analysis (LTE uplink-ish).
MOBILE_LINK = LinkModel(bandwidth_bps=5e6, latency_s=0.05)


@dataclass(frozen=True)
class NodeComputeModel:
    """Per-client computation cost model.

    ``train_seconds_per_sample`` covers one forward/backward pass of one
    sample in one local epoch; ``relevance_seconds_per_param`` the
    sign-comparison cost per model parameter (measured to be tens of
    nanoseconds in our micro-benchmark, matching the paper's
    "<1.6 microseconds per check" at their model size).
    """

    train_seconds_per_sample: float = 2e-3
    relevance_seconds_per_param: float = 2e-9

    def __post_init__(self) -> None:
        if self.train_seconds_per_sample <= 0:
            raise ValueError("train_seconds_per_sample must be positive")
        if self.relevance_seconds_per_param < 0:
            raise ValueError("relevance_seconds_per_param must be >= 0")

    def local_training_time(self, n_samples: int, local_epochs: int) -> float:
        if n_samples < 0 or local_epochs < 0:
            raise ValueError("counts must be >= 0")
        return self.train_seconds_per_sample * n_samples * local_epochs

    def relevance_check_time(self, n_params: int) -> float:
        if n_params < 0:
            raise ValueError("n_params must be >= 0")
        return self.relevance_seconds_per_param * n_params

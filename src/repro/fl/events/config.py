"""Knobs of the asynchronous engine."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AsyncConfig"]


@dataclass(frozen=True)
class AsyncConfig:
    """Configuration of one :class:`~repro.fl.events.AsyncFederatedTrainer`.

    ``staleness_bound`` is the hard bound S: round ``r`` may dispatch
    only once every round up to ``r - 1 - S`` has closed, so at most
    ``S + 1`` rounds are ever in flight and any round aggregates with
    staleness in ``[0, S]``.  At ``S = 0`` one round is in flight at a
    time, and the run's history (apart from ``virtual_time``) and
    parameters are :class:`~repro.fl.trainer.FederatedTrainer`'s.

    A round aggregated ``s`` rounds stale merges with weight ``w(s) =
    1 / (1 + s)``; ``w(0)`` is exactly 1.0, which takes the server's
    unscaled code path.  A round dispatches as soon as the bound
    allows.  ``drop_rate`` feeds the
    :class:`~repro.fl.events.latency.LatencyModel`.
    """

    staleness_bound: int = 0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.staleness_bound < 0:
            raise ValueError(
                f"staleness_bound must be >= 0, got {self.staleness_bound}"
            )
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )

    def merge_weight(self, staleness: int) -> float:
        """w(s) = 1 / (1 + s); exactly 1.0 at s = 0."""
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        return 1.0 / (1.0 + staleness)

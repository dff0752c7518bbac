"""Hypothesis profiles shared by the property tests.

``DETERMINISM_SETTINGS`` draws the same examples on every run: tier 1
must pass or fail the same way on every machine and every rerun, so a
draw that fails is a reproducible finding, not a flake.
``STANDARD_SETTINGS`` keeps Hypothesis' random search for properties
cheap enough to explore freely.
"""

from hypothesis import HealthCheck, settings

__all__ = ["DETERMINISM_SETTINGS", "STANDARD_SETTINGS"]

DETERMINISM_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

STANDARD_SETTINGS = settings(deadline=None, max_examples=30)

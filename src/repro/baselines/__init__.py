"""Baseline upload policies the paper compares against."""

from repro.baselines.vanilla import VanillaPolicy
from repro.baselines.gaia import GaiaPolicy, gaia_significance

__all__ = [
    "VanillaPolicy",
    "GaiaPolicy",
    "gaia_significance",
]

"""Baseline upload policies the paper compares against."""

from repro.baselines.vanilla import VanillaPolicy
from repro.baselines.gaia import GaiaPolicy, gaia_significance
from repro.baselines.gaia_partial import GaiaPartialPolicy
from repro.baselines.norm import NormPolicy

__all__ = [
    "VanillaPolicy",
    "GaiaPolicy",
    "GaiaPartialPolicy",
    "NormPolicy",
    "gaia_significance",
]

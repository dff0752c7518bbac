"""Measurement machinery for the paper's figures and tables."""

from repro.analysis.divergence import normalized_model_divergence
from repro.analysis.cdf import fraction_below
from repro.analysis.saving import rounds_to_accuracy, saving
from repro.analysis.convergence import RegretTracker

__all__ = [
    "normalized_model_divergence",
    "fraction_below",
    "rounds_to_accuracy",
    "saving",
    "RegretTracker",
]

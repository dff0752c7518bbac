"""One module per paper figure/table, plus shared workload builders.

Every experiment module exposes ``run(scale=...)`` returning a result
object with a ``report()`` method that prints the same rows/series the
paper reports.  ``scale`` selects a preset: ``"test"`` (seconds, for
the test suite), ``"bench"`` (minutes, the default for the benchmark
harness) or ``"paper"`` (the paper's federation -- client counts, E,
B and split -- at the bench model widths; about an hour per run).
"""

from repro.experiments.workloads import (
    SCALES,
    DigitsWorkload,
    NWPWorkload,
    Scale,
    resolve_scale,
)

__all__ = ["Scale", "SCALES", "resolve_scale", "DigitsWorkload", "NWPWorkload"]

"""Where the figure benchmarks put their reports.

Each benchmark under ``benchmarks/`` regenerates one of the paper's
tables/figures at the ``bench`` scale (``REPRO_SCALE=paper`` runs the
paper's federation instead) and writes its report both to stdout and
to ``benchmarks/reports/`` of the checkout it runs from: a bench report
as ``<name>.txt``, any other scale's as ``<name>.<scale>.txt``, so a
paper run never overwrites the committed bench reports.
"""

from pathlib import Path

from repro.experiments.workloads import resolve_scale

__all__ = ["REPORTS_DIR", "emit_report"]

#: ``<checkout>/benchmarks/reports`` — this file is
#: ``<checkout>/src/repro/experiments/reports.py``.
REPORTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "reports"


def emit_report(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/reports/."""
    scale = resolve_scale()
    suffix = "" if scale == "bench" else f".{scale}"
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{name}{suffix}.txt").write_text(text + "\n")
    print(f"\n{text}\n")

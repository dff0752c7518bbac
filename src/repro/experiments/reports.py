"""Where the figure benchmarks put their reports.

Each benchmark under ``benchmarks/`` regenerates one of the paper's
tables/figures at the ``bench`` scale (set ``REPRO_SCALE=paper`` for
the full-size runs) and writes its report both to stdout and to
``benchmarks/reports/`` of the checkout it runs from.
"""

from pathlib import Path

__all__ = ["REPORTS_DIR", "emit_report"]

#: ``<checkout>/benchmarks/reports`` — this file is
#: ``<checkout>/src/repro/experiments/reports.py``.
REPORTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "reports"


def emit_report(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/reports/."""
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")

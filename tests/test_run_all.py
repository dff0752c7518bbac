"""The run-everything entry point and the report assembler."""

import sys
from pathlib import Path

from repro.experiments.run_all import EXPERIMENTS


def test_every_experiment_module_is_wired():
    names = [name for name, _ in EXPERIMENTS]
    assert names == [
        "fig1_divergence", "fig2_measures", "fig3_delta_update",
        "fig4_table1", "fig5_table2", "fig6_outliers", "fig7_ec2",
        "micro_overhead", "convergence_check", "ablations",
    ]
    for _, module in EXPERIMENTS:
        assert callable(module.run)
        assert callable(module.main)


REPO_ROOT = Path(__file__).resolve().parent.parent


def _builder():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import build_experiments_md as builder
    finally:
        sys.path.pop(0)
    return builder


def test_experiments_md_builder_lists_every_report():
    builder = _builder()
    stems = {stem for stem, _ in builder.ORDER}
    # one entry per paper artifact + the extras
    assert {"fig1_divergence", "fig4_table1_digits", "fig5_table2_har",
            "fig7_ec2", "micro_overhead", "ablations"} <= stems


def test_experiments_md_is_what_its_builder_renders():
    # EXPERIMENTS.md is generated: edit HEADER in the builder (or rerun
    # a benchmark), then `python tools/build_experiments_md.py`.
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert _builder().render() == committed

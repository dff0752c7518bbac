"""The run-everything entry point and the report assembler."""

import sys
from pathlib import Path

import pytest

from repro.experiments import reports, workloads
from repro.experiments.run_all import EXPERIMENTS
from repro.experiments.workloads import SCALE_ENV_VAR, SCALES


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


def test_every_per_scale_table_names_every_scale():
    """A table keyed by scale names misses none: a missing ``paper``
    key would otherwise surface only hours into a paper run."""
    tables = {}
    for module in [workloads] + [module for _, module in EXPERIMENTS]:
        for name, value in vars(module).items():
            if isinstance(value, dict) and set(value) & set(SCALES):
                tables[f"{module.__name__}.{name}"] = set(value)
    short = {qualified.rsplit(".", 1)[1] for qualified in tables}
    assert {"_ROUNDS", "_WARMUP", "_REPEATS", "ACCURACY_LEVELS",
            "_HAR_SIZES", "_SHD_SIZES", "_DIGIT_SCALES", "_DIGIT_SPLITS",
            "_NWP_SCALES"} <= short
    assert {name: keys for name, keys in tables.items()
            if keys != set(SCALES)} == {}


@pytest.mark.parametrize(
    "scale,written", [("bench", "fig0.txt"), ("paper", "fig0.paper.txt"),
                      ("test", "fig0.test.txt")]
)
def test_reports_are_named_by_scale(scale, written, tmp_path, monkeypatch):
    """Only a bench report takes the committed ``<name>.txt``: a paper
    run beside the bench reports leaves them as they were."""
    monkeypatch.setattr(reports, "REPORTS_DIR", tmp_path)
    monkeypatch.setenv(SCALE_ENV_VAR, scale)
    reports.emit_report("fig0", "table")
    assert [p.name for p in tmp_path.iterdir()] == [written]
    assert (tmp_path / written).read_text() == "table\n"


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

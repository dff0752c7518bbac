"""Unit tests for the phase-1 project model.

Synthetic modules are written under ``<tmp>/repro/`` so that
``package_relative_path`` roots them like real tree files and the
extractor derives proper ``repro.*`` dotted module names.
"""

from pathlib import Path

from repro.lint.dataflow import compute_tainted_functions
from repro.lint.project import (
    ProjectAnalyzer,
    ProjectModel,
    extract_summary,
    module_name_for,
)


def _model(sources):
    """{package_path: source} -> ProjectModel (no disk involved)."""
    summaries = []
    for package_path, source in sources.items():
        summary = extract_summary(
            source, Path("/x/repro") / package_path
        )
        assert summary is not None, package_path
        summaries.append(summary)
    return ProjectModel(summaries)


def _write_tree(root, sources):
    for package_path, source in sources.items():
        path = root / "repro" / package_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root / "repro"


RNG_UTIL = (
    "import numpy as np\n"
    "\n"
    "def make_rng(seed):\n"
    "    return np.random.default_rng(seed)\n"
    "\n"
    "def relabel(seed):\n"
    "    gen = make_rng(seed)\n"
    "    return gen\n"
    "\n"
    "def derive_seed(seed):\n"
    "    return int(seed) + 1\n"
)


def test_module_name_for():
    assert module_name_for("fl/trainer.py") == "repro.fl.trainer"
    assert module_name_for("fl/__init__.py") == "repro.fl"
    assert module_name_for("__init__.py") == "repro"


def test_rng_taint_fixpoint_through_returns():
    model = _model({"util.py": RNG_UTIL})
    tainted = compute_tainted_functions(model)
    # make_rng returns default_rng directly; relabel returns a local
    # assigned from make_rng; derive_seed launders through int().
    assert "repro.util.make_rng" in tainted
    assert "repro.util.relabel" in tainted
    assert "repro.util.derive_seed" not in tainted


TREE = {
    "util.py": RNG_UTIL,
    "app.py": (
        "from repro.util import derive_seed\n"
        "\n"
        "def main():\n"
        "    return derive_seed(3)\n"
    ),
    "other.py": "def standalone():\n    return 7\n",
}


def test_file_sources_override_injects_without_disk(tmp_path):
    root = _write_tree(tmp_path, TREE)
    target = root / "other.py"
    analyzer = ProjectAnalyzer(
        rules=(),  # v1 rules off: this test targets the override path
        file_sources={str(target): "def standalone():\n    return 8\n"},
    )
    result = analyzer.analyze([str(root)])
    assert result.violations == []
    summary = extract_summary(
        "def standalone():\n    return 8\n", target
    )
    assert summary.module == "repro.other"


def test_syntax_error_file_is_reported_not_fatal(tmp_path):
    sources = dict(TREE)
    sources["broken.py"] = "def oops(:\n"
    root = _write_tree(tmp_path, sources)
    result = ProjectAnalyzer(rules=()).analyze([str(root)])
    assert [v.rule for v in result.violations] == ["syntax-error"]
    assert result.violations[0].path.endswith("broken.py")


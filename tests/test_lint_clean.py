"""Tier-1 gate: the shipped tree must be lint-clean.

Runs every rule — the per-file set and the flow rules (``rng-taint``,
``ckpt-state-coverage``, ``trace-discipline``) — with the repo's
``[tool.repro-lint]`` configuration over ``src/repro`` exactly like
``python -m repro.lint src/repro`` would, and fails listing every
diagnostic if anything regressed.  A companion test seeds a violation
to prove the gate actually bites, and a tripwire stands in for the
concurrency flow rule that PR 15 removed.
"""

import ast
from pathlib import Path

from repro.lint import ProjectAnalyzer, format_text, load_config
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_whole_program_pass_is_clean():
    config = load_config(REPO_ROOT)
    result = ProjectAnalyzer(config=config).analyze([str(SRC)])
    assert result.violations == [], "\n" + format_text(result.violations)
    assert result.stats["files"] > 0


def test_whole_program_cli_gate_exits_zero(capsys):
    assert main([str(SRC)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_seeded_violation_is_caught(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import numpy as np\n\n"
        "__all__ = [\"draw\"]\n\n\n"
        "def draw():\n"
        "    buf = np.zeros(3)\n"
        "    return np.random.normal(size=3)\n"
    )
    violations = ProjectAnalyzer().analyze([str(bad)]).violations
    assert {v.rule for v in violations} == {"no-global-rng", "explicit-dtype"}
    assert all(v.line in (7, 8) for v in violations)
    # ...and the CLI turns that into a non-zero exit with file:line output.
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:8" in out


def test_no_worker_pool_imports():
    pools = {"threading", "multiprocessing", "concurrent"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in pools:
                    offenders.append(
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {module}"
                    )
    assert offenders == [], (
        "src/repro imports a worker-pool module:\n  "
        + "\n  ".join(offenders)
        + "\nThe concurrency flow rule (shared-state-race, and rng-taint's "
        "executor-boundary clause) was removed in PR 15 because the tree "
        "had 0 worker entry points; it must come back with any worker pool."
    )

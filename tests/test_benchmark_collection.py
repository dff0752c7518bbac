"""The figure benchmarks must collect from anywhere.

They used to ``from conftest import emit_report``, which resolved only
through the ``sys.path`` entry pytest adds for a rootdir conftest and
collided with ``tests/conftest.py`` when both trees were collected.
The helper is now :mod:`repro.experiments.reports`; this check keeps
collection independent of the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"


def test_benchmarks_collect_from_another_directory(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--collect-only",
            "-q",
            "-p",
            "no:cacheprovider",
            str(BENCHMARKS),
            f"--ignore={BENCHMARKS / 'perf'}",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "error" not in output.lower(), output
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        assert path.name in output, f"{path.name} not collected:\n{output}"

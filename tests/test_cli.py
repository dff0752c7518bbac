"""The ``python -m repro`` and ``repro.experiments.scale`` entry points,
and the tools under ``tools/``."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.experiments.scale import main as scale_main
from repro.experiments.scale import peak_rss_kib


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4_table1" in out and "fig7_ec2" in out


def test_help_is_list(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_unknown_experiment_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_runs_one_experiment_at_test_scale(capsys):
    assert main(["fig2_measures", "test"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2" in out


def test_bad_scale_raises():
    with pytest.raises(ValueError):
        main(["fig2_measures", "enormous"])


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["--population", "50", "--cohort", "100"], "exceeds population"),
        (["--population", "1000", "--rounds", "0"], "--rounds"),
        (
            ["--population", "1000", "--trace", "--trace-sample", "1.5"],
            "trace_sample",
        ),
    ],
)
def test_scale_cli_rejects_bad_arguments(argv, cause, capsys):
    # A usage error (exit 2, cause on stderr), not a traceback: the
    # sweep in benchmarks/test_scale.py must tell it from a crash.
    with pytest.raises(SystemExit) as exit_info:
        scale_main(argv)
    assert exit_info.value.code == 2
    assert cause in capsys.readouterr().err



@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="VmHWM is Linux's counter"
)
def test_a_subprocess_reports_its_own_peak_rss():
    """Each scale point runs in a subprocess of a launcher (a whole
    ``pytest benchmarks`` session) that may hold far more than the
    point: the child must report its own high-water mark, not one
    carried over from its launcher, or the sweep's growth gate reads
    the launcher's peak at every population."""
    ballast = np.ones(128 * 2**20 // 8)  # 128 MiB, every page written
    assert peak_rss_kib() >= 128 * 1024
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.experiments.scale import peak_rss_kib; print(peak_rss_kib())"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100 * 1024, (
        f"child read {int(proc.stdout) / 1024:.0f} MiB beside a "
        f"{ballast.nbytes / 2**20:.0f} MiB launcher"
    )


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="VmHWM is Linux's counter"
)
def test_memory_phases_prints_each_phase_of_the_named_federation():
    """``tools/memory_phases.py``: a commit and host stamp, ``VmHWM`` /
    ``VmRSS`` after each phase (the peak never falls), and the digest
    of the one-round run it measured."""
    from repro.baselines.vanilla import VanillaPolicy
    from repro.experiments.workloads import DigitsWorkload
    from repro.fl.history import history_digest

    tool = Path(__file__).resolve().parent.parent / "tools" / "memory_phases.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--workload", "digits", "--scale", "test",
         "--executor", "batched"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].startswith("# commit ") and lines[2].startswith("# host ")
    rows = [line.rsplit(maxsplit=2) for line in lines[4:8]]
    assert [row[0] for row in rows] == [
        "import", "DigitsWorkload('test')", "make_trainer", "one round + evaluation"
    ]
    peaks = [float(row[1]) for row in rows]
    assert peaks == sorted(peaks) and all(float(row[2]) > 0 for row in rows)
    trainer = DigitsWorkload("test").make_trainer(
        VanillaPolicy(), rounds=1, eval_every=1, executor="batched"
    )
    with trainer:
        trainer.run()
    assert lines[8] == f"history digest {history_digest(trainer)}"


def test_reach_tells_called_from_uncalled_bodies(tmp_path):
    """``tools/reach.py`` on a fixture package: a body the command
    calls, one only a subprocess of it calls, and one nobody calls."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def called():\n    return 1\n\n\n"
        "def called_by_child():\n    return 2\n\n\n"
        "def uncalled():\n    x = 3\n    return x\n"
    )
    (tmp_path / "main.py").write_text(
        "import subprocess, sys\n"
        "from pkg.mod import called\n"
        "called()\n"
        "subprocess.run([sys.executable, '-c', "
        "'from pkg.mod import called_by_child; called_by_child()'], check=True)\n"
    )
    path = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    work = tmp_path / "work"
    work.mkdir()
    called = reach.record([[sys.executable, "main.py"]], package, tmp_path, work)
    assert reach.report(package, called) == [
        "pkg/mod.py: 3 lines",
        "  9-11  uncalled",
        "uncalled: 3 of 7 lines, 1 of 3 function bodies",
    ]

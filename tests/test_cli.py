"""The ``python -m repro``, ``repro.experiments.scale`` and
``python -m repro.lint`` entry points."""

import json

import pytest

from repro.__main__ import main
from repro.experiments.scale import main as scale_main
from repro.lint.cli import main as lint_main


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


# -- repro.lint CLI exit-code contract ---------------------------------------
#
# 0 = no error-severity findings, 1 = error findings (or --strict on
# any finding), 2 = engine/config failure with no analysis performed.


def _write(tmp_path, name, source):
    path = tmp_path / "repro" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


CLEAN = '__all__ = ["f"]\n\n\ndef f():\n    return 1\n'


def test_lint_exit_0_on_clean_file(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    assert lint_main([str(path)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_exit_0_on_warnings_only(tmp_path, capsys):
    path = _write(tmp_path, "w.py", "import random\n")
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro-lint.no-global-rng]\nseverity = \"warning\"\n"
    )
    args = [str(path), "--config", str(tmp_path)]
    assert lint_main(args) == 0
    out = capsys.readouterr().out
    assert "warning[no-global-rng]" in out
    # --strict promotes the same warning to a failure.
    assert lint_main(args + ["--strict"]) == 1
    capsys.readouterr()


def test_lint_exit_1_on_error_finding(tmp_path, capsys):
    path = _write(
        tmp_path,
        "bad.py",
        '__all__ = ["f"]\n'
        "import numpy as np\n\n\n"
        "def f():\n"
        "    return np.random.normal(size=3)\n",
    )
    assert lint_main([str(path)]) == 1
    assert "no-global-rng" in capsys.readouterr().out


def test_lint_exit_1_on_syntax_error(tmp_path, capsys):
    path = _write(tmp_path, "broken.py", "def oops(:\n")
    assert lint_main([str(path)]) == 1
    capsys.readouterr()


def test_lint_exit_2_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_lint_exit_2_on_bad_config(tmp_path, capsys):
    _write(tmp_path, "ok.py", CLEAN)
    for table in (
        "[tool.repro-lint.no-global-rng]\nseverity = \"fatal\"\n",
        "[tool.repro-lint.explict-dtype]\nenabled = false\n",
    ):
        (tmp_path / "pyproject.toml").write_text(table)
        code = lint_main(
            [str(tmp_path / "repro"), "--config", str(tmp_path)]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err


def test_lint_project_json_reports_analysis_stats(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    assert lint_main([str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["analysis"] == {"files": 1}


def test_lint_list_rules_includes_project_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("rng-taint", "ckpt-state-coverage", "trace-discipline"):
        assert rule in out
    for gone in ("shared-state-race", "all-exports"):
        assert gone not in out

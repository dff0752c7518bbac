"""The ``python -m repro`` and ``repro.experiments.scale`` entry points."""

import pytest

from repro.__main__ import main
from repro.experiments.scale import main as scale_main


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


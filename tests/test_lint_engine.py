"""The repro.lint engine: suppression, config, scoping, CLI plumbing."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    Linter,
    NoGlobalRngRule,
    ProjectAnalyzer,
    format_json,
    format_text,
    load_config,
)
from repro.lint.cli import main
from repro.lint.engine import package_relative_path, parse_suppressions
from repro.lint.rules import ExplicitDtypeRule, UnusedPureResultRule


def lint_str(source, relpath="core/mod.py", rules=None, config=None):
    linter = Linter(config=config or LintConfig(), rules=rules)
    return linter.lint_source(
        textwrap.dedent(source), Path("src/repro") / relpath
    )


BAD_RNG = """\
    import numpy as np

    def draw():
        return np.random.normal(size=3)
"""


class TestEngineBasics:
    def test_violation_format_has_location(self):
        (v,) = lint_str(BAD_RNG, rules=[NoGlobalRngRule])
        assert v.rule == "no-global-rng"
        assert v.line == 4
        assert "core/mod.py" in v.path
        assert f"{v.path}:{v.line}:" in v.format()

    def test_syntax_error_reported_not_raised(self):
        (v,) = lint_str("def broken(:\n", rules=[NoGlobalRngRule])
        assert v.rule == "syntax-error"

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            Linter(rules=[NoGlobalRngRule, NoGlobalRngRule])

    def test_package_relative_path(self):
        assert (
            package_relative_path(Path("/x/src/repro/core/relevance.py"))
            == "core/relevance.py"
        )
        assert package_relative_path(Path("scratch.py")) == "scratch.py"


class TestSuppression:
    def test_line_suppression_by_rule_name(self):
        source = """\
            import numpy as np

            def draw():
                return np.random.normal(size=3)  # repro-lint: disable=no-global-rng
        """
        assert lint_str(source, rules=[NoGlobalRngRule]) == []

    def test_bare_disable_silences_all_rules(self):
        source = """\
            import numpy as np

            def draw():
                return np.random.normal(np.zeros(3))  # repro-lint: disable
        """
        assert (
            lint_str(source, rules=[NoGlobalRngRule, ExplicitDtypeRule]) == []
        )

    def test_other_rule_suppression_does_not_apply(self):
        source = """\
            import numpy as np

            def draw():
                return np.random.normal(size=3)  # repro-lint: disable=explicit-dtype
        """
        assert len(lint_str(source, rules=[NoGlobalRngRule])) == 1

    def test_file_level_directive(self):
        source = """\
            # repro-lint: disable-file=no-global-rng
            import numpy as np

            def draw():
                return np.random.normal(size=3)
        """
        assert lint_str(source, rules=[NoGlobalRngRule]) == []

    def test_file_level_directive_ignored_after_header(self):
        lines = ["import numpy as np"] + ["x = 1"] * 12 + [
            "# repro-lint: disable-file=no-global-rng",
            "y = np.random.normal()",
        ]
        assert len(lint_str("\n".join(lines), rules=[NoGlobalRngRule])) == 1

    def test_parse_suppressions_merges_lists(self):
        per_line, per_file = parse_suppressions(
            ["x = 1  # repro-lint: disable=a, b", "# repro-lint: disable-file=c"]
        )
        assert per_line == {1: {"a", "b"}}
        assert per_file == {"c": 2}


class TestConfig:
    def test_severity_override(self):
        config = LintConfig(rules={"no-global-rng": {"severity": "warning"}})
        (v,) = lint_str(BAD_RNG, rules=[NoGlobalRngRule], config=config)
        assert v.severity == "warning"

    def test_disable_rule(self):
        config = LintConfig(rules={"no-global-rng": {"enabled": False}})
        assert lint_str(BAD_RNG, rules=[NoGlobalRngRule], config=config) == []

    def test_invalid_severity_rejected(self):
        config = LintConfig(rules={"no-global-rng": {"severity": "fatal"}})
        with pytest.raises(ValueError):
            lint_str(BAD_RNG, rules=[NoGlobalRngRule], config=config)

    def test_path_scoping(self):
        source = """\
            import numpy as np
            x = np.zeros(3)
        """
        assert len(lint_str(source, "core/a.py", rules=[ExplicitDtypeRule])) == 1
        assert lint_str(source, "data/a.py", rules=[ExplicitDtypeRule]) == []

    def test_paths_override_widens_scope(self):
        source = """\
            import numpy as np
            x = np.zeros(3)
        """
        config = LintConfig(rules={"explicit-dtype": {"paths": []}})
        assert (
            len(
                lint_str(
                    source, "data/a.py", rules=[ExplicitDtypeRule], config=config
                )
            )
            == 1
        )

    def test_rule_options_flow_through(self):
        source = "frobnicate(1)\n"
        config = LintConfig(
            rules={"unused-pure-result": {"functions": ["frobnicate"]}}
        )
        (v,) = lint_str(source, rules=[UnusedPureResultRule], config=config)
        assert "frobnicate" in v.message

    def test_load_config_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """\
                [tool.repro-lint]
                exclude = ["testdata"]

                [tool.repro-lint.no-global-rng]
                severity = "warning"
                """
            )
        )
        config = load_config(tmp_path)
        assert config.exclude == ("testdata",)
        settings = config.rule_settings("no-global-rng")
        assert settings.severity == "warning"
        assert config.is_excluded(Path("pkg/testdata/x.py"))
        # A typo'd rule table must fail loudly, not be silently ignored.
        with open(tmp_path / "pyproject.toml", "a") as fh:
            fh.write("\n[tool.repro-lint.explict-dtype]\nenabled = false\n")
        with pytest.raises(ValueError, match="explict-dtype.*explicit-dtype"):
            load_config(tmp_path)

    def test_load_config_defaults_when_missing(self, tmp_path):
        config = load_config(tmp_path)
        assert config.rules == {}


class TestTreeWalkAndCli:
    @pytest.fixture
    def bad_tree(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "import numpy as np\n\n"
            "__all__ = []\n\n"
            "seed = np.random.randint(0, 10)\n"
        )
        (pkg / "clean.py").write_text("__all__ = []\nVALUE = 1\n")
        return tmp_path

    def test_analyze_over_directory(self, bad_tree):
        violations = ProjectAnalyzer().analyze([str(bad_tree)]).violations
        assert [v.rule for v in violations] == ["no-global-rng"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            ProjectAnalyzer().analyze(["does/not/exist"])

    def test_cli_exit_codes_and_text(self, bad_tree, capsys):
        assert main([str(bad_tree)]) == 1
        out = capsys.readouterr().out
        assert "no-global-rng" in out and "1 error(s)" in out
        clean = bad_tree / "repro" / "core" / "clean.py"
        assert main([str(clean)]) == 0

    def test_cli_json_format(self, bad_tree, capsys):
        assert main([str(bad_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"no-global-rng": 1}
        assert payload["violations"][0]["line"] == 5

    def test_cli_warning_severity_passes_unless_strict(self, bad_tree, capsys):
        (bad_tree / "pyproject.toml").write_text(
            "[tool.repro-lint.no-global-rng]\nseverity = \"warning\"\n"
        )
        assert main([str(bad_tree)]) == 0
        assert main([str(bad_tree), "--strict"]) == 1
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "no-global-rng",
            "explicit-dtype",
            "no-param-mutation",
            "no-wallclock-seed",
            "unused-pure-result",
            "metric-name-registry",
        ):
            assert name in out

    def test_text_formatter_summary_line(self):
        violations = lint_str(BAD_RNG, rules=[NoGlobalRngRule])
        text = format_text(violations)
        assert text.endswith("1 violation(s): 1 error(s), 0 warning(s)")
        assert json.loads(format_json([]))["summary"]["total"] == 0

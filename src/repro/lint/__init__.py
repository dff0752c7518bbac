"""repro.lint -- AST-based static analysis for the reproduction codebase.

The reproduction's headline numbers depend on invariants no runtime test
can economically enforce everywhere: every stochastic component must
draw from the explicit ``numpy.random.Generator`` plumbing in
:mod:`repro.utils.rng`, update vectors must keep explicit dtypes, and
server-side buffers must never be mutated through aliased function
parameters.  This package walks the source tree with :mod:`ast` and
reports violations of those invariants as ``file:line`` diagnostics.

Usage::

    python -m repro.lint src/repro [--format text|json]

or programmatically::

    from repro.lint import ProjectAnalyzer
    violations = ProjectAnalyzer().analyze(["src/repro"]).violations

Both run every rule — the per-file visitors of :mod:`repro.lint.rules`
and the whole-program rules of :mod:`repro.lint.flow_rules` — through
:class:`~repro.lint.project.ProjectAnalyzer`; there is no other mode.

Per-line suppression uses ``# repro-lint: disable=<rule>[,<rule>...]``
(a bare ``disable`` silences every rule on that line); a
``# repro-lint: disable-file=<rule>`` comment in the first ten lines
silences the rule for the whole file.  Rules are configured in
``pyproject.toml`` under ``[tool.repro-lint]``.
"""

from repro.lint.config import LintConfig, RuleSettings, load_config
from repro.lint.engine import FileContext, LintRule, Linter, Violation
from repro.lint.project import (
    AnalysisResult,
    ProjectAnalyzer,
    ProjectModel,
)
from repro.lint.reporting import format_json, format_text
from repro.lint.rules import (
    DEFAULT_RULES,
    ExplicitDtypeRule,
    NoGlobalRngRule,
    NoParamMutationRule,
    NoWallclockSeedRule,
    UnusedPureResultRule,
)

__all__ = [
    "AnalysisResult",
    "DEFAULT_RULES",
    "ExplicitDtypeRule",
    "FileContext",
    "LintConfig",
    "LintRule",
    "Linter",
    "NoGlobalRngRule",
    "NoParamMutationRule",
    "NoWallclockSeedRule",
    "ProjectAnalyzer",
    "ProjectModel",
    "RuleSettings",
    "UnusedPureResultRule",
    "Violation",
    "format_json",
    "format_text",
    "load_config",
]

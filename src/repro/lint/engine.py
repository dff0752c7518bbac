"""The visitor-driven rule engine behind ``repro.lint``.

A :class:`LintRule` is an :class:`ast.NodeVisitor` instantiated once per
file; the engine parses each file, hands the tree to every rule that is
enabled and in scope for that path, then filters the collected
violations through the suppression comments found in the source.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.config import LintConfig, RuleSettings

__all__ = [
    "FileContext",
    "LintRule",
    "Linter",
    "Violation",
    "package_relative_path",
    "parse_suppressions",
]

#: ``# repro-lint: disable=a,b`` / ``disable`` / ``disable-file=a``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable-file|disable)\s*(?:=\s*([\w\-, ]+))?"
)

#: How many leading lines may carry a ``disable-file`` directive.
_FILE_DIRECTIVE_WINDOW = 10

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Violation:
    """One diagnostic: ``path:line:col rule message``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule}] {self.message}"
        )


@dataclass
class FileContext:
    """Everything a rule may consult about the file under analysis."""

    path: Path
    #: Path relative to the ``repro`` package root (posix separators),
    #: e.g. ``core/relevance.py`` -- what rule ``paths`` scopes match.
    package_path: str
    source: str
    lines: List[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, path: Path, source: str) -> "FileContext":
        return cls(
            path=path,
            package_path=package_relative_path(path),
            source=source,
            lines=source.splitlines(),
        )


def package_relative_path(path: Path) -> str:
    """``.../src/repro/core/relevance.py`` -> ``core/relevance.py``.

    Falls back to the bare file name when the path does not pass through
    a ``repro`` directory (e.g. ad-hoc files in tests).
    """
    parts = list(path.parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            tail = parts[i + 1 :]
            if tail:
                return "/".join(tail)
    return path.name


def parse_suppressions(
    lines: Sequence[str],
) -> Tuple[Dict[int, Optional[Set[str]]], Dict[str, int]]:
    """Extract suppression directives from source lines.

    Returns ``(per_line, per_file)`` where ``per_line`` maps a 1-based
    line number to the set of silenced rule names (``None`` = all rules)
    and ``per_file`` maps rule names silenced for the whole file to the
    directive's line.
    """
    per_line: Dict[int, Optional[Set[str]]] = {}
    per_file: Dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        kind, names = match.group(1), match.group(2)
        rules: Optional[Set[str]] = None
        if names:
            rules = {n.strip() for n in names.split(",") if n.strip()}
        if kind == "disable-file":
            if lineno <= _FILE_DIRECTIVE_WINDOW and rules:
                for rule in rules:
                    per_file.setdefault(rule, lineno)
        else:
            existing = per_line.get(lineno, set())
            if rules is None or existing is None:
                per_line[lineno] = None
            else:
                per_line[lineno] = existing | rules
    return per_line, per_file


class LintRule(ast.NodeVisitor):
    """Base class for repo-specific rules.

    Subclasses set ``name``/``description``/``default_severity`` and the
    default path scope, implement ``visit_*`` methods, and call
    :meth:`report` for each finding.  ``finish`` runs after the tree
    walk for whole-module checks.
    """

    name: str = "rule"
    description: str = ""
    default_severity: str = "error"
    #: Package-relative prefixes the rule applies to; empty = everywhere.
    default_paths: Tuple[str, ...] = ()

    def __init__(self, ctx: FileContext, settings: RuleSettings) -> None:
        self.ctx = ctx
        self.settings = settings
        self.violations: List[Violation] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                rule=self.name,
                path=str(self.ctx.path),
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                severity=self.settings.severity,
            )
        )

    def finish(self, tree: ast.Module) -> None:  # pragma: no cover - hook
        """Called once after the tree walk; override for module checks."""


class Linter:
    """Runs a set of rules over files or directory trees."""

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        rules: Optional[Sequence[Type[LintRule]]] = None,
    ) -> None:
        # Imported here so ``rules`` may import ``engine`` freely.
        from repro.lint.rules import DEFAULT_RULES

        self.config = config or LintConfig()
        self.rule_classes: List[Type[LintRule]] = list(
            DEFAULT_RULES if rules is None else rules
        )
        names = [r.name for r in self.rule_classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")

    def settings_for(self, rule_cls: Type[LintRule]) -> RuleSettings:
        return self.config.rule_settings(
            rule_cls.name,
            default_severity=rule_cls.default_severity,
            default_paths=rule_cls.default_paths,
        )

    def _applies(self, settings: RuleSettings, package_path: str) -> bool:
        if not settings.enabled:
            return False
        if not settings.paths:
            return True
        return any(
            package_path == scope or package_path.startswith(scope)
            for scope in settings.paths
        )

    def lint_source(self, source: str, path: Path) -> List[Violation]:
        """Lint one already-read source blob (the unit of all linting)."""
        ctx = FileContext.from_source(path, source)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [
                Violation(
                    rule="syntax-error",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1 if exc.offset else 1,
                    message=f"cannot parse file: {exc.msg}",
                )
            ]
        return self.lint_tree(ctx, tree)

    def lint_tree(self, ctx: FileContext, tree: ast.Module) -> List[Violation]:
        """Run the per-file rules over an already-parsed tree.

        Split out of :meth:`lint_source` so the driver
        (:mod:`repro.lint.project`) can parse each file exactly once and
        feed the same tree to both these rules and its own extractor.
        """
        per_line, per_file = parse_suppressions(ctx.lines)
        violations: List[Violation] = []
        for rule_cls in self.rule_classes:
            settings = self.settings_for(rule_cls)
            if not self._applies(settings, ctx.package_path):
                continue
            if rule_cls.name in per_file or "all" in per_file:
                continue
            rule = rule_cls(ctx, settings)
            rule.visit(tree)
            rule.finish(tree)
            violations.extend(rule.violations)
        return [v for v in violations if not _suppressed(v, per_line)]

    def lint_file(self, path: Path) -> List[Violation]:
        return self.lint_source(path.read_text(encoding="utf-8"), path)

    def lint_paths(self, paths: Iterable[str]) -> List[Violation]:
        """Lint files and/or directory trees; results sorted by location."""
        violations: List[Violation] = []
        for target in sorted(self.iter_files(paths)):
            violations.extend(self.lint_file(target))
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return violations

    def iter_files(self, paths: Iterable[str]) -> Iterable[Path]:
        seen: Set[Path] = set()
        for raw in paths:
            root = Path(raw)
            if root.is_dir():
                candidates: Iterable[Path] = sorted(root.rglob("*.py"))
            elif root.suffix == ".py":
                candidates = [root]
            else:
                raise FileNotFoundError(f"no such file or directory: {raw}")
            for path in candidates:
                resolved = path.resolve()
                if resolved in seen or self.config.is_excluded(path):
                    continue
                seen.add(resolved)
                yield path


def _suppressed(
    violation: Violation, per_line: Dict[int, Optional[Set[str]]]
) -> bool:
    if violation.line not in per_line:
        return False
    rules = per_line[violation.line]
    return rules is None or violation.rule in rules or "all" in rules


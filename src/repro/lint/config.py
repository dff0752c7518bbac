"""Configuration for ``repro.lint``.

Settings live in ``pyproject.toml`` under ``[tool.repro-lint]``::

    [tool.repro-lint]
    exclude = ["lint/testdata"]

    [tool.repro-lint.explicit-dtype]
    severity = "error"
    paths = ["core/", "fl/", "nn/"]

Per-rule tables accept ``enabled`` (bool), ``severity`` (``"error"`` or
``"warning"``), ``paths`` (package-relative prefixes the rule is scoped
to; empty list = everywhere) and free-form rule options.  ``tomllib`` is
stdlib from Python 3.11; on older interpreters configuration loading
degrades gracefully to the built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["LintConfig", "RuleSettings", "load_config"]

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on <=3.10
    tomllib = None  # type: ignore[assignment]

_UNSET = object()


@dataclass(frozen=True)
class RuleSettings:
    """Effective settings of one rule for one run."""

    enabled: bool = True
    severity: str = "error"
    paths: Tuple[str, ...] = ()
    options: Dict[str, Any] = field(default_factory=dict)

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)


@dataclass
class LintConfig:
    """Parsed ``[tool.repro-lint]`` table."""

    exclude: Tuple[str, ...] = ()
    #: Raw per-rule tables, keyed by rule name.
    rules: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def rule_settings(
        self,
        name: str,
        default_severity: str = "error",
        default_paths: Sequence[str] = (),
    ) -> RuleSettings:
        """Merge the configured table for ``name`` over the rule defaults."""
        table = dict(self.rules.get(name, {}))
        enabled = bool(table.pop("enabled", True))
        severity = str(table.pop("severity", default_severity))
        if severity not in ("error", "warning"):
            raise ValueError(
                f"rule {name!r}: severity must be 'error' or 'warning', "
                f"got {severity!r}"
            )
        raw_paths = table.pop("paths", _UNSET)
        if raw_paths is _UNSET:
            paths = tuple(default_paths)
        else:
            paths = tuple(str(p) for p in raw_paths)
        return RuleSettings(
            enabled=enabled, severity=severity, paths=paths, options=table
        )

    def is_excluded(self, path: Path) -> bool:
        posix = path.as_posix()
        return any(fragment and fragment in posix for fragment in self.exclude)


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Load ``[tool.repro-lint]`` from the nearest ``pyproject.toml``.

    Walks up from ``start`` (default: cwd) looking for a
    ``pyproject.toml``; returns defaults when none is found, the file has
    no ``[tool.repro-lint]`` table, or ``tomllib`` is unavailable.
    A ``[tool.repro-lint.<name>]`` table whose name is not a registered
    rule raises ``ValueError`` (a typo would otherwise be ignored).
    """
    pyproject = _find_pyproject(start or Path.cwd())
    if pyproject is None or tomllib is None:
        return LintConfig()
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.repro-lint] must be a table")
    exclude = tuple(str(p) for p in table.get("exclude", ()))
    rules = {
        key: dict(value)
        for key, value in table.items()
        if isinstance(value, dict)
    }
    # Imported here: both rule modules import this one.
    from repro.lint.flow_rules import PROJECT_RULES
    from repro.lint.rules import DEFAULT_RULES

    registered = sorted(r.name for r in (*DEFAULT_RULES, *PROJECT_RULES))
    for name in rules:
        if name not in registered:
            raise ValueError(
                f"{pyproject}: [tool.repro-lint.{name}] names no "
                f"registered rule (registered: {', '.join(registered)})"
            )
    return LintConfig(exclude=exclude, rules=rules)


def _find_pyproject(start: Path) -> Optional[Path]:
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None

"""Command-line front end: ``python -m repro.lint src/repro``.

Every run is the full pass: the per-file rules plus the whole-program
flow rules (``rng-taint``, ``ckpt-state-coverage``,
``trace-discipline``), through :class:`~repro.lint.project.ProjectAnalyzer`.

Exit status (stable contract, asserted by ``tests/test_cli.py``):

* **0** — analysis ran; no error-severity findings (warnings allowed
  unless ``--strict``).
* **1** — analysis ran; at least one error-severity finding (or any
  finding under ``--strict``, or a syntax error in an analyzed file).
* **2** — the engine itself failed: unknown path or invalid
  configuration.  Findings were *not* produced, so 2 must never be
  conflated with "code has issues".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.config import load_config
from repro.lint.flow_rules import PROJECT_RULES
from repro.lint.project import ProjectAnalyzer
from repro.lint.reporting import format_json, format_text
from repro.lint.rules import DEFAULT_RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism/dtype/aliasing linter for the CMFL "
            "reproduction. Exit codes: 0 = no error-severity findings, "
            "1 = error-severity findings (or any finding with --strict), "
            "2 = engine/config failure (no analysis performed)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PYPROJECT_DIR",
        help=(
            "directory to search for pyproject.toml "
            "(default: walk up from the first path)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> None:
    for rule in DEFAULT_RULES:
        scope = ", ".join(rule.default_paths) or "everywhere"
        print(f"{rule.name:20s} [{scope}] {rule.description}")
    for rule in PROJECT_RULES:
        scope = ", ".join(rule.default_paths) or "everywhere"
        print(f"{rule.name:20s} [{scope}] (project) {rule.description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _list_rules()
        return 0
    paths: List[str] = list(args.paths) or ["src/repro"]
    config_start = args.config if args.config is not None else Path(paths[0])
    try:
        config = load_config(config_start)
        result = ProjectAnalyzer(config=config).analyze(paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result.violations, stats=result.stats))
    else:
        print(format_text(result.violations))
    failing = [
        v
        for v in result.violations
        if v.severity == "error" or args.strict or v.rule == "syntax-error"
    ]
    return 1 if failing else 0


__all__ = ["build_parser", "main"]

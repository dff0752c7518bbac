"""``python -m repro.ckpt`` — inspect, verify and diff checkpoints.

    python -m repro.ckpt inspect run/ckpt-00000010.ckpt
    python -m repro.ckpt verify run/*.ckpt
    python -m repro.ckpt diff a.ckpt b.ckpt

``inspect`` prints the manifest summary and member table; ``verify``
digest-checks every member of each file as it streams out of the zip
(nothing is decoded) and exits non-zero on the first failure; ``diff``
compares two checkpoints' manifests and array payloads and lists every
divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.ckpt.format import (
    Checkpoint,
    CheckpointError,
    read_checkpoint,
    verify_checkpoint,
)
from repro.utils.tables import format_table

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="inspect repro-ckpt/v4 checkpoint containers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="manifest + member summary")
    inspect.add_argument("checkpoint", type=Path)
    inspect.add_argument(
        "--json",
        action="store_true",
        help="dump the raw manifest as JSON instead of the summary",
    )

    verify = sub.add_parser("verify", help="digest-check member payloads")
    verify.add_argument("checkpoints", type=Path, nargs="+")

    diff = sub.add_parser("diff", help="compare two checkpoints")
    diff.add_argument("a", type=Path)
    diff.add_argument("b", type=Path)
    return parser


def _inspect_lines(ckpt: Checkpoint) -> List[str]:
    manifest = ckpt.manifest
    lines = [
        f"checkpoint      {ckpt.path}",
        f"schema          {manifest['schema']}",
        f"iteration       {ckpt.iteration}",
        f"policy          {manifest['policy']['name']}",
        f"n_params        {manifest['n_params']}",
        f"executor        {manifest['executor']['backend']}",
        f"traced          {manifest.get('trace') is not None}",
        "",
        format_table(
            ["member", "bytes", "sha256"],
            [
                [name, entry["bytes"], entry["sha256"][:16]]
                for name, entry in sorted(manifest["members"].items())
            ],
        ),
    ]
    return lines


def _diff_manifest(
    a: Dict[str, Any], b: Dict[str, Any], prefix: str = ""
) -> List[str]:
    problems: List[str] = []
    for key in sorted(set(a) | set(b)):
        label = f"{prefix}{key}"
        if key not in a or key not in b:
            problems.append(f"manifest key {label!r} only in one checkpoint")
        elif isinstance(a[key], dict) and isinstance(b[key], dict):
            problems.extend(_diff_manifest(a[key], b[key], f"{label}."))
        elif a[key] != b[key]:
            problems.append(
                f"manifest {label!r} differs: {a[key]!r} vs {b[key]!r}"
            )
    return problems


def _diff_checkpoints(a: Checkpoint, b: Checkpoint) -> List[str]:
    problems: List[str] = []
    # members/arrays digests are compared via the manifest tables below;
    # array payloads additionally get a value-level comparison.
    skip = ("members",)
    problems.extend(
        _diff_manifest(
            {k: v for k, v in a.manifest.items() if k not in skip},
            {k: v for k, v in b.manifest.items() if k not in skip},
        )
    )
    for key in sorted(set(a.arrays) | set(b.arrays)):
        if key not in a.arrays or key not in b.arrays:
            problems.append(f"array {key!r} only in one checkpoint")
            continue
        left, right = a.arrays[key], b.arrays[key]
        if left.shape != right.shape:
            problems.append(
                f"array {key!r} shape differs: {left.shape} vs {right.shape}"
            )
        elif not np.array_equal(left, right):
            delta = float(np.max(np.abs(left - right)))
            problems.append(
                f"array {key!r} values differ (max abs delta {delta:.3e})"
            )
    for name in sorted(set(a.texts) | set(b.texts)):
        if a.texts.get(name) != b.texts.get(name):
            problems.append(f"text member {name!r} differs")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            ckpt = read_checkpoint(args.checkpoint)
            if args.json:
                print(json.dumps(ckpt.manifest, sort_keys=True, indent=2))
            else:
                print("\n".join(_inspect_lines(ckpt)))
            return 0
        if args.command == "verify":
            for path in args.checkpoints:
                manifest = verify_checkpoint(path)
                print(
                    f"OK {path} (iteration {manifest['iteration']}, "
                    f"{len(manifest['members'])} members)"
                )
            return 0
        if args.command == "diff":
            problems = _diff_checkpoints(
                read_checkpoint(args.a), read_checkpoint(args.b)
            )
            if problems:
                for problem in problems:
                    print(problem)
                return 1
            print("checkpoints are identical")
            return 0
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())

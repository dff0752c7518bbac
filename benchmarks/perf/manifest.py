"""Which commit, host and configuration produced a result file."""

from __future__ import annotations

import os
import platform
import socket
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import numpy as np

__all__ = ["run_manifest"]


def _git(root: Path, *argv: str) -> Optional[str]:
    """A git query's output, or None outside a work tree / without git."""
    try:
        done = subprocess.run(
            ("git", *argv), cwd=root, capture_output=True, text=True,
            check=False, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_manifest(
    seed: int, root: Path, thread_env: Sequence[str]
) -> Dict[str, Any]:
    status = _git(root, "status", "--porcelain")
    return {
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "hostname": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {name: os.environ.get(name) for name in thread_env},
        "seed": seed,
    }

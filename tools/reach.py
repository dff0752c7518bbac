"""Which function bodies under ``src/repro`` the shipped entry points call.

Runs every entry point below in a subprocess whose interpreter records,
through a ``sys.setprofile`` hook, each Python function it enters (the
hook reaches the subprocesses those start too), then prints every
function body under the package that none of them called, grouped by
file, and one summary line::

    uncalled: <lines> of <lines> lines, <bodies> of <bodies> function bodies

A body's lines run from its first decorator to its last line; a nested
body counts once, inside the body that holds it.  From the repository
root (about 25 s on a 2-vCPU host; stdlib only)::

    python tools/reach.py

The entry points: ``run_all test``; the four perf workloads at ``--smoke``;
``ckpt_smoke`` on two traced specs (the default and a store-backed
async one), each run whole, and run with ``--kill`` and ``--resume``d;
the ``obs`` and ``ckpt`` CLIs on the resumed runs' output;
``scale --population 1000 --trace``; and ``tools/memory_phases.py``.
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Installed as ``sitecustomize`` on the subprocesses' ``PYTHONPATH``:
#: every interpreter started below them records the code objects it
#: enters and, at exit, writes the ``file<TAB>first line`` of those
#: under ``REACH_ROOT`` to ``REACH_OUT/<pid>.txt``.
_HOOK = '''\
import atexit, os, sys

_codes = set()


def _hook(frame, event, arg, _add=_codes.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    root = os.environ["REACH_ROOT"]
    seen = {
        f"{path}\\t{code.co_firstlineno}"
        for code in _codes
        for path in (os.path.realpath(code.co_filename),)
        if path.startswith(root)
    }
    out = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt")
    with open(out, "w") as fh:
        fh.write("\\n".join(sorted(seen)))


atexit.register(_dump)
sys.setprofile(_hook)
'''


def shipped_entry_points(work: Path) -> Iterator[List[str]]:
    """The shipped entry points, as argv lists; ``work`` holds their
    output.  A generator: the ``ckpt`` CLI's arguments are the files
    the ``ckpt_smoke`` runs before it wrote."""
    py = sys.executable
    yield [py, "-m", "repro.experiments.run_all", "test"]
    yield [py, "benchmarks/perf/run.py", "--smoke"]
    specs = {
        "sync": None,
        "async": '{"stored": true, "seeded": true, "async_config": {"staleness_bound": 2}}',
    }
    for name, spec in specs.items():
        smoke = [py, "-m", "repro.experiments.ckpt_smoke"]
        smoke += [] if spec is None else ["--spec", spec]
        yield smoke + ["--dir", str(work / name)]
        # Killed legs record nothing (no exit handler runs); their code
        # is the whole run's up to the kill.
        yield smoke + ["--dir", str(work / f"{name}-resumed"), "--kill"]
        yield smoke + ["--dir", str(work / f"{name}-resumed"), "--resume"]
    trace = str(work / "sync-resumed" / "trace.jsonl")
    other = str(work / "async-resumed" / "trace.jsonl")
    for command in ("report", "validate", "digest", "export", "watch"):
        yield [py, "-m", "repro.obs", command, trace]
    yield [py, "-m", "repro.obs", "diff", str(work / "sync" / "trace.jsonl"), trace]
    yield [py, "-m", "repro.obs", "diff", trace, other]
    ckpts = sorted(str(p) for p in (work / "sync-resumed" / "ckpt").glob("*.ckpt"))
    yield [py, "-m", "repro.ckpt", "inspect", ckpts[-1]]
    yield [py, "-m", "repro.ckpt", "verify", *ckpts]
    yield [py, "-m", "repro.ckpt", "diff", ckpts[0], ckpts[-1]]
    yield [py, "-m", "repro.experiments.scale", "--population", "1000", "--trace"]
    yield [py, "tools/memory_phases.py"]


def record(commands: Iterator[List[str]], root: Path, cwd: Path, work: Path) -> Set[Tuple[str, int]]:
    """Run ``commands`` under the hook; the ``(file, first line)`` of
    every code object under ``root`` that any of them entered."""
    hook_dir, out = work / "hook", work / "calls"
    hook_dir.mkdir()
    out.mkdir()
    (hook_dir / "sitecustomize.py").write_text(_HOOK)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook_dir), str(ROOT / "src"), str(ROOT)]),
        REACH_ROOT=os.path.realpath(root),
        REACH_OUT=str(out),
    )
    for argv in commands:
        print("$", " ".join(shlex.quote(a) for a in argv), file=sys.stderr, flush=True)
        done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, check=False)
        expected = {0}
        if "--kill" in argv:
            expected.add(-signal.SIGKILL)  # the leg kills itself
        if "diff" in argv:
            expected.add(1)  # its inputs differ
        if done.returncode not in expected:
            raise SystemExit(f"exited with {done.returncode}: {argv}")
    called = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, first = line.rsplit("\t", 1)
            called.add((path, int(first)))
    return called


def function_bodies(root: Path) -> Iterator[Tuple[str, str, int, int]]:
    """``(file, qualified name, first line, last line)`` of every
    function body under ``root``; the first line is the first
    decorator's, as a code object's ``co_firstlineno`` is."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, int, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield name, first, child.end_lineno
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    for path in sorted(root.rglob("*.py")):
        real = os.path.realpath(path)
        for name, first, last in walk(ast.parse(path.read_text()), ""):
            yield real, name, first, last


def report(root: Path, called: Set[Tuple[str, int]]) -> List[str]:
    """The uncalled bodies by file, then the summary line."""
    lines: Dict[str, Set[int]] = {}
    uncalled: Dict[str, List[Tuple[str, int, int]]] = {}
    n_bodies = n_uncalled = 0
    for path, name, first, last in function_bodies(root):
        span = set(range(first, last + 1))
        lines.setdefault(path, set()).update(span)
        n_bodies += 1
        if (path, first) not in called:
            n_uncalled += 1
            found = uncalled.setdefault(path, [])
            if not found or last > found[-1][2]:  # not nested in the last one
                found.append((name, first, last))
    base = os.path.realpath(root.parent)
    out = []
    for path, bodies in sorted(uncalled.items()):
        count = sum(last - first + 1 for _, first, last in bodies)
        out.append(f"{os.path.relpath(path, base)}: {count} lines")
        out += [f"  {first}-{last}  {name}" for name, first, last in bodies]
    total = sum(len(span) for span in lines.values())
    dead = sum(last - first + 1 for bodies in uncalled.values() for _, first, last in bodies)
    out.append(
        f"uncalled: {dead} of {total} lines, "
        f"{n_uncalled} of {n_bodies} function bodies"
    )
    return out


def main(argv: Sequence[str] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    root = ROOT / "src" / "repro"
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        called = record(shipped_entry_points(work), root, ROOT, work)
    print("\n".join(report(root, called)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Small API-surface contracts: reprs, exports, package wiring."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _public_modules():
    """Every importable public module under the ``repro`` package."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        leaf = info.name.rsplit(".", 1)[-1]
        if not leaf.startswith("_"):
            names.append(info.name)
    return names


@pytest.mark.parametrize("module_name", _public_modules())
def test_module_exposes_correct_all(module_name):
    """The ``__all__`` contract: every public module defines
    ``__all__``, every entry resolves, and every public function/class
    defined in the module is listed."""
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} has no __all__"
    exported = module.__all__
    assert len(set(exported)) == len(exported), (
        f"{module_name}.__all__ has duplicates"
    )
    for name in exported:
        assert hasattr(module, name), (
            f"{module_name}.__all__ exports undefined name {name!r}"
        )
    defined_here = {
        name
        for name, obj in inspect.getmembers(
            module,
            lambda o: inspect.isclass(o) or inspect.isfunction(o),
        )
        if not name.startswith("_") and getattr(obj, "__module__", None) == module_name
    }
    missing = defined_here - set(exported)
    assert not missing, (
        f"{module_name}: public names missing from __all__: {sorted(missing)}"
    )
from repro.baselines import GaiaPolicy, VanillaPolicy
from repro.fl import UniformSampler
from repro.nn import Dense, Sequential
from repro.nn.parameter import Parameter


def test_top_level_exports():
    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_policy_names_are_distinct():
    from repro.core.policy import CMFLPolicy
    from repro.core.thresholds import ConstantThreshold

    names = {
        VanillaPolicy().name,
        GaiaPolicy(ConstantThreshold(0.1)).name,
        CMFLPolicy(ConstantThreshold(0.1)).name,
    }
    assert names == {"vanilla", "gaia", "cmfl"}


def test_parameter_repr_and_shape():
    p = Parameter(np.zeros((2, 3)), name="w")
    assert "w" in repr(p)
    assert p.shape == (2, 3) and p.size == 6


def test_module_reprs():
    model = Sequential([Dense(2, 3, rng=0)])
    assert "Dense" in repr(model)
    assert "parameters=9" in repr(model.layers[0])


def test_schedule_reprs():
    from repro.core.thresholds import (
        ConstantThreshold,
        InverseSqrtThreshold,
        LinearDecayThreshold,
    )
    from repro.nn.schedules import ConstantLR, InverseSqrtLR

    for obj in (ConstantThreshold(0.5), InverseSqrtThreshold(0.5),
                LinearDecayThreshold(0.5, 0.4, 10),
                ConstantLR(0.1), InverseSqrtLR(0.1)):
        assert type(obj).__name__ in repr(obj)


def test_fl_package_exports_extensions():
    assert UniformSampler(count=5).count == 5


def test_dataset_repr():
    from repro.data.dataset import Dataset

    ds = Dataset(np.zeros((4, 2)), np.zeros(4))
    assert "n=4" in repr(ds)


#: Modules no experiment, benchmark or tool reaches, each with the fact
#: that keeps it anyway.  Test-only helpers live under ``tests/``.
UNREACHED_ON_PURPOSE = {}

#: Every ``__main__`` module, with what runs it.  A CLI is a root only
#: when a report, experiment, benchmark, tool or the verify skill runs it.
RUN_AS_MAIN = {
    "repro.__main__": (
        "the verify skill's Experiments CLI (python -m repro --help) and "
        "README's python -m repro list / all test"
    ),
    "repro.obs.__main__": (
        "tools/build_experiments_md.py's python -m repro.obs validate / "
        "report / watch / export, and the verify skill's Trace CLI"
    ),
    "repro.ckpt.__main__": (
        "tools/build_experiments_md.py's python -m repro.ckpt verify"
    ),
}


@functools.lru_cache(maxsize=None)
def _imports(path):
    """``{bound name: dotted target}`` of every import statement in ``path``."""
    bound = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            bound.update({a.asname or a.name: prefix + a.name for a in node.names})
    return bound


def test_every_module_is_reached_by_an_experiment_benchmark_or_tool():
    """Nothing ships that nothing runs.  Roots: every experiment, every
    ``__main__`` in :data:`RUN_AS_MAIN`, everything ``benchmarks/`` and
    ``tools/`` import.  A name a package ``__init__`` re-exports is an
    import of the module that defines it; the re-export line itself
    reaches nothing."""
    files = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    packages = {m for m, path in files.items() if path.name == "__init__.py"}

    def defining_module(name):
        while name and name not in files:
            owner, _, attr = name.rpartition(".")
            name = _imports(files[owner]).get(attr) if owner in packages else owner
        return name if name and name not in packages else None

    mains = sorted(m for m in files if m.endswith(".__main__"))
    assert mains == sorted(RUN_AS_MAIN), "a __main__ nothing runs, or a stale entry"
    reached = {m for m in files if m.startswith("repro.experiments.")}
    reached |= set(RUN_AS_MAIN)
    frontier = [files[m] for m in reached]
    for outside in ("benchmarks", "tools"):
        frontier.extend((REPO / outside).rglob("*.py"))
    while frontier:
        for target in _imports(frontier.pop()).values():
            module = defining_module(target)
            if module is not None and module not in reached:
                reached.add(module)
                frontier.append(files[module])
    unreached = sorted(set(files) - packages - reached)
    assert unreached == sorted(UNREACHED_ON_PURPOSE), unreached


#: Top-level classes and functions that only tests call, each with the
#: fact that keeps it (besides every name of an UNREACHED_ON_PURPOSE
#: module).
CALLED_ONLY_BY_TESTS = {
    "repro.data.synthetic_digits.render_digit": (
        "the one-image case of render_digits, drawn against scipy's "
        "original in tests/test_reference_kernels.py"
    ),
    "repro.nn.layers.conv.col2im": (
        "the public fold tests/test_reference_kernels.py compares bitwise"
    ),
    "repro.nn.serialization.flatten_gradients": (
        "the serial gradient view the stacked-gradient tests compare against"
    ),
}


def _identifiers(nodes, with_imports=True):
    """Every name, attribute and import alias referenced under ``nodes``."""
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif with_imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found.update(alias.name.split("."))
                found.add(alias.asname or alias.name)
    return found


def test_every_top_level_name_is_used_outside_tests():
    """Nothing ships that nothing runs, one level down.  A top-level
    ``def`` / ``class`` is used when an identifier outside its own body
    names it: anywhere in ``src/repro`` except a package ``__init__``'s
    import lines, or anywhere in ``benchmarks/`` or ``tools/``."""
    defined, used = {}, set()
    for path in SRC.rglob("*.py"):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text())
        defs = [
            node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in defs:
            defined.setdefault(node.name, []).append(module)
            used |= _identifiers([node]) - {node.name}
        rest = [node for node in tree.body if node not in defs]
        used |= _identifiers(rest, with_imports=path.name != "__init__.py")
    for outside in ("benchmarks", "tools"):
        for path in (REPO / outside).rglob("*.py"):
            used |= _identifiers([ast.parse(path.read_text())])
    unused = sorted(
        f"{module}.{name}"
        for name, modules in defined.items()
        if not name.startswith("_") and name not in used
        for module in modules
        if module not in UNREACHED_ON_PURPOSE
    )
    assert unused == sorted(CALLED_ONLY_BY_TESTS), unused


def test_every_config_field_is_read():
    """A config field nothing reads is an option with no effect."""
    from repro.fl.config import FLConfig
    from repro.fl.events.config import AsyncConfig
    from repro.mtl.mocha import MTLConfig

    read = {
        node.attr
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (FLConfig, AsyncConfig, MTLConfig)
        for f in dataclasses.fields(cls)
        if f.name not in read
    ]
    assert unread == [], unread

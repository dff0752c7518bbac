"""The repo-specific rules enforced by ``repro.lint``.

Every rule is an :class:`~repro.lint.engine.LintRule` (an
``ast.NodeVisitor``) instantiated per file.  Rules resolve imported
names to canonical dotted paths (``np.random.normal`` ->
``numpy.random.normal``) so aliases cannot dodge them.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import LintRule

__all__ = [
    "ExplicitDtypeRule",
    "MetricNameRegistryRule",
    "NoBareArtifactWriteRule",
    "NoGlobalRngRule",
    "NoParamMutationRule",
    "NoPrintInLibraryRule",
    "NoSequentialClientLoopRule",
    "NoWallclockSeedRule",
    "UnusedPureResultRule",
    "dotted_parts",
]

#: numpy.random attributes that are part of the explicit-Generator API
#: and therefore fine to touch (everything else is legacy global state).
ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Dtype-inferring constructors and how many positional arguments they
#: need before the dtype has been given positionally.
DTYPE_CONSTRUCTORS: Dict[str, int] = {
    "zeros": 2,
    "ones": 2,
    "empty": 2,
    "full": 3,
}

#: ndarray / container methods that mutate the receiver in place.
MUTATING_METHODS = frozenset(
    {
        "sort",
        "fill",
        "resize",
        "put",
        "partition",
        "setfield",
        "setflags",
        "itemset",
        "byteswap",
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "update",
    }
)

#: Calls whose result is the only effect; discarding it is a bug.
DEFAULT_PURE_FUNCTIONS = frozenset(
    {
        "relevance",
        "relevance_per_segment",
        "sign_agreement_counts",
        "normalized_update_difference",
        "encode",
        "decode",
        # nn kernels that return a fresh array and touch nothing else.
        "select_grad",
        "im2col",
        "col2im",
        "_fold",
    }
)

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

_SEEDISH = re.compile(r"seed|entropy|run_id|exp_id|experiment_id", re.IGNORECASE)
_SEEDISH_CALLEES = frozenset({"default_rng", "SeedSequence", "RandomState"})


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``np.random.normal`` -> ``["np", "random", "normal"]`` (or None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class _AliasTrackingRule(LintRule):
    """Shared canonical-name resolution over tracked module imports."""

    #: Module paths worth remembering aliases for.
    tracked_modules: Tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: local name -> canonical dotted path it refers to.
        self._aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.tracked_modules:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self._aliases[bound] = target
            elif alias.name.split(".")[0] in self.tracked_modules:
                # ``import numpy.random`` binds the root package name.
                if alias.asname:
                    self._aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    self._aliases[root] = root
        self.handle_import(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module in self.tracked_modules:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                self._aliases[bound] = f"{node.module}.{alias.name}"
        self.handle_import_from(node)

    def handle_import(self, node: ast.Import) -> None:
        """Hook for subclasses; default is a no-op."""

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        """Hook for subclasses; default is a no-op."""

    def canonical(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of an expression, if its base is a
        tracked import; ``None`` otherwise."""
        parts = dotted_parts(node)
        if not parts:
            return None
        head = self._aliases.get(parts[0])
        if head is None:
            return None
        return ".".join([head, *parts[1:]])


class NoGlobalRngRule(_AliasTrackingRule):
    """Forbid module-level RNG state (``np.random.*``, stdlib ``random``).

    Deterministic reproduction requires every draw to come from an
    explicit ``numpy.random.Generator`` (see ``repro.utils.rng``); any
    call that touches numpy's or the stdlib's hidden global stream makes
    runs order-dependent and irreproducible.
    """

    name = "no-global-rng"
    description = (
        "stochastic calls must route through explicit numpy Generators "
        "(repro.utils.rng), never module-level RNG state"
    )
    tracked_modules = ("numpy", "numpy.random")

    def handle_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib 'random' uses hidden global state; draw from "
                    "an explicit numpy Generator (repro.utils.rng.ensure_rng)",
                )

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        if node.level != 0:
            return
        if node.module == "random":
            self.report(
                node,
                "stdlib 'random' uses hidden global state; draw from "
                "an explicit numpy Generator (repro.utils.rng.ensure_rng)",
            )
        elif node.module == "numpy.random":
            for alias in node.names:
                if alias.name != "*" and alias.name not in ALLOWED_NP_RANDOM:
                    self.report(
                        node,
                        f"'numpy.random.{alias.name}' drives the legacy "
                        "global RNG; use an explicit Generator instead",
                    )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        canonical = self.canonical(node)
        if canonical is not None and canonical.startswith("numpy.random"):
            parts = canonical.split(".")
            if len(parts) >= 3 and parts[2] not in ALLOWED_NP_RANDOM:
                self.report(
                    node,
                    f"'{'.'.join(parts[:3])}' drives the legacy global "
                    "RNG; route through repro.utils.rng.ensure_rng / "
                    "child_rngs instead",
                )
            # A resolved numpy.random chain needs no deeper inspection.
            return
        self.generic_visit(node)


class ExplicitDtypeRule(_AliasTrackingRule):
    """Require an explicit ``dtype`` on dtype-inferring constructors.

    ``np.zeros(n)`` silently commits to float64; mixing it with float32
    model parameters flips sign-agreement statistics after the implicit
    cast.  Hot-path code must say what it means.
    """

    name = "explicit-dtype"
    description = (
        "np.zeros/np.ones/np.empty/np.full in hot paths must pass an "
        "explicit dtype"
    )
    default_paths = ("core/", "fl/", "nn/")
    tracked_modules = ("numpy",)

    def visit_Call(self, node: ast.Call) -> None:
        canonical = self.canonical(node.func)
        if canonical is not None:
            parts = canonical.split(".")
            if len(parts) == 2 and parts[0] == "numpy":
                ctor = parts[1]
                constructors = self.settings.option(
                    "constructors", DTYPE_CONSTRUCTORS
                )
                if ctor in constructors and not self._has_dtype(
                    node, int(constructors[ctor])
                ):
                    self.report(
                        node,
                        f"'{ast.unparse(node.func)}' without an explicit "
                        "dtype silently commits to float64; pass dtype=...",
                    )
        self.generic_visit(node)

    @staticmethod
    def _has_dtype(node: ast.Call, positional_slot: int) -> bool:
        if len(node.args) >= positional_slot:
            return True
        for keyword in node.keywords:
            if keyword.arg == "dtype" or keyword.arg is None:  # dtype= or **kw
                return True
        return False


class NoParamMutationRule(LintRule):
    """Forbid in-place mutation of function parameters.

    In ``core/`` and the aggregation path, arrays received as arguments
    frequently alias server-side state (``server.global_params``, the
    feedback history); ``u += x`` or ``u[...] = x`` there corrupts state
    across rounds in ways no local test catches.
    """

    name = "no-param-mutation"
    description = (
        "function parameters (potentially aliased ndarrays) must not be "
        "mutated in place"
    )
    default_paths = ("core/", "fl/aggregation.py")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Stack of (param names, name -> first-rebind line) per function.
        self._scopes: List[Tuple[Set[str], Dict[str, int]]] = []

    def _visit_function(self, node) -> None:
        args = node.args
        names = {
            a.arg
            for a in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]
        } - {"self", "cls"}
        self._scopes.append((names, {}))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_live_param(self, name: str, lineno: int) -> bool:
        """Is ``name`` a parameter not yet rebound above ``lineno``?"""
        for params, rebinds in reversed(self._scopes):
            if name in params:
                first_rebind = rebinds.get(name)
                return first_rebind is None or lineno <= first_rebind
            if name in rebinds:
                return False
        return False

    def _note_rebind(self, name: str, lineno: int) -> None:
        if self._scopes:
            rebinds = self._scopes[-1][1]
            if name not in rebinds or lineno < rebinds[name]:
                rebinds[name] = lineno

    @staticmethod
    def _base_name(node: ast.AST) -> Optional[str]:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store_target(node.target, node.lineno)
        self.generic_visit(node)

    def _check_store_target(self, target: ast.AST, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element, lineno)
            return
        if isinstance(target, ast.Name):
            self._note_rebind(target.id, lineno)
            return
        if isinstance(target, ast.Subscript):
            base = self._base_name(target)
            if base and self._is_live_param(base, lineno):
                self.report(
                    target,
                    f"assignment into parameter '{base}' mutates a "
                    "possibly aliased buffer; operate on a copy",
                )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        base = self._base_name(node.target)
        if base and self._is_live_param(base, node.lineno):
            self.report(
                node,
                f"augmented assignment mutates parameter '{base}' in "
                "place; aliasing corrupts caller state — use "
                f"'{base} = {base} <op> ...' on a copy",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            base = self._base_name(func.value)
            if (
                isinstance(func.value, ast.Name)
                and base
                and self._is_live_param(base, node.lineno)
            ):
                self.report(
                    node,
                    f"'.{func.attr}()' mutates parameter '{base}' in "
                    "place; operate on a copy",
                )
        self.generic_visit(node)


class NoWallclockSeedRule(_AliasTrackingRule):
    """Forbid wall-clock time feeding seeds or experiment identifiers.

    A seed derived from ``time.time()`` makes the run unreproducible by
    construction.  Seeds must flow from the experiment's root seed via
    ``repro.utils.rng.child_rngs``.
    """

    name = "no-wallclock-seed"
    description = (
        "time.time()/datetime.now() must not feed seeds or experiment ids"
    )
    tracked_modules = ("time", "datetime", "datetime.datetime")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._flagged: Set[int] = set()

    def _wallclock_calls(self, node: ast.AST) -> Iterator[ast.Call]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                canonical = self.canonical(sub.func)
                if canonical in _WALLCLOCK_CALLS:
                    yield sub

    def _flag(self, call: ast.Call, context: str) -> None:
        if id(call) in self._flagged:
            return
        self._flagged.add(id(call))
        self.report(
            call,
            f"wall-clock call feeds {context}; derive it from the root "
            "seed via repro.utils.rng.child_rngs for reproducibility",
        )

    @staticmethod
    def _target_names(target: ast.AST) -> Iterator[str]:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    def _check_assign(self, targets: Sequence[ast.AST], value: ast.AST) -> None:
        names = [n for t in targets for n in self._target_names(t)]
        seedish = [n for n in names if _SEEDISH.search(n)]
        if not seedish:
            return
        for call in self._wallclock_calls(value):
            self._flag(call, f"'{seedish[0]}'")

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_assign([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_assign([node.target], node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else ""
        )
        if callee in _SEEDISH_CALLEES or (callee and _SEEDISH.search(callee)):
            for arg in [*node.args, *[k.value for k in node.keywords]]:
                for call in self._wallclock_calls(arg):
                    self._flag(call, f"a '{callee}(...)' argument")
        else:
            for keyword in node.keywords:
                if keyword.arg and _SEEDISH.search(keyword.arg):
                    for call in self._wallclock_calls(keyword.value):
                        self._flag(call, f"keyword '{keyword.arg}'")
        self.generic_visit(node)


class UnusedPureResultRule(LintRule):
    """Flag discarded results of pure functions.

    ``relevance(u, u_bar)`` and the nn kernels (``im2col``, ...) have no
    side effects; a bare call statement is always a bug — the author
    meant to use the value.
    """

    name = "unused-pure-result"
    description = "discarding the result of a side-effect-free call is a bug"

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            callee = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            pure = frozenset(
                self.settings.option("functions", DEFAULT_PURE_FUNCTIONS)
            )
            if callee in pure:
                self.report(
                    node,
                    f"result of pure function '{callee}' is discarded; "
                    "assign or remove the call",
                )
        self.generic_visit(node)


class NoSequentialClientLoopRule(LintRule):
    """Per-client compute loops must route through ``repro.fl.executor``.

    A literal ``for client in ...: client.compute_update(...)`` loop
    (or the comprehension equivalent) serialises the compute half of a
    round and silently bypasses the execution engine — the thread and
    process backends, the shared-memory broadcast and the deterministic
    reduction all live behind ``ClientExecutor.run_round``.  Only the
    executor module itself (where the serial backend is the
    implementation) may loop directly.
    """

    name = "no-sequential-client-loop"
    description = (
        "per-client compute_update loops must go through the "
        "repro.fl.executor engine (ClientExecutor.run_round)"
    )

    #: Package-relative files where the direct loop IS the engine.
    DEFAULT_ALLOWED = ("fl/executor.py",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Call nodes already reported (nested loops share bodies).
        self._flagged: Set[int] = set()

    def _allowed_here(self) -> bool:
        allowed = self.settings.option("allow_in", self.DEFAULT_ALLOWED)
        return self.ctx.package_path in tuple(allowed)

    @staticmethod
    def _compute_update_call(node: ast.AST) -> Optional[ast.Call]:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "compute_update"
            ):
                return sub
        return None

    def _check(self, loop_node: ast.AST, body: Sequence[ast.AST]) -> None:
        if self._allowed_here():
            return
        for stmt in body:
            call = self._compute_update_call(stmt)
            if call is not None and id(call) not in self._flagged:
                self._flagged.add(id(call))
                self.report(
                    call,
                    "sequential per-client compute loop; fan out through "
                    "the trainer's executor (ClientExecutor.run_round) so "
                    "the thread/process backends apply",
                )
                return

    def visit_For(self, node: ast.For) -> None:
        self._check(node, node.body)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check(node, node.body)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check(node, node.body)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        if not self._allowed_here():
            element = node.key if isinstance(node, ast.DictComp) else node.elt
            call = self._compute_update_call(element)
            if call is not None and id(call) not in self._flagged:
                self._flagged.add(id(call))
                self.report(
                    call,
                    "sequential per-client compute comprehension; fan out "
                    "through the trainer's executor "
                    "(ClientExecutor.run_round) so the thread/process "
                    "backends apply",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension


class NoPrintInLibraryRule(LintRule):
    """Library code must not ``print``; observability goes through sinks.

    A stray ``print`` in ``core``/``fl``/``nn`` writes to whatever
    stdout happens to be attached — invisible in a worker process,
    corrupting piped output, impossible to assert on.  Diagnostics
    belong in the :mod:`repro.obs` event stream (or an explicit
    ``stream.write`` on a caller-supplied stream); only CLI entry
    points and experiment scripts, which own their stdout, may print.
    """

    name = "no-print-in-library"
    description = (
        "library modules must not call print(); route diagnostics "
        "through repro.obs sinks (CLI/experiment scripts are exempt)"
    )

    #: Package-relative files/dirs (trailing '/') that own their stdout.
    DEFAULT_ALLOWED = ("lint/cli.py", "tools/", "experiments/")

    def _allowed_here(self) -> bool:
        allowed = tuple(self.settings.option("allow_in", self.DEFAULT_ALLOWED))
        path = self.ctx.package_path
        return any(
            path.startswith(entry) if entry.endswith("/") else path == entry
            for entry in allowed
        )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not self._allowed_here()
        ):
            self.report(
                node,
                "print() in library code; emit through a repro.obs sink "
                "or write to a caller-supplied stream instead",
            )
        self.generic_visit(node)


class NoBareArtifactWriteRule(_AliasTrackingRule):
    """Artifact writes in library code must go through ``atomic_io``.

    A bare ``open(path, "w")``, ``Path.write_text``/``write_bytes`` or
    ``json.dump`` truncates the target before the new content is
    durable: a crash mid-write leaves a torn artifact — exactly the
    failure the checkpoint/trace recovery machinery exists to survive.
    Library code writes files through
    :func:`repro.utils.atomic_io.atomic_write` (temp file + fsync +
    rename); only ``atomic_io`` itself, CLI entry points and experiment
    scripts (whose outputs are disposable) are exempt.  Streaming
    writers that must append in place (the JSONL trace sink) keep their
    mode in a variable and fsync explicitly — the rule only flags
    literal write/create modes.
    """

    name = "no-bare-artifact-write"
    description = (
        "library code must write artifacts via repro.utils.atomic_io, "
        "not bare open(.., 'w')/write_text/json.dump"
    )
    tracked_modules = ("json",)

    #: Package-relative files/dirs (trailing '/') exempt from the rule.
    DEFAULT_ALLOWED = (
        "utils/atomic_io.py",
        "lint/cli.py",
        "tools/",
        "experiments/",
    )

    #: Literal ``open`` modes that truncate or create the target.
    _DESTRUCTIVE = ("w", "x")

    def _allowed_here(self) -> bool:
        allowed = tuple(self.settings.option("allow_in", self.DEFAULT_ALLOWED))
        path = self.ctx.package_path
        return any(
            path.startswith(entry) if entry.endswith("/") else path == entry
            for entry in allowed
        )

    @classmethod
    def _literal_write_mode(cls, node: ast.Call) -> Optional[str]:
        mode: Optional[ast.AST] = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(ch in mode.value for ch in cls._DESTRUCTIVE)
        ):
            return mode.value
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if not self._allowed_here():
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._literal_write_mode(node)
                if mode is not None:
                    self.report(
                        node,
                        f"bare open(.., {mode!r}) truncates the target "
                        "before the write is durable; use "
                        "repro.utils.atomic_io.atomic_write",
                    )
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text",
                "write_bytes",
            ):
                self.report(
                    node,
                    f"'.{func.attr}()' is not crash-safe; use "
                    f"repro.utils.atomic_io.atomic_{func.attr.split('_')[1]} "
                    "(tmp + fsync + rename)",
                )
            elif self.canonical(func) == "json.dump":
                self.report(
                    node,
                    "json.dump writes incrementally into a live file; "
                    "json.dumps the payload and write it via "
                    "repro.utils.atomic_io.atomic_write",
                )
        self.generic_visit(node)


class MetricNameRegistryRule(LintRule):
    """Metric names must be literals declared in ``repro.obs.names``.

    A typo'd ``metrics.counter("comm.uplaods")`` silently opens a
    separate time series — no error, just missing data in every report
    built on the real name.  Requiring each ``counter``/``gauge``/
    ``histogram`` call to pass a string literal declared in the central
    registry turns that into a lint failure.
    """

    name = "metric-name-registry"
    description = (
        "counter()/gauge()/histogram() names must be string literals "
        "declared in repro.obs.names"
    )

    #: Attribute names whose receiver looks like a metrics registry.
    INSTRUMENTS = frozenset({"counter", "gauge", "histogram"})
    RECEIVERS = frozenset({"metrics", "registry"})

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Lazy import: keeps repro.lint importable without repro.obs on
        # the path (both are stdlib-only; this is layering hygiene).
        from repro.obs.names import METRIC_NAMES

        self._names = METRIC_NAMES | set(
            self.settings.option("extra_names", ())
        )

    def _receiver_is_registry(self, func: ast.Attribute) -> bool:
        parts = dotted_parts(func.value)
        return bool(parts) and parts[-1] in self.RECEIVERS

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self.INSTRUMENTS
            and self._receiver_is_registry(func)
            and node.args
        ):
            self._check_name(node, node.args[0], func.attr)
        self.generic_visit(node)

    def _check_name(
        self, node: ast.Call, arg: ast.expr, instrument: str
    ) -> None:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value not in self._names:
                self.report(
                    node,
                    f"metric name {arg.value!r} is not declared in "
                    "repro.obs.names; add it to METRIC_NAMES so reports "
                    "can rely on the registry",
                )
            return
        self.report(
            node,
            f"{instrument}() name must be a string literal, not a "
            "computed expression — the registry cannot vouch for "
            "runtime names",
        )


DEFAULT_RULES: Tuple[type, ...] = (
    NoGlobalRngRule,
    ExplicitDtypeRule,
    NoParamMutationRule,
    NoBareArtifactWriteRule,
    NoPrintInLibraryRule,
    NoSequentialClientLoopRule,
    NoWallclockSeedRule,
    UnusedPureResultRule,
    MetricNameRegistryRule,
)

"""The one lint driver, and phase 1 of its whole-program pass.

:class:`ProjectAnalyzer` reads and parses every file once, runs the
per-file rules (:mod:`repro.lint.rules`) on the tree, and reduces the
file to a :class:`ModuleSummary` — a plain-dict digest of the facts
the flow rules need, with names already resolved through the module's
import table: RNG and wall-clock taint expressions, class attribute
maps, capture-method references and trace-call findings.  Phase 2
(:mod:`repro.lint.flow_rules`) then runs pure-data rules over the
:class:`ProjectModel` built from those summaries.  ``python -m repro.lint``
and every programmatic caller go through this driver, so there is no
per-file-only mode to forget the flow rules in.

Taint expressions are symbolic: ``{"d": bool, "c": [refs], "wc": bool}``
means *tainted directly* (``d``: the value came straight out of an RNG
constructor), *tainted if any named callee returns taint* (``c``:
canonical dotted refs, resolved against the cross-module fixpoint in
:mod:`repro.lint.dataflow`), and *wall-clock tainted* (``wc``: the
value derives from a clock reading; wall-clock taint needs no
cross-module component because every clock source is a direct call).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.engine import (
    FileContext,
    Linter,
    Violation,
    package_relative_path,
    parse_suppressions,
)
from repro.lint.rules import dotted_parts

__all__ = [
    "AnalysisResult",
    "CAPTURE_METHODS",
    "ModuleSummary",
    "ProjectAnalyzer",
    "ProjectModel",
    "extract_summary",
    "module_name_for",
]

#: Method names that serialise/deserialise persistent state.  A class
#: defining (or inheriting) one is "stateful" for ckpt-state-coverage,
#: and the attributes these methods touch count as captured.
CAPTURE_METHODS = frozenset(
    {
        "state_dict",
        "load_state_dict",
        "export_state",
        "restore_state",
        "restore",
        "rng_state",
        "set_rng_state",
    }
)

#: Canonical callables whose return value IS an RNG stream.
RNG_SOURCES = frozenset({"numpy.random.default_rng", "numpy.random.Generator"})

#: Canonical callables returning wall-clock/scheduling readings.
WALLCLOCK_SOURCES = frozenset(
    {
        "time.monotonic",
        "time.perf_counter",
        "time.time",
        "time.process_time",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Tracer methods that emit events with an ``attrs`` payload.
TRACE_EMIT_METHODS = frozenset({"span", "record_span", "event"})


def module_name_for(package_path: str) -> str:
    """``fl/trainer.py`` -> ``repro.fl.trainer`` (``__init__`` folds up)."""
    parts = package_path[: -len(".py")].split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro", *parts]) if parts else "repro"


# -- taint expressions -------------------------------------------------------


def _taint(d: bool = False, c: Sequence[str] = (), wc: bool = False) -> Dict:
    return {"d": d, "c": sorted(set(c)), "wc": wc}


def _merge(*taints: Optional[Dict]) -> Dict:
    d = False
    wc = False
    calls: Set[str] = set()
    for t in taints:
        if not t:
            continue
        d = d or t["d"]
        wc = wc or t["wc"]
        calls.update(t["c"])
    return _taint(d, calls, wc)


def _is_tainted_shape(t: Optional[Dict]) -> bool:
    return bool(t and (t["d"] or t["c"] or t["wc"]))


@dataclass
class ModuleSummary:
    """One module's phase-1 digest; ``data`` is a plain dict."""

    package_path: str
    data: Dict[str, Any]

    @property
    def module(self) -> str:
        return self.data["module"]

    @property
    def path(self) -> str:
        return self.data["path"]

    @property
    def functions(self) -> Dict[str, Dict]:
        return self.data["functions"]

    @property
    def classes(self) -> Dict[str, Dict]:
        return self.data["classes"]


class _FunctionExtractor:
    """Single forward walk over one function body.

    Merge-only taint semantics: a name once tainted stays tainted for
    the rest of the function (conservative across branches).
    """

    def __init__(
        self,
        node: ast.AST,
        module: "_ModuleExtractor",
        cls_name: Optional[str],
    ) -> None:
        self.node = node
        self.module = module
        self.cls_name = cls_name
        self.env: Dict[str, Dict] = {}
        self.facts: Dict[str, Any] = {
            "name": node.name,
            "cls": cls_name,
            "line": node.lineno,
            "returns": [],
            "tainted_defaults": [],
            "self_refs": [],
            "self_calls": [],
            "strings": [],
            "attr_assigns": [],
            "trace": [],
        }
        self._self_refs: Set[str] = set()
        self._self_calls: Set[str] = set()
        self._strings: Set[str] = set()
        self._span_vars: Dict[str, int] = {}
        self._span_entered: Set[str] = set()

    # -- name resolution ----------------------------------------------------

    def _ref(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a callable expression to a reference.

        Returns ``("ref", canonical)`` for import/top-level rooted
        chains, ``("self", method)`` for ``self.m``, ``("method", m)``
        for attribute access on anything else, or ``None``.
        """
        parts = dotted_parts(node)
        if not parts:
            if isinstance(node, ast.Attribute):
                return ("method", node.attr)
            return None
        root = parts[0]
        if root == "self":
            if len(parts) == 2:
                return ("self", parts[1])
            return ("method", parts[-1])
        canonical = self.module.resolve_name(root)
        if canonical is not None:
            return ("ref", ".".join([canonical, *parts[1:]]))
        if len(parts) > 1:
            return ("method", parts[-1])
        return ("ref", root)

    # -- taint evaluation ---------------------------------------------------

    def _eval(self, node: Optional[ast.AST]) -> Dict:
        if node is None:
            return _taint()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _taint())
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                self._strings.add(node.value)
            return _taint()
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self._self_refs.add(node.attr)
            return self._eval(node.value)
        if isinstance(node, ast.Subscript):
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, (ast.BinOp,)):
            return _merge(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.BoolOp):
            return _merge(*[self._eval(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            self._eval(node.left)
            for comp in node.comparators:
                self._eval(comp)
            return _taint()
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _merge(self._eval(node.body), self._eval(node.orelse))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return _merge(*[self._eval(e) for e in node.elts])
        if isinstance(node, ast.Dict):
            taints = [self._eval(v) for v in node.values]
            taints.extend(self._eval(k) for k in node.keys if k is not None)
            return _merge(*taints)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._bind_target(gen.target, self._eval(gen.iter))
            return self._eval(node.elt)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self._bind_target(gen.target, self._eval(gen.iter))
            return _merge(self._eval(node.key), self._eval(node.value))
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                self._eval(value)
            return _taint()
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return _taint()
        if isinstance(node, ast.NamedExpr):
            taint = self._eval(node.value)
            self._bind_target(node.target, taint)
            return taint
        return _taint()

    def _eval_call(self, node: ast.Call) -> Dict:
        ref = self._ref(node.func)
        if isinstance(node.func, ast.Attribute):
            # Evaluate the receiver chain so ``self.x.y(...)`` records
            # the ``self.x`` reference (capture-closure input).
            self._eval(node.func.value)
        arg_taints = [self._eval(a) for a in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)
        if ref is not None and ref[0] == "self":
            self._self_calls.add(ref[1])
        self._record_trace(node, arg_taints, kw_taints)
        if ref is None:
            return _taint()
        kind, target = ref
        if kind == "ref":
            if target in RNG_SOURCES:
                return _taint(d=True)
            if target in WALLCLOCK_SOURCES:
                return _taint(wc=True)
            return _taint(c=[target])
        if kind == "method" and target == "spawn":
            # SeedSequence.spawn / Generator.spawn: children of a stream.
            return _taint(d=True)
        return _taint()

    # -- recorders ----------------------------------------------------------

    def _record_trace(self, node, arg_taints, kw_taints) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method == "set_attr":
            if any(t["wc"] for t in arg_taints) or any(
                t["wc"] for t in kw_taints.values()
            ):
                self.facts["trace"].append(
                    {
                        "check": "wallclock",
                        "line": node.lineno,
                        "detail": "set_attr",
                    }
                )
            return
        if method not in TRACE_EMIT_METHODS:
            return
        if method == "span":
            wc_kwargs = [
                name
                for name, t in kw_taints.items()
                if t["wc"] and name != "rt"
            ]
            if wc_kwargs:
                self.facts["trace"].append(
                    {
                        "check": "wallclock",
                        "line": node.lineno,
                        "detail": f"span attr {wc_kwargs[0]!r}",
                    }
                )
            return
        # record_span/event: attrs is arg 1 (after the name) or kwarg.
        attr_taints = []
        if len(arg_taints) > 1:
            attr_taints.append(arg_taints[1])
        if "attrs" in kw_taints:
            attr_taints.append(kw_taints["attrs"])
        if any(t["wc"] for t in attr_taints):
            self.facts["trace"].append(
                {
                    "check": "wallclock",
                    "line": node.lineno,
                    "detail": f"{method} attrs",
                }
            )

    # -- statements ---------------------------------------------------------

    def _bind_target(self, target: ast.AST, taint: Dict) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _merge(self.env.get(target.id), taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)

    def _note_self_store(self, target: ast.AST) -> None:
        """Record the attr nearest to ``self`` in a store target, so
        ``self._metrics[k] = v`` and ``self.n += 1`` count as
        self-references."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._note_self_store(elt)
            return
        inner = target
        while isinstance(
            inner, (ast.Attribute, ast.Subscript, ast.Starred)
        ) and not (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
        ):
            inner = inner.value
        if isinstance(inner, ast.Attribute):
            self._self_refs.add(inner.attr)

    def _record_attr_assign(self, target: ast.AST, line: int) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self._self_refs.add(target.attr)
            self.facts["attr_assigns"].append(
                {
                    "name": target.attr,
                    "line": line,
                    "transient": self.module.is_transient_line(line),
                }
            )

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._eval(stmt.value)
            for target in stmt.targets:
                self._record_attr_assign(target, stmt.lineno)
                self._note_self_store(target)
                self._bind_target(target, taint)
                self._track_span_assign(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            taint = self._eval(stmt.value)
            self._record_attr_assign(stmt.target, stmt.lineno)
            self._note_self_store(stmt.target)
            self._bind_target(stmt.target, taint)
            if stmt.value is not None:
                self._track_span_assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value)
            self._note_self_store(stmt.target)
            self._bind_target(stmt.target, taint)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taint = self._eval(stmt.value)
                if _is_tainted_shape(taint):
                    self.facts["returns"].append(
                        {"d": taint["d"], "c": taint["c"], "wc": taint["wc"]}
                    )
        elif isinstance(stmt, ast.Expr):
            self._check_bare_span(stmt)
            self._eval(stmt.value)
        elif isinstance(stmt, ast.For):
            self._bind_target(stmt.target, self._eval(stmt.iter))
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._note_with_expr(item.context_expr)
                taint = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, taint)
            self._walk_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pass  # nested functions are not analysed (documented limit)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, (ast.Assert,)):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            pass

    # -- span pairing -------------------------------------------------------

    def _is_span_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
        )

    def _check_bare_span(self, stmt: ast.Expr) -> None:
        if self._is_span_call(stmt.value):
            self.facts["trace"].append(
                {
                    "check": "span-discarded",
                    "line": stmt.lineno,
                    "detail": "span() result discarded",
                }
            )

    def _track_span_assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name) and self._is_span_call(value):
            self._span_vars.setdefault(target.id, value.lineno)

    def _note_with_expr(self, expr: ast.AST) -> None:
        if isinstance(expr, ast.Name):
            self._span_entered.add(expr.id)

    def _finish_spans(self) -> None:
        # ``name.__enter__()`` counts as entering an assigned span.
        for call in ast.walk(self.node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "__enter__"
                and isinstance(call.func.value, ast.Name)
            ):
                self._span_entered.add(call.func.value.id)
        for name, line in self._span_vars.items():
            if name not in self._span_entered:
                self.facts["trace"].append(
                    {
                        "check": "span-unentered",
                        "line": line,
                        "detail": f"span assigned to {name!r} is never "
                        "entered (no `with` and no __enter__)",
                    }
                )

    # -- entry point --------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        for dec in self.node.decorator_list:
            self._eval(dec)
        for default in list(self.node.args.defaults) + [
            d for d in self.node.args.kw_defaults if d is not None
        ]:
            taint = self._eval(default)
            if taint["d"] or taint["c"]:
                self.facts["tainted_defaults"].append(
                    {
                        "line": default.lineno,
                        "d": taint["d"],
                        "c": taint["c"],
                    }
                )
        self._walk_body(self.node.body)
        self._finish_spans()
        self.facts["self_refs"] = sorted(self._self_refs)
        self.facts["self_calls"] = sorted(self._self_calls)
        if self.cls_name is not None and self.node.name in CAPTURE_METHODS:
            self.facts["strings"] = sorted(self._strings)
        else:
            self.facts["strings"] = []
        return self.facts


class _ModuleExtractor:
    """Walks one module and produces its summary dict."""

    def __init__(self, source: str, path: str, package_path: str) -> None:
        self.source = source
        self.path = path
        self.package_path = package_path
        self.module_name = module_name_for(package_path)
        self.lines = source.splitlines()
        self.imports: Dict[str, str] = {}
        self.toplevel: Set[str] = set()

    def is_transient_line(self, line: int) -> bool:
        if 1 <= line <= len(self.lines):
            return "ckpt: transient" in self.lines[line - 1]
        return False

    def resolve_name(self, name: str) -> Optional[str]:
        """Local name -> canonical dotted path, if resolvable."""
        if name in self.imports:
            return self.imports[name]
        if name in self.toplevel:
            return f"{self.module_name}.{name}"
        return None

    def _add_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                self.imports[bound] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg_parts = self.module_name.split(".")
                if not self.package_path.endswith("__init__.py"):
                    pkg_parts = pkg_parts[:-1]
                pkg_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(pkg_parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                self.imports[bound] = (
                    f"{base}.{alias.name}" if base else alias.name
                )

    def _collect_toplevel(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._add_import(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.toplevel.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.toplevel.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.toplevel.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    self.toplevel.add(stmt.target.id)

    def _class_facts(self, node: ast.ClassDef) -> Dict[str, Any]:
        bases = []
        for base in node.bases:
            parts = dotted_parts(base)
            if not parts:
                continue
            canonical = self.resolve_name(parts[0])
            if canonical is not None:
                bases.append(".".join([canonical, *parts[1:]]))
            else:
                bases.append(".".join(parts))
        is_dataclass = any(
            (dotted_parts(d if not isinstance(d, ast.Call) else d.func) or [""])[
                -1
            ]
            == "dataclass"
            for d in node.decorator_list
        )
        fields = []
        methods: Dict[str, Dict] = {}
        attr_assigns: List[Dict] = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if is_dataclass:
                    fields.append(
                        {
                            "name": stmt.target.id,
                            "line": stmt.lineno,
                            "transient": self.is_transient_line(stmt.lineno),
                        }
                    )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                facts = _FunctionExtractor(stmt, self, node.name).run()
                methods[stmt.name] = facts
                attr_assigns.extend(facts.pop("attr_assigns"))
        return {
            "name": node.name,
            "line": node.lineno,
            "bases": bases,
            "dataclass": is_dataclass,
            "fields": fields,
            "methods": methods,
            "attrs": attr_assigns,
        }

    def extract(self, tree: ast.Module) -> Dict[str, Any]:
        self._collect_toplevel(tree)
        functions: Dict[str, Dict] = {}
        classes: Dict[str, Dict] = {}
        module_assigns: List[Dict] = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                facts = _FunctionExtractor(stmt, self, None).run()
                facts.pop("attr_assigns")
                functions[stmt.name] = facts
            elif isinstance(stmt, ast.ClassDef):
                classes[stmt.name] = self._class_facts(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                if value is None:
                    continue
                scratch = _FunctionExtractor(
                    ast.parse("def _m(): pass").body[0], self, None
                )
                taint = scratch._eval(value)
                if taint["d"] or taint["c"]:
                    for target in targets:
                        if isinstance(target, ast.Name):
                            module_assigns.append(
                                {
                                    "name": target.id,
                                    "line": stmt.lineno,
                                    "d": taint["d"],
                                    "c": taint["c"],
                                }
                            )
        # Whole-module reference sets, used when this module is a
        # designated capture module (default: ckpt/state.py).
        attr_names: Set[str] = set()
        strings: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attr_names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                strings.add(node.value)
        per_line, per_file = parse_suppressions(self.lines)
        return {
            "module": self.module_name,
            "path": self.path,
            "module_assigns": module_assigns,
            "functions": functions,
            "classes": classes,
            "all_attr_names": sorted(attr_names),
            "all_strings": sorted(strings),
            "suppress_lines": {
                str(line): (sorted(rules) if rules is not None else None)
                for line, rules in per_line.items()
            },
            "suppress_file": sorted(per_file),
        }


def extract_summary(
    source: str, path: Any, tree: Optional[ast.Module] = None
) -> Optional[ModuleSummary]:
    """Extract a :class:`ModuleSummary`; ``None`` on a syntax error."""
    path = Path(path)
    package_path = package_relative_path(path)
    if tree is None:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return None
    extractor = _ModuleExtractor(source, str(path), package_path)
    return ModuleSummary(
        package_path=package_path, data=extractor.extract(tree)
    )


class ProjectModel:
    """Phase-2 view over all module summaries.

    Functions and methods are indexed by *canonical id* — the dotted
    path ``repro.<pkg>.<name>`` or ``repro.<pkg>.<Class>.<name>`` — so
    taint refs canonicalised at extraction time resolve in O(1).
    """

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {
            s.package_path: s for s in summaries
        }
        #: canonical function id -> (package_path, cls_name|None, facts)
        self.functions: Dict[str, Tuple[str, Optional[str], Dict]] = {}
        #: canonical class id -> (package_path, facts)
        self.classes: Dict[str, Tuple[str, Dict]] = {}
        for summary in summaries:
            mod = summary.module
            for fname, facts in summary.functions.items():
                self.functions[f"{mod}.{fname}"] = (
                    summary.package_path,
                    None,
                    facts,
                )
            for cname, cfacts in summary.classes.items():
                cid = f"{mod}.{cname}"
                self.classes[cid] = (summary.package_path, cfacts)
                for mname, mfacts in cfacts["methods"].items():
                    self.functions[f"{cid}.{mname}"] = (
                        summary.package_path,
                        cname,
                        mfacts,
                    )

    # -- resolution ---------------------------------------------------------

    def resolve_function(self, canonical: str) -> Optional[str]:
        """Canonical ref -> function id (classes resolve to __init__)."""
        if canonical in self.functions:
            return canonical
        if canonical in self.classes:
            init = f"{canonical}.__init__"
            return init if init in self.functions else None
        return None

    def class_ancestors(self, cid: str) -> List[str]:
        """``cid`` plus every project-resolvable base, transitively."""
        out: List[str] = []
        queue = [cid]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            out.append(current)
            queue.extend(self.classes[current][1]["bases"])
        return out

    def resolve_method(self, cid: str, name: str) -> Optional[str]:
        """Resolve ``self.<name>()`` against the class hierarchy."""
        for ancestor in self.class_ancestors(cid):
            fid = f"{ancestor}.{name}"
            if fid in self.functions:
                return fid
        return None


@dataclass
class AnalysisResult:
    """Outcome of one lint pass; ``stats`` holds the file count."""

    violations: List[Violation]
    stats: Dict[str, Any] = field(default_factory=dict)


def _flow_suppressed(
    violation: Violation, summary: ModuleSummary
) -> bool:
    if violation.rule in summary.data["suppress_file"]:
        return True
    if "all" in summary.data["suppress_file"]:
        return True
    rules = summary.data["suppress_lines"].get(str(violation.line), ())
    if rules is None:
        return True
    return violation.rule in rules or "all" in rules


class ProjectAnalyzer:
    """Two-phase driver: per-file rules and summaries, then flow rules.

    ``rules`` overrides the per-file rule set (default
    :data:`~repro.lint.rules.DEFAULT_RULES`); the flow rules always run.
    ``file_sources`` lets tests inject edited sources without touching
    disk (keyed by absolute path string).
    """

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        rules: Optional[Sequence[type]] = None,
        file_sources: Optional[Dict[str, str]] = None,
    ) -> None:
        self.linter = Linter(config=config, rules=rules)
        self.config = self.linter.config
        self.file_sources = dict(file_sources or {})

    # -- phase 1 ------------------------------------------------------------

    def _analyze_file(
        self, path: Path
    ) -> Tuple[List[Violation], Optional[ModuleSummary]]:
        source = self.file_sources.get(str(path))
        if source is None:
            source = path.read_text(encoding="utf-8")
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
            ], None
        ctx = FileContext.from_source(path, source)
        return (
            self.linter.lint_tree(ctx, tree),
            extract_summary(source, path, tree=tree),
        )

    # -- phase 2 ------------------------------------------------------------

    def _run_flow_rules(
        self, model: ProjectModel
    ) -> List[Violation]:
        from repro.lint.dataflow import compute_tainted_functions
        from repro.lint.flow_rules import PROJECT_RULES, FlowContext

        ctx = FlowContext(
            project=model, rng_tainted=compute_tainted_functions(model)
        )
        findings: List[Violation] = []
        for rule_cls in PROJECT_RULES:
            settings = self.config.rule_settings(
                rule_cls.name,
                default_severity=rule_cls.default_severity,
                default_paths=rule_cls.default_paths,
            )
            if not settings.enabled:
                continue
            ctx.in_scope = {
                pp: self.linter._applies(settings, pp)
                for pp in model.modules
            }
            findings.extend(rule_cls(settings).check(ctx))
        # Apply suppression comments using the line maps captured in the
        # summaries (phase 2 never re-reads sources).
        kept: List[Violation] = []
        by_path = {
            s.data["path"]: s for s in model.modules.values()
        }
        for violation in findings:
            summary = by_path.get(violation.path)
            if summary is not None and _flow_suppressed(violation, summary):
                continue
            kept.append(violation)
        return kept

    # -- driver -------------------------------------------------------------

    def analyze(self, paths: Sequence[str]) -> AnalysisResult:
        files = sorted(self.linter.iter_files(paths))
        violations: List[Violation] = []
        summaries: List[ModuleSummary] = []
        for path in files:
            found, summary = self._analyze_file(path)
            violations.extend(found)
            if summary is not None:
                summaries.append(summary)
        violations.extend(self._run_flow_rules(ProjectModel(summaries)))
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return AnalysisResult(
            violations=violations, stats={"files": len(files)}
        )

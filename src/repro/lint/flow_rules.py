"""Phase-2 rules: pure functions over the :class:`ProjectModel`.

Unlike the per-file :class:`~repro.lint.engine.LintRule` visitors, a
:class:`ProjectRule` never touches an AST — it reads the summaries and
the RNG-taint fixpoint, and emits :class:`Violation` objects.  The
analyzer applies path scoping and suppression comments afterwards,
exactly as the per-file engine does.

There is no concurrency rule: the tree has no worker pool (PR 14
deleted the thread and process backends), and
``tests/test_lint_clean.py::test_no_worker_pool_imports`` fails the day
one is imported — the rule that checks worker-reachable writes must
come back with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.config import RuleSettings
from repro.lint.engine import Violation
from repro.lint.dataflow import is_rng_tainted, taint_reason
from repro.lint.project import CAPTURE_METHODS, ModuleSummary, ProjectModel

__all__ = [
    "FlowContext",
    "PROJECT_RULES",
    "ProjectRule",
    "CkptStateCoverageRule",
    "RngTaintRule",
    "TraceDisciplineRule",
]


@dataclass
class FlowContext:
    """Everything phase 2 computed once, shared by every rule."""

    project: ProjectModel
    rng_tainted: Set[str]
    #: package_path -> whether the rule applies there (set per rule by
    #: the analyzer before ``check`` runs).
    in_scope: Dict[str, bool] = field(default_factory=dict)


class ProjectRule:
    """Base class for whole-program rules."""

    name: str = "project-rule"
    description: str = ""
    default_severity: str = "error"
    #: Package-relative prefixes the rule applies to; empty = everywhere.
    default_paths: Tuple[str, ...] = ()

    def __init__(self, settings: RuleSettings) -> None:
        self.settings = settings

    def violation(
        self, summary: ModuleSummary, line: int, message: str
    ) -> Violation:
        return Violation(
            rule=self.name,
            path=summary.data["path"],
            line=line,
            col=1,
            message=message,
            severity=self.settings.severity,
        )

    def check(self, ctx: FlowContext) -> List[Violation]:
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------

    def scoped_modules(self, ctx: FlowContext) -> List[ModuleSummary]:
        return [
            summary
            for pp, summary in sorted(ctx.project.modules.items())
            if ctx.in_scope.get(pp, True)
        ]

    def path_option(self, key: str, default: Sequence[str]) -> List[str]:
        value = self.settings.option(key, list(default))
        if isinstance(value, str):
            return [value]
        return list(value)


class RngTaintRule(ProjectRule):
    """RNG streams must not escape their owning scope.

    Flags (1) module-level names bound to RNG-tainted values — module
    state seeded at import time breaks per-client stream isolation;
    (2) RNG-tainted default arguments — defaults evaluate once, so every
    call shares one stream.
    """

    name = "rng-taint"
    description = "RNG streams must not escape into shared scope"
    default_severity = "error"

    def check(self, ctx: FlowContext) -> List[Violation]:
        out: List[Violation] = []
        for summary in self.scoped_modules(ctx):
            for assign in summary.data["module_assigns"]:
                taint = {"d": assign["d"], "c": assign["c"], "wc": False}
                if is_rng_tainted(taint, ctx.project, ctx.rng_tainted):
                    reason = taint_reason(
                        taint, ctx.project, ctx.rng_tainted
                    )
                    out.append(
                        self.violation(
                            summary,
                            assign["line"],
                            f"module-level name {assign['name']!r} is "
                            f"bound to an RNG stream ({reason}); RNG "
                            "state must live on clients or be threaded "
                            "explicitly",
                        )
                    )
            for fid_name, facts in self._all_functions(summary):
                for default in facts["tainted_defaults"]:
                    taint = {
                        "d": default["d"],
                        "c": default["c"],
                        "wc": False,
                    }
                    if is_rng_tainted(taint, ctx.project, ctx.rng_tainted):
                        out.append(
                            self.violation(
                                summary,
                                default["line"],
                                f"default argument of {fid_name!r} is "
                                "built from an RNG stream; defaults "
                                "evaluate once and would share the "
                                "stream across calls",
                            )
                        )
        return out

    @staticmethod
    def _all_functions(summary: ModuleSummary):
        for fname, facts in summary.functions.items():
            yield f"{summary.module}.{fname}", facts
        for cname, cfacts in summary.classes.items():
            for mname, mfacts in cfacts["methods"].items():
                yield f"{summary.module}.{cname}.{mname}", mfacts


class CkptStateCoverageRule(ProjectRule):
    """Every persistent attribute must be captured or marked transient.

    A class is *stateful* when it (or a project-resolvable ancestor)
    defines a capture method (``state_dict`` & co.), or when it is
    listed in the ``classes`` option.  For each ``self.<attr> =`` in a
    stateful class, the attribute must be (a) referenced somewhere in
    the transitive self-call closure of the hierarchy's capture
    methods, (b) named (as attribute or string) in a configured capture
    module (default ``ckpt/state.py``), or (c) annotated
    ``# ckpt: transient`` on an assignment line.  Anything else is
    state that would silently not survive a checkpoint resume.
    """

    name = "ckpt-state-coverage"
    description = "stateful attributes must be checkpoint-captured"
    default_severity = "error"
    default_paths = ("fl/", "core/", "nn/optimizers.py", "obs/", "baselines/")

    def check(self, ctx: FlowContext) -> List[Violation]:
        capture_modules = self.path_option("capture_modules", ["ckpt/state.py"])
        forced = set(self.path_option("classes", ["FederatedTrainer", "FLServer"]))
        module_refs: Set[str] = set()
        for pp in capture_modules:
            summary = ctx.project.modules.get(pp)
            if summary is not None:
                module_refs.update(summary.data["all_attr_names"])
                module_refs.update(summary.data["all_strings"])
        out: List[Violation] = []
        for summary in self.scoped_modules(ctx):
            for cname, cfacts in sorted(summary.classes.items()):
                cid = f"{summary.module}.{cname}"
                if not self._stateful(ctx.project, cid, cname, forced):
                    continue
                captured = self._capture_closure(ctx.project, cid)
                captured |= module_refs
                out.extend(
                    self._check_attrs(summary, cname, cfacts, captured)
                )
        return out

    @staticmethod
    def _stateful(
        project: ProjectModel, cid: str, cname: str, forced: Set[str]
    ) -> bool:
        if cname in forced:
            return True
        for ancestor in project.class_ancestors(cid):
            methods = project.classes[ancestor][1]["methods"]
            if any(m in CAPTURE_METHODS for m in methods):
                return True
        return False

    @staticmethod
    def _capture_closure(project: ProjectModel, cid: str) -> Set[str]:
        """Attr names referenced by capture methods, expanded through
        ``self.<helper>()`` calls anywhere in the class hierarchy."""
        refs: Set[str] = set()
        seen_fids: Set[str] = set()
        queue: List[str] = []
        for ancestor in project.class_ancestors(cid):
            for mname in project.classes[ancestor][1]["methods"]:
                if mname in CAPTURE_METHODS:
                    fid = f"{ancestor}.{mname}"
                    if fid in project.functions:
                        queue.append(fid)
        while queue:
            fid = queue.pop()
            if fid in seen_fids:
                continue
            seen_fids.add(fid)
            facts = project.functions[fid][2]
            refs.update(facts["self_refs"])
            refs.update(facts["strings"])
            for helper in facts["self_calls"]:
                # ``self.clock()`` where ``clock`` is a stored callable
                # attribute (no such method) still references the attr.
                refs.add(helper)
                resolved = project.resolve_method(cid, helper)
                if resolved is not None:
                    queue.append(resolved)
        return refs

    def _check_attrs(
        self,
        summary: ModuleSummary,
        cname: str,
        cfacts: Dict,
        captured: Set[str],
    ) -> List[Violation]:
        assigns: Dict[str, List[Dict]] = {}
        for attr in cfacts["attrs"]:
            assigns.setdefault(attr["name"], []).append(attr)
        for fld in cfacts["fields"]:
            assigns.setdefault(fld["name"], []).append(fld)
        out: List[Violation] = []
        for name, sites in sorted(assigns.items()):
            if any(site["transient"] for site in sites):
                continue
            if name in captured:
                continue
            line = min(site["line"] for site in sites)
            out.append(
                self.violation(
                    summary,
                    line,
                    f"attribute 'self.{name}' on stateful class "
                    f"{cname!r} is neither captured for checkpointing "
                    "nor annotated '# ckpt: transient'; new state must "
                    "not silently break bitwise resume",
                )
            )
        return out


class TraceDisciplineRule(ProjectRule):
    """Spans must be entered; wall-clock stays out of trace attrs.

    Surfaces the extraction-time findings: a ``.span(...)`` whose
    result is discarded or assigned but never entered (no ``with``, no
    ``__enter__``), and wall-clock-derived values flowing into span /
    event attributes.  Wall-clock readings belong only in the ``rt``
    channel (``rt=`` keyword, ``set_rt``), which the obs determinism
    contract strips from cross-backend comparisons.  ``allow_in``
    exempts the tracer implementation itself.
    """

    name = "trace-discipline"
    description = "spans must pair open/close; no wallclock in attrs"
    default_severity = "error"

    _MESSAGES = {
        "span-discarded": (
            "span() result is discarded; enter it with 'with' or it "
            "will never close"
        ),
        "span-unentered": None,  # detail carries the message
        "wallclock": None,
    }

    def check(self, ctx: FlowContext) -> List[Violation]:
        allow_in = set(self.path_option("allow_in", ["obs/tracer.py"]))
        out: List[Violation] = []
        for summary in self.scoped_modules(ctx):
            if summary.package_path in allow_in:
                continue
            for _, facts in RngTaintRule._all_functions(summary):
                for finding in facts["trace"]:
                    check = finding["check"]
                    if check == "wallclock":
                        message = (
                            "wall-clock-derived value flows into trace "
                            f"attrs ({finding['detail']}); only the "
                            "'rt' channel may carry wall-clock readings"
                        )
                    elif check == "span-unentered":
                        message = finding["detail"]
                    else:
                        message = self._MESSAGES.get(
                            check, finding["detail"]
                        )
                    out.append(
                        self.violation(summary, finding["line"], message)
                    )
        return out


PROJECT_RULES: Tuple[type, ...] = (
    RngTaintRule,
    CkptStateCoverageRule,
    TraceDisciplineRule,
)

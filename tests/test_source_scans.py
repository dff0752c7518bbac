"""Source scans for the invariants no runtime test can see.

Each scan reads ``src/repro`` as ``{package path: source}`` and returns
its findings as ``"path:line: what"`` strings.  Every scan has a seeded
twin here: one source edited in memory, never on disk, and the finding
it must produce.  ``test_lint_clean.py`` runs them over the tree;
``test_lint_rules.py`` and ``test_lint_flow.py`` hold their edge cases.
The determinism contracts (explicit generators, no wall-clock seeds, no
shared streams, spans free of wall-clock attrs) are held by the runtime
equivalence tests instead: seeding any of them fails tier-1 tests
elsewhere.
"""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


@functools.lru_cache(maxsize=None)
def _source_tree():
    return {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}


def _tree():
    return dict(_source_tree())


@functools.lru_cache(maxsize=None)
def _parse(source):
    return ast.parse(source)


def _nodes(tree, kinds):
    for path, source in sorted(tree.items()):
        for node in ast.walk(_parse(source)):
            if isinstance(node, kinds):
                yield path, node


def _dotted(node):
    """``np.random.normal`` for a Name/Attribute chain, else ``""``."""
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return f"{head}.{node.attr}" if head else ""
    return node.id if isinstance(node, ast.Name) else ""


def _is_self_attr(node):
    return isinstance(node, ast.Attribute) and _dotted(node.value) == "self"


# -- checkpoint coverage ------------------------------------------------------

#: Where run state lives: classes here must checkpoint what they hold.
CKPT_SCOPE = ("fl/", "core/", "nn/optimizers.py", "obs/", "baselines/")
#: A class defining or inheriting one of these is stateful.  What these
#: methods touch, and every self-method or property they reach, counts
#: as captured.
CAPTURE_METHODS = {
    "state_dict", "load_state_dict", "export_state", "restore_state",
    "restore", "rng_state", "set_rng_state",
}
#: Stateful without a capture method: ``ckpt/state.py`` serialises them
#: field by field, so every attribute or string it names is captured.
CAPTURED_BY_CKPT_STATE = {"FederatedTrainer", "FLServer"}


def _assigned_attrs(cls):
    """``(name, line)`` of every ``self.<name> =`` and dataclass field."""
    if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield node.target.id, node.lineno
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                for elt in getattr(target, "elts", [target]):
                    if _is_self_attr(elt):
                        yield elt.attr, node.lineno


def uncaptured_state(tree):
    """Attributes of stateful classes that a resume would silently lose:
    neither captured nor marked ``# ckpt: transient — <why>``."""
    classes = {node.name: (path, node) for path, node in _nodes(tree, ast.ClassDef)}
    methods = {
        name: {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}
        for name, (_, cls) in classes.items()
    }
    in_ckpt_state = {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(_parse(tree["ckpt/state.py"]))
        if isinstance(node, (ast.Attribute, ast.Constant))
    }
    found = []
    for name, (path, cls) in sorted(classes.items()):
        lineage, queue = [], [name]
        while queue:
            current = queue.pop(0)
            if current in classes and current not in lineage:
                lineage.append(current)
                queue.extend(_dotted(b).rpartition(".")[2] for b in classes[current][1].bases)
        todo = [m for c in lineage for k, m in methods[c].items() if k in CAPTURE_METHODS]
        if not path.startswith(CKPT_SCOPE) or not (todo or name in CAPTURED_BY_CKPT_STATE):
            continue
        captured, seen = set(in_ckpt_state), set()
        while todo:
            method = todo.pop()
            if method not in seen:
                seen.add(method)
                for node in ast.walk(method):
                    if isinstance(node, ast.Constant) and isinstance(node.value, str):
                        captured.add(node.value)
                    elif _is_self_attr(node):
                        captured.add(node.attr)
                        todo.extend(methods[c][node.attr] for c in lineage if node.attr in methods[c])
        lines = tree[path].splitlines()
        sites = {}
        for attr, line in _assigned_attrs(cls):
            sites.setdefault(attr, []).append(line)
        found += [
            f"{path}:{min(at)}: {name}.{attr}"
            for attr, at in sorted(sites.items())
            if attr not in captured and not any("ckpt: transient" in lines[i - 1] for i in at)
        ]
    return found


# -- library code owns neither stdout nor crash-unsafe writes -----------------

#: Files that own their stdout and their output files.  Everything else
#: under src/repro is library code, which reports through repro.obs and
#: writes through repro.utils.atomic_io.
OWN_THEIR_OUTPUT = {
    "experiments/": "experiment scripts print tables and write reports",
    "__main__.py": "the experiment CLI",
    "obs/__main__.py": "the trace CLI",
    "ckpt/__main__.py": "the checkpoint CLI",
}
#: The one library module that opens files for writing: temp file +
#: fsync + rename, so a crash never leaves a torn artifact.
ATOMIC_WRITER = "utils/atomic_io.py"


def _library_calls(tree):
    for path, node in _nodes(tree, ast.Call):
        if not any(path == k or (k.endswith("/") and path.startswith(k)) for k in OWN_THEIR_OUTPUT):
            yield path, node, _dotted(node.func)


def library_prints(tree):
    return [f"{p}:{n.lineno}: print()" for p, n, f in _library_calls(tree) if f == "print"]


def _open_mode(call):
    """The literal mode of an ``open`` call; ``""`` when not a literal."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    literal = modes and isinstance(modes[-1], ast.Constant)
    return str(modes[-1].value) if literal else ""


def bare_artifact_writes(tree):
    return [
        f"{path}:{node.lineno}: {ast.unparse(node.func)}()"
        for path, node, func in _library_calls(tree)
        if path != ATOMIC_WRITER
        and (
            getattr(node.func, "attr", "") in ("write_text", "write_bytes")
            or func == "json.dump"
            or (func == "open" and set(_open_mode(node)) & set("wx"))
        )
    ]


# -- dtypes in the hot paths --------------------------------------------------

DTYPE_SCOPE = ("core/", "fl/", "nn/")
#: numpy constructor -> how many positional arguments include the dtype.
DTYPE_ARITY = {"np.zeros": 2, "np.ones": 2, "np.empty": 2, "np.full": 3}


def implicit_dtypes(tree):
    """``np.zeros(n)`` commits to float64 silently.  The store's int64 /
    uint64 / bool columns size every ``KiB store`` figure in
    ``benchmarks/reports/scale.txt``, and no runtime test reads them."""
    return [
        f"{path}:{node.lineno}: {_dotted(node.func)}()"
        for path, node in _nodes(tree, ast.Call)
        if path.startswith(DTYPE_SCOPE)
        and len(node.args) < DTYPE_ARITY.get(_dotted(node.func), 0)
        and not any(k.arg in ("dtype", None) for k in node.keywords)
    ]


# -- imports ------------------------------------------------------------------


def _imported_roots(tree):
    for path, node in _nodes(tree, (ast.Import, ast.ImportFrom)):
        relative = getattr(node, "level", 0)
        names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
        for name in [] if relative else names:
            yield f"{path}:{node.lineno}", name.split(".")[0]


WORKER_POOLS = {"threading", "multiprocessing", "concurrent"}


def worker_pool_imports(tree):
    return [f"{at}: {root}" for at, root in _imported_roots(tree) if root in WORKER_POOLS]


def test_no_worker_pool_imports():
    offenders = worker_pool_imports(_tree())
    assert offenders == [], (
        "src/repro imports a worker-pool module:\n  "
        + "\n  ".join(offenders)
        + "\nNothing checks state shared across workers: a worker pool must "
        "arrive with a concurrency check for the writes its workers reach."
    )


def scipy_imports(tree):
    return [f"{at}: {root}" for at, root in _imported_roots(tree) if root == "scipy"]


def test_src_imports_no_scipy():
    offenders = scipy_imports(_tree())
    assert offenders == [], (
        "src/repro imports scipy:\n  "
        + "\n  ".join(offenders)
        + "\nThe data generators render with numpy and MOCHA takes its "
        "matrix root through numpy's eigh; the scipy originals live in "
        "tests/reference_kernels.py."
    )


def undeclared_imports(tree, dependencies):
    declared = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_") for d in dependencies}
    return sorted({
        f"{at}: {root}"
        for at, root in _imported_roots(tree)
        if root not in sys.stdlib_module_names and root != "repro" and root.lower() not in declared
    })


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert undeclared_imports(_tree(), project["dependencies"]) == []


def test_dependency_scan_flags_an_undeclared_scipy():
    tree = _tree()
    assert undeclared_imports(tree, ["numpy>=1.21"]) == []
    tree["mtl/mocha.py"] = "from scipy import linalg\n" + tree["mtl/mocha.py"]
    assert undeclared_imports(tree, ["numpy>=1.21"]) == ["mtl/mocha.py:1: scipy"]


# -- the async engine drives the trainer through two halves only --------------

#: The private ``FederatedTrainer`` names ``fl/events/`` may call.
TRAINER_SEAM = {"_begin_round", "_finish_round"}


def private_trainer_reach(tree):
    """``trainer._name`` under ``fl/events/`` for any name off the seam."""
    return [
        f"{path}:{node.lineno}: {_dotted(node)}"
        for path, node in _nodes(tree, ast.Attribute)
        if path.startswith("fl/events/")
        and node.attr.startswith("_")
        and node.attr not in TRAINER_SEAM
        and _dotted(node.value).rpartition(".")[2] == "trainer"
    ]


def test_events_reach_only_the_trainer_seam():
    offenders = private_trainer_reach(_tree())
    assert offenders == [], (
        "fl/events touches private trainer state:\n  "
        + "\n  ".join(offenders)
        + "\nThe engine may call only _begin_round and _finish_round; the run "
        "loop, its span and the checkpoints stay in FederatedTrainer.run. "
        "ROADMAP 1(c) + 5(a) make those two halves public."
    )


# -- one nn body per layer -----------------------------------------------------

#: The methods of a serial body, which a layer or loss with a stacked
#: twin of its own must not define: the twin is its body, run with one
#: row by ``TwinView`` / ``Loss``.
BODY_METHODS = {"forward", "backward", "head_backward"}
#: Calls in ``batched()`` that mean the class is its twin's body
#: (``BatchedStateless(...)``: ReLU, MaxPool2D) or a chain of its
#: children's twins (``layer.batched(...)``: Sequential).
SHARED_BODY_CALLS = {"BatchedStateless", "batched"}


def second_bodies(tree):
    """``Class.method`` under ``nn/`` for a serial body defined beside
    a stacked twin that ``batched()`` returns."""
    found = []
    for path, cls in _nodes(tree, ast.ClassDef):
        methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}
        twin = methods.get("batched")
        if not path.startswith("nn/") or twin is None:
            continue
        nodes = list(ast.walk(twin))
        returns = any(isinstance(n, ast.Return) and n.value is not None for n in nodes)
        calls = {_dotted(n.func).rpartition(".")[2] for n in nodes if isinstance(n, ast.Call)}
        if returns and not calls & SHARED_BODY_CALLS:
            found += [
                f"{path}:{methods[name].lineno}: {cls.name}.{name}"
                for name in sorted(BODY_METHODS & methods.keys())
            ]
    return found


def test_a_layer_with_a_twin_has_no_second_body():
    offenders = second_bodies(_tree())
    assert offenders == [], (
        "an nn class with its own stacked twin defines a serial body:\n  "
        + "\n  ".join(offenders)
        + "\nIts twin is its body: subclass TwinView (layers) or Loss and "
        "define only the constructor, parameters() and batched()."
    )


# -- one fold in the conv layer ------------------------------------------------

CONV = "nn/layers/conv.py"


def second_folds(tree):
    """A window add inside a loop in ``nn/layers/conv.py``, or other
    than one ``np.bincount`` call site: the input gradient is folded
    by one ordered bincount, and a second fold would be a second
    accumulation chain for the reference pins to miss."""
    nodes = list(ast.walk(_parse(tree[CONV])))
    sites = [
        n.lineno for n in nodes
        if isinstance(n, ast.Call) and _dotted(n.func) == "np.bincount"
    ]
    found = [] if len(sites) == 1 else [
        f"{CONV}:{max(sites, default=1)}: {len(sites)} np.bincount call sites"
    ]
    adds = {
        (n.lineno, ast.unparse(n.target))
        for loop in nodes if isinstance(loop, (ast.For, ast.While))
        for n in ast.walk(loop)
        if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add)
    }
    return found + [f"{CONV}:{line}: {target} += in a loop" for line, target in sorted(adds)]


def test_conv_has_one_fold():
    offenders = second_folds(_tree())
    assert offenders == [], (
        "nn/layers/conv.py folds window gradients outside its one bincount:\n  "
        + "\n  ".join(offenders)
        + "\nThe input gradient is _fold_clients' ordered np.bincount "
        "through the cached window index (DESIGN 6b); route every fold, "
        "col2im included, through it."
    )


# -- every scan catches its seed -----------------------------------------------

#: Run over the whole tree by tests/test_lint_clean.py.
SCANS = [uncaptured_state, library_prints, bare_artifact_writes, implicit_dtypes]
ROUND_LOOP = "        results = self.executor.run_round(plan, participants)\n"
HISTORY = "        self.history = RunHistory(policy_name=policy.name)\n"
DISPATCH = "        state = trainer._begin_round(t, None)\n"
DENSE_TWIN = '    def batched(self, binder: BatchedParamBinder) -> "BatchedDense":\n'
DENSE_BODY = "    def forward(self, x, training=False):\n        return x @ self.weight.data\n\n"
COL2IM = "def col2im(\n"
WINDOW_LOOP = "def _fold_loop(acc, src):\n    for i in range(3):\n        acc[i:] += src[i]\n\n\n"
#: (scan, file, old text, seeded text, what the one finding names)
SEEDS = [
    (uncaptured_state, "fl/trainer.py", HISTORY, HISTORY + "        self._foo = 1\n",
     "FederatedTrainer._foo"),
    (library_prints, "fl/trainer.py", ROUND_LOOP, '        print(f"round {t}")\n' + ROUND_LOOP,
     "print()"),
    (bare_artifact_writes, "fl/history.py", "atomic_write_text(path, text)",
     "Path(path).write_text(text)", "Path(path).write_text()"),
    (implicit_dtypes, "fl/store.py", "self.live = np.zeros(rows, dtype=bool)",
     "self.live = np.zeros(rows)", "np.zeros()"),
    (worker_pool_imports, "fl/executor.py", "from time import monotonic\n",
     "import threading\nfrom time import monotonic\n", "threading"),
    (scipy_imports, "data/synthetic_digits.py", "import numpy as np\n",
     "import numpy as np\nfrom scipy import ndimage\n", "scipy"),
    (private_trainer_reach, "fl/events/engine.py", DISPATCH,
     "        trainer._resume_span = None\n" + DISPATCH, "trainer._resume_span"),
    (second_bodies, "nn/layers/dense.py", DENSE_TWIN, DENSE_BODY + DENSE_TWIN,
     "Dense.forward"),
    (second_folds, CONV, COL2IM, WINDOW_LOOP + COL2IM, "acc[i:] += in a loop"),
]


@pytest.mark.parametrize("scan, path, old, new, what", SEEDS, ids=[s[0].__name__ for s in SEEDS])
def test_scan_flags_its_seed(scan, path, old, new, what):
    tree = _tree()
    assert tree[path].count(old) == 1, (path, old)
    tree[path] = tree[path].replace(old, new)
    [finding] = scan(tree)
    assert re.fullmatch(rf"{re.escape(path)}:\d+: {re.escape(what)}", finding)

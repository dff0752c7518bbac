"""Flow-rule tests: each rule family must fire on seeded violations.

Synthetic cases run on in-memory trees; the mutation test injects a
seeded defect into the *real* ``src/repro`` sources (via the
analyzer's ``file_sources`` override, no disk writes) and asserts the
whole-program pass catches exactly it — proving the tier-1 gate would
bite on a real regression.
"""

from pathlib import Path

from repro.lint.project import ProjectAnalyzer
from repro.lint import load_config

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def _analyze(tmp_path, sources, config=None):
    for package_path, source in sources.items():
        path = tmp_path / "repro" / package_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    analyzer = ProjectAnalyzer(config=config, rules=())
    return ProjectAnalyzer(config=config, rules=()).analyze(
        [str(tmp_path / "repro")]
    ), analyzer


def _rules(result):
    return sorted({v.rule for v in result.violations})


# -- rng-taint ---------------------------------------------------------------


def test_rng_taint_module_level_assign(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "GEN = np.random.default_rng(0)\n"
            )
        },
    )
    assert _rules(result) == ["rng-taint"]
    assert "module-level name 'GEN'" in result.violations[0].message


def test_rng_taint_propagates_across_modules(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "util.py": (
                "import numpy as np\n"
                "def make_rng(seed):\n"
                "    gen = np.random.default_rng(seed)\n"
                "    return gen\n"
            ),
            "app.py": (
                "from repro.util import make_rng\n"
                "SHARED = make_rng(7)\n"
            ),
        },
    )
    assert _rules(result) == ["rng-taint"]
    assert result.violations[0].path.endswith("app.py")


def test_rng_taint_default_argument(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "def sample(rng=np.random.default_rng(0)):\n"
                "    return rng.normal()\n"
            )
        },
    )
    assert _rules(result) == ["rng-taint"]
    assert "default argument" in result.violations[0].message


def test_rng_taint_int_laundering_is_sanctioned(tmp_path):
    # int(...) of a spawned seed is the sanctioned hand-off: taint does
    # not propagate through arbitrary calls.
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "def derive_seed(gen):\n"
                "    return int(gen.integers(2**31))\n"
                "SEED_KIND = 1\n"
            )
        },
    )
    assert _rules(result) == []


# -- ckpt-state-coverage -----------------------------------------------------


def test_ckpt_coverage_uncaptured_attr(tmp_path):
    config = load_config(REPO_ROOT)
    result, _ = _analyze(
        tmp_path,
        {
            "fl/thing.py": (
                "class Thing:\n"
                "    def __init__(self):\n"
                "        self.kept = 1\n"
                "        self.lost = 2\n"
                "        self.skipped = 3  # ckpt: transient - test seed\n"
                "\n"
                "    def state_dict(self):\n"
                "        return {'kept': self.kept}\n"
            )
        },
        config=config,
    )
    assert _rules(result) == ["ckpt-state-coverage"]
    assert "'self.lost'" in result.violations[0].message


def test_ckpt_coverage_capture_closure_through_helpers(tmp_path):
    config = load_config(REPO_ROOT)
    result, _ = _analyze(
        tmp_path,
        {
            "fl/thing.py": (
                "class Thing:\n"
                "    def __init__(self):\n"
                "        self.deep = 1\n"
                "\n"
                "    def _pack(self):\n"
                "        return {'deep': self.deep}\n"
                "\n"
                "    def state_dict(self):\n"
                "        return self._pack()\n"
            )
        },
        config=config,
    )
    assert _rules(result) == []


def test_ckpt_coverage_ignores_stateless_classes(tmp_path):
    config = load_config(REPO_ROOT)
    result, _ = _analyze(
        tmp_path,
        {
            "fl/thing.py": (
                "class Plain:\n"
                "    def __init__(self):\n"
                "        self.anything = 1\n"
            )
        },
        config=config,
    )
    assert _rules(result) == []


# -- trace-discipline --------------------------------------------------------


def test_trace_discipline_discarded_span(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "def f(tracer):\n"
                "    tracer.span('x')\n"
            )
        },
    )
    assert _rules(result) == ["trace-discipline"]
    assert "discarded" in result.violations[0].message


def test_trace_discipline_unentered_span(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "def f(tracer):\n"
                "    pending = tracer.span('x')\n"
                "    return 1\n"
            )
        },
    )
    assert _rules(result) == ["trace-discipline"]
    assert "never" in result.violations[0].message


def test_trace_discipline_enter_patterns_accepted(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "def f(tracer):\n"
                "    with tracer.span('a'):\n"
                "        pass\n"
                "    manual = tracer.span('b')\n"
                "    manual.__enter__()\n"
            )
        },
    )
    assert _rules(result) == []


def test_trace_discipline_wallclock_in_attrs(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "from time import monotonic\n"
                "def f(tracer):\n"
                "    t0 = monotonic()\n"
                "    tracer.event('e', attrs={'t': t0})\n"
            )
        },
    )
    assert _rules(result) == ["trace-discipline"]
    assert "wall-clock" in result.violations[0].message


def test_trace_discipline_rt_channel_is_exempt(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "from time import monotonic\n"
                "def f(tracer):\n"
                "    t0 = monotonic()\n"
                "    tracer.event('e', rt=t0)\n"
                "    with tracer.span('s', rt=monotonic()):\n"
                "        pass\n"
            )
        },
    )
    assert _rules(result) == []


# -- suppression comments ----------------------------------------------------


def test_flow_findings_respect_line_suppressions(tmp_path):
    result, _ = _analyze(
        tmp_path,
        {
            "m.py": (
                "import numpy as np\n"
                "GEN = np.random.default_rng(0)"
                "  # repro-lint: disable=rng-taint\n"
            )
        },
    )
    assert _rules(result) == []


# -- real-tree mutation (the acceptance-criteria seed) -----------------------


def _analyze_real(mutations):
    config = load_config(REPO_ROOT)
    analyzer = ProjectAnalyzer(config=config, file_sources=mutations)
    return analyzer.analyze([str(SRC)])


def test_mutated_trainer_attr_is_flagged():
    trainer = SRC / "fl" / "trainer.py"
    source = trainer.read_text().replace(
        "        self.history = RunHistory(policy_name=policy.name)\n",
        "        self.history = RunHistory(policy_name=policy.name)\n"
        "        self._foo = 1\n",
    )
    assert "self._foo" in source
    result = _analyze_real({str(trainer): source})
    hits = [v for v in result.violations if v.rule == "ckpt-state-coverage"]
    assert len(hits) == 1
    assert "'self._foo'" in hits[0].message
    assert "FederatedTrainer" in hits[0].message


"""Checkpoint coverage: what the ``uncaptured_state`` scan counts as captured.

Each case adds one module to the real ``src/repro`` sources, in memory
and never on disk, and reads the scan's findings.
"""

from tests.test_source_scans import _tree, uncaptured_state


def _scan_with(source):
    tree = _tree()
    tree["fl/thing.py"] = source
    return uncaptured_state(tree)


def test_ckpt_coverage_uncaptured_attr():
    assert _scan_with(
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "        self.lost = 2\n"
        "    def state_dict(self):\n"
        "        return {'kept': self.kept}\n"
    ) == ["fl/thing.py:4: Thing.lost"]


def test_ckpt_coverage_capture_closure_through_helpers():
    assert _scan_with(
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.deep = 1\n"
        "    def _pack(self):\n"
        "        return {'deep': self.deep}\n"
        "    def state_dict(self):\n"
        "        return self._pack()\n"
    ) == []


def test_ckpt_coverage_ignores_stateless_classes():
    assert _scan_with("class Plain:\n    def __init__(self):\n        self.anything = 1\n") == []


def test_flow_findings_respect_line_suppressions():
    """``# ckpt: transient — <why>`` is the one line annotation a scan reads."""
    source = (
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.scratch = 1{}\n"
        "    def state_dict(self):\n"
        "        return {{}}\n"
    )
    assert _scan_with(source.format("")) == ["fl/thing.py:3: Thing.scratch"]
    assert _scan_with(source.format("  # ckpt: transient — rebuilt every round")) == []

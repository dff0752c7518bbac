"""Tier-1 gate: the shipped tree passes every source scan.

A companion test adds a new module, in memory, to prove the gate bites
on a file none of the scans has seen before.
"""

from tests.test_source_scans import SCANS, _tree


def _findings(tree):
    return [finding for scan in SCANS for finding in scan(tree)]


def test_whole_program_pass_is_clean():
    findings = _findings(_tree())
    assert findings == [], "\n" + "\n".join(findings)


def test_seeded_violation_is_caught():
    tree = _tree()
    tree["core/bad.py"] = (
        "import numpy as np\n\n\n"
        "def draw():\n"
        "    buf = np.zeros(3)\n"
        "    print(buf)\n"
        "    return buf\n"
    )
    assert sorted(_findings(tree)) == ["core/bad.py:5: np.zeros()", "core/bad.py:6: print()"]

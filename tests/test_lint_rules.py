"""The rules that outlived the linter, one class per former rule.

``TestExplicitDtype`` and ``TestNoPrintInLibrary`` hold the source scans
of ``test_source_scans.py`` to the edge cases the rules were held to.
The other classes hold the runtime checks that replaced a rule: a run
never draws from a global generator, and the no-mutation property over
``mean_aggregate`` fails on every kind of write into its inputs.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.policy import CMFLPolicy
from repro.core.thresholds import InverseSqrtThreshold
from repro.fl.client import FLClient
from tests import test_trigger_properties as properties
from tests.strategies import federation
from tests.test_source_scans import _tree, implicit_dtypes, library_prints


class TestExplicitDtype:
    def test_dtype_less_constructors_fire(self):
        source = (
            "a = np.zeros(3)\nb = np.ones((2, 2))\n"
            "c = np.empty(4)\nd = np.full((2, 2), 7)\n"
        )
        assert implicit_dtypes({"core/mod.py": source}) == [
            f"core/mod.py:{i}: np.{name}()"
            for i, name in enumerate(["zeros", "ones", "empty", "full"], 1)
        ]

    def test_dtype_keyword_ok(self):
        source = "a = np.zeros(3, dtype=float)\nb = np.full((2, 2), 7, dtype=np.float32)\n"
        assert implicit_dtypes({"core/mod.py": source}) == []

    def test_positional_dtype_ok(self):
        source = "a = np.zeros(3, float)\nb = np.full((2, 2), 7.0, float)\n"
        assert implicit_dtypes({"core/mod.py": source}) == []

    def test_outside_hot_paths_not_flagged(self):
        assert implicit_dtypes({"data/a.py": "a = np.zeros(3)\n"}) == []

    def test_zeros_like_not_flagged(self):
        assert implicit_dtypes({"core/mod.py": "a = np.zeros_like([1.0, 2.0])\n"}) == []

    def test_suppression(self):
        """The scans read no disable comment: the line is still flagged."""
        source = "a = np.zeros(3)  # noqa  # lint: disable=explicit-dtype\n"
        assert implicit_dtypes({"core/mod.py": source}) == ["core/mod.py:1: np.zeros()"]


class TestNoPrintInLibrary:
    def test_print_in_library_module_fires(self):
        source = (
            "def aggregate(updates):\n"
            '    print("aggregating", len(updates))\n'
            "    return sum(updates)\n"
        )
        assert library_prints({"fl/aggregation.py": source}) == [
            "fl/aggregation.py:2: print()"
        ]

    def test_default_allowed_locations_are_exempt(self):
        exempt = ["experiments/fig1.py", "experiments/sub/probe.py", "__main__.py",
                  "obs/__main__.py", "ckpt/__main__.py"]
        assert library_prints({path: 'print("hello")\n' for path in exempt}) == []
        # Only the listed CLIs own their stdout, not every __main__.
        assert library_prints({"fl/__main__.py": 'print("hello")\n'}) != []

    def test_shadowed_print_method_does_not_fire(self):
        source = "def render(table):\n    table.print()\n"
        assert library_prints({"utils/tables.py": source}) == []

    def test_suppression(self):
        """The scans read no disable comment: the line is still flagged."""
        source = "def debug(x):\n    print(x)  # noqa  # lint: disable=no-print-in-library\n"
        assert library_prints({"fl/probe.py": source}) == ["fl/probe.py:2: print()"]


def _run_moves_a_global_rng(draw=None):
    """Whether a short batched federation changes the state of numpy's
    or the stdlib's global generator.  ``draw(n)``, when given, replaces
    the clients' own epoch permutation."""

    class Client(FLClient):
        def epoch_order(self):
            if draw is None:
                return super().epoch_order()
            return np.asarray(draw(self.n_samples), dtype=np.int64)

    before = pickle.dumps((np.random.get_state(), random.getstate()))
    policy = CMFLPolicy(InverseSqrtThreshold(0.8))
    with federation(policy, backend="batched", rounds=2, client_cls=Client)[0] as trainer:
        trainer.run()
    return pickle.dumps((np.random.get_state(), random.getstate())) != before


class TestNoGlobalRng:
    def test_generator_api_allowed(self):
        assert not _run_moves_a_global_rng()

    def test_legacy_numpy_call_fires(self):
        assert _run_moves_a_global_rng(np.random.permutation)

    def test_stdlib_random_import_fires(self):
        assert _run_moves_a_global_rng(lambda n: random.sample(range(n), n))


def _aggregation_property_fails(monkeypatch, seeded):
    """Whether ``test_trigger_properties``' no-mutation property over
    ``mean_aggregate`` fails with ``seeded`` in its place."""
    monkeypatch.setattr(properties, "mean_aggregate", seeded)
    try:
        properties.test_mean_aggregate_does_not_mutate_inputs()
    except AssertionError:
        return True
    return False


class TestNoParamMutation:
    def test_augmented_assignment_fires(self, monkeypatch):
        def seeded(updates):
            updates[0].update *= 2.0
            return np.mean([u.update for u in updates], axis=0)

        assert _aggregation_property_fails(monkeypatch, seeded)

    def test_subscript_assignment_fires(self, monkeypatch):
        def seeded(updates):
            updates[0].update[0] = 3.0
            return np.mean([u.update for u in updates], axis=0)

        assert _aggregation_property_fails(monkeypatch, seeded)

    def test_slice_augassign_fires(self, monkeypatch):
        def seeded(updates):
            updates[-1].update[1:] *= 2.0
            return np.mean([u.update for u in updates], axis=0)

        assert _aggregation_property_fails(monkeypatch, seeded)

    def test_mutating_method_fires(self, monkeypatch):
        def seeded(updates):
            updates[0].update.sort()
            return np.mean([u.update for u in updates], axis=0)

        assert _aggregation_property_fails(monkeypatch, seeded)

    def test_nested_function_sees_outer_params(self, monkeypatch):
        def seeded(updates):
            def negate_first():
                updates[0].update[:] = -updates[0].update

            negate_first()
            return np.mean([u.update for u in updates], axis=0)

        assert _aggregation_property_fails(monkeypatch, seeded)

    def test_rebound_parameter_not_flagged(self, monkeypatch):
        def seeded(updates):
            updates = [u.update.copy() for u in updates]
            updates[0] += 1.0
            return np.mean(updates, axis=0)

        assert not _aggregation_property_fails(monkeypatch, seeded)

    def test_locals_and_self_not_flagged(self, monkeypatch):
        def seeded(updates):
            stacked = np.stack([u.update for u in updates])
            stacked.sort(axis=0)
            stacked[0] = 0.0
            return stacked.mean(axis=0)

        assert not _aggregation_property_fails(monkeypatch, seeded)


class TestAgainstRealTree:
    """The shipped ``core/`` is in each scan's scope, and clean."""

    @pytest.mark.parametrize(
        "scan, seed",
        [(implicit_dtypes, "np.zeros(1)"), (library_prints, "print()")],
        ids=["ExplicitDtypeRule", "NoPrintInLibraryRule"],
    )
    def test_rule_clean_on_core(self, scan, seed):
        core = {path: src for path, src in _tree().items() if path.startswith("core/")}
        assert core and scan(core) == []
        seeded = {path: f"{src}\n{seed}\n" for path, src in core.items()}
        assert len(scan(seeded)) == len(core)

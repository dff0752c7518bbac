"""Each repro.lint rule: firing and suppression paths."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, Linter
from repro.lint.rules import (
    ExplicitDtypeRule,
    MetricNameRegistryRule,
    NoGlobalRngRule,
    NoParamMutationRule,
    NoPrintInLibraryRule,
    NoSequentialClientLoopRule,
    NoWallclockSeedRule,
    UnusedPureResultRule,
)


def lint(source, rule, relpath="core/mod.py", config=None):
    linter = Linter(config=config or LintConfig(), rules=[rule])
    return linter.lint_source(
        textwrap.dedent(source), Path("src/repro") / relpath
    )


def rules_fired(source, rule, **kwargs):
    return [v.rule for v in lint(source, rule, **kwargs)]


class TestNoGlobalRng:
    def test_legacy_numpy_call_fires(self):
        source = """\
            import numpy as np
            x = np.random.normal(size=3)
        """
        assert rules_fired(source, NoGlobalRngRule) == ["no-global-rng"]

    def test_aliased_import_cannot_dodge(self):
        source = """\
            import numpy.random as npr
            x = npr.rand(3)
        """
        assert rules_fired(source, NoGlobalRngRule) == ["no-global-rng"]

    def test_from_numpy_import_random(self):
        source = """\
            from numpy import random as nr
            x = nr.shuffle([1, 2])
        """
        assert rules_fired(source, NoGlobalRngRule) == ["no-global-rng"]

    def test_stdlib_random_import_fires(self):
        assert rules_fired("import random\n", NoGlobalRngRule) == [
            "no-global-rng"
        ]
        assert rules_fired(
            "from random import choice\n", NoGlobalRngRule
        ) == ["no-global-rng"]

    def test_from_numpy_random_import_legacy_fn(self):
        assert rules_fired(
            "from numpy.random import rand\n", NoGlobalRngRule
        ) == ["no-global-rng"]

    def test_generator_api_allowed(self):
        source = """\
            import numpy as np
            from numpy.random import default_rng

            gen = np.random.default_rng(0)
            seq = np.random.SeedSequence(1)
            kind = np.random.Generator
            other = default_rng(2)
            y = gen.normal(size=3)
        """
        assert rules_fired(source, NoGlobalRngRule) == []

    def test_unrelated_attribute_chains_ignored(self):
        source = """\
            class Box:
                random = 1

            b = Box()
            x = b.random
        """
        assert rules_fired(source, NoGlobalRngRule) == []

    def test_suppression(self):
        source = """\
            import numpy as np
            x = np.random.normal()  # repro-lint: disable=no-global-rng
        """
        assert rules_fired(source, NoGlobalRngRule) == []


class TestExplicitDtype:
    def test_dtype_less_constructors_fire(self):
        source = """\
            import numpy as np
            a = np.zeros(3)
            b = np.ones((2, 2))
            c = np.empty(4)
            d = np.full((2, 2), 7)
        """
        assert rules_fired(source, ExplicitDtypeRule) == ["explicit-dtype"] * 4

    def test_dtype_keyword_ok(self):
        source = """\
            import numpy as np
            a = np.zeros(3, dtype=float)
            b = np.full((2, 2), 7, dtype=np.float32)
        """
        assert rules_fired(source, ExplicitDtypeRule) == []

    def test_positional_dtype_ok(self):
        source = """\
            import numpy as np
            a = np.zeros(3, float)
            b = np.full((2, 2), 7.0, float)
        """
        assert rules_fired(source, ExplicitDtypeRule) == []

    def test_outside_hot_paths_not_flagged(self):
        source = """\
            import numpy as np
            a = np.zeros(3)
        """
        assert rules_fired(source, ExplicitDtypeRule, relpath="data/a.py") == []

    def test_zeros_like_not_flagged(self):
        source = """\
            import numpy as np
            a = np.zeros_like([1.0, 2.0])
        """
        assert rules_fired(source, ExplicitDtypeRule) == []

    def test_suppression(self):
        source = """\
            import numpy as np
            a = np.zeros(3)  # repro-lint: disable=explicit-dtype
        """
        assert rules_fired(source, ExplicitDtypeRule) == []


class TestNoParamMutation:
    def test_augmented_assignment_fires(self):
        source = """\
            def f(u):
                u += 1
                return u
        """
        assert rules_fired(source, NoParamMutationRule) == ["no-param-mutation"]

    def test_subscript_assignment_fires(self):
        source = """\
            def f(u):
                u[0] = 3.0
                return u
        """
        assert rules_fired(source, NoParamMutationRule) == ["no-param-mutation"]

    def test_slice_augassign_fires(self):
        source = """\
            def f(u):
                u[1:] *= 2.0
        """
        assert rules_fired(source, NoParamMutationRule) == ["no-param-mutation"]

    def test_mutating_method_fires(self):
        source = """\
            def f(u):
                u.sort()
        """
        assert rules_fired(source, NoParamMutationRule) == ["no-param-mutation"]

    def test_rebound_parameter_not_flagged(self):
        source = """\
            def f(u):
                u = u.copy()
                u += 1
                return u
        """
        assert rules_fired(source, NoParamMutationRule) == []

    def test_locals_and_self_not_flagged(self):
        source = """\
            class A:
                def f(self, n):
                    self.total += n
                    buf = [0] * n
                    buf[0] = 1
                    buf.sort()
                    return buf
        """
        assert rules_fired(source, NoParamMutationRule) == []

    def test_nested_function_sees_outer_params(self):
        source = """\
            def outer(u):
                def inner():
                    u[0] = 1.0
                return inner
        """
        assert rules_fired(source, NoParamMutationRule) == ["no-param-mutation"]

    def test_out_of_scope_path_not_flagged(self):
        source = """\
            def f(u):
                u += 1
        """
        assert (
            rules_fired(source, NoParamMutationRule, relpath="fl/trainer.py")
            == []
        )

    def test_suppression(self):
        source = """\
            def f(u):
                u += 1  # repro-lint: disable=no-param-mutation
        """
        assert rules_fired(source, NoParamMutationRule) == []


class TestNoWallclockSeed:
    def test_seed_assignment_fires(self):
        source = """\
            import time
            seed = int(time.time())
        """
        assert rules_fired(source, NoWallclockSeedRule) == ["no-wallclock-seed"]

    def test_default_rng_argument_fires(self):
        source = """\
            import time
            import numpy as np
            gen = np.random.default_rng(int(time.time()))
        """
        assert rules_fired(source, NoWallclockSeedRule) == ["no-wallclock-seed"]

    def test_seed_keyword_fires(self):
        source = """\
            import time

            def run(seed=None):
                pass

            run(seed=time.time_ns())
        """
        assert rules_fired(source, NoWallclockSeedRule) == ["no-wallclock-seed"]

    def test_datetime_experiment_id_fires(self):
        source = """\
            from datetime import datetime
            run_id = datetime.now().strftime("%s")
        """
        assert rules_fired(source, NoWallclockSeedRule) == ["no-wallclock-seed"]

    def test_benign_timing_not_flagged(self):
        source = """\
            import time
            start = time.time()
            elapsed = time.time() - start
        """
        assert rules_fired(source, NoWallclockSeedRule) == []

    def test_perf_counter_not_flagged(self):
        source = """\
            import time
            seed_timer = time.perf_counter()
        """
        assert rules_fired(source, NoWallclockSeedRule) == []

    def test_suppression(self):
        source = """\
            import time
            seed = int(time.time())  # repro-lint: disable=no-wallclock-seed
        """
        assert rules_fired(source, NoWallclockSeedRule) == []


class TestUnusedPureResult:
    def test_bare_call_statement_fires(self):
        source = """\
            from repro.core.relevance import relevance
            relevance([1.0], [1.0])
        """
        assert rules_fired(source, UnusedPureResultRule) == [
            "unused-pure-result"
        ]

    def test_method_call_fires(self):
        source = """\
            vocab.encode(tokens)
        """
        assert rules_fired(source, UnusedPureResultRule) == [
            "unused-pure-result"
        ]

    def test_nn_kernel_call_fires(self):
        source = """\
            from repro.nn.layers.conv import im2col
            im2col(x, 3, 3, 1)
        """
        assert rules_fired(source, UnusedPureResultRule) == [
            "unused-pure-result"
        ]

    def test_used_result_not_flagged(self):
        source = """\
            from repro.core.relevance import relevance
            score = relevance([1.0], [1.0])
            scores = [relevance([1.0], [x]) for x in (1.0, -1.0)]
        """
        assert rules_fired(source, UnusedPureResultRule) == []

    def test_impure_call_statement_not_flagged(self):
        source = """\
            print("hello")
            items.append(3)
        """
        assert rules_fired(source, UnusedPureResultRule) == []

    def test_suppression(self):
        source = """\
            from repro.core.relevance import relevance
            relevance([1.0], [1.0])  # repro-lint: disable=unused-pure-result
        """
        assert rules_fired(source, UnusedPureResultRule) == []


class TestNoSequentialClientLoop:
    def test_for_loop_fires(self):
        source = """\
            def run_round(clients, workspace, global_params):
                results = []
                for client in clients:
                    results.append(client.compute_update(workspace, global_params))
                return results
        """
        assert rules_fired(
            source, NoSequentialClientLoopRule, relpath="fl/trainer.py"
        ) == ["no-sequential-client-loop"]

    def test_comprehension_fires(self):
        source = """\
            def run_round(clients, workspace, global_params):
                return [client.compute_update(workspace, global_params)
                        for client in clients]
        """
        assert rules_fired(
            source, NoSequentialClientLoopRule, relpath="experiments/probe.py"
        ) == ["no-sequential-client-loop"]

    def test_while_loop_fires(self):
        source = """\
            def drain(queue, workspace, gp):
                while queue:
                    queue.pop().compute_update(workspace, gp)
        """
        assert rules_fired(
            source, NoSequentialClientLoopRule, relpath="fl/probe.py"
        ) == ["no-sequential-client-loop"]

    def test_nested_loops_report_once(self):
        source = """\
            def run(rounds, clients, workspace, gp):
                for _ in range(rounds):
                    for client in clients:
                        client.compute_update(workspace, gp)
        """
        fired = rules_fired(
            source, NoSequentialClientLoopRule, relpath="fl/probe.py"
        )
        assert fired == ["no-sequential-client-loop"]

    def test_executor_module_is_the_engine(self):
        source = """\
            def run_round(self, plan, participants):
                return [client.compute_update(self._workspace, plan.global_params)
                        for client in participants]
        """
        assert rules_fired(
            source, NoSequentialClientLoopRule, relpath="fl/executor.py"
        ) == []

    def test_allow_in_option(self):
        source = """\
            def run(clients, ws, gp):
                for client in clients:
                    client.compute_update(ws, gp)
        """
        config = LintConfig(
            rules={"no-sequential-client-loop": {"allow_in": ["custom/engine.py"]}}
        )
        assert rules_fired(
            source, NoSequentialClientLoopRule,
            relpath="custom/engine.py", config=config,
        ) == []
        assert rules_fired(
            source, NoSequentialClientLoopRule,
            relpath="fl/other.py", config=config,
        ) == ["no-sequential-client-loop"]

    def test_non_client_loops_ignored(self):
        source = """\
            def run(clients, ws, gp):
                updates = [client.compute_update(ws, gp) for client in clients]
                for u in updates:
                    u.normalize()
                return updates
        """
        fired = rules_fired(
            source, NoSequentialClientLoopRule, relpath="fl/probe.py"
        )
        # Only the compute_update comprehension fires, not the second loop.
        assert fired == ["no-sequential-client-loop"]

    def test_suppression(self):
        source = """\
            def run(clients, ws, gp):
                for client in clients:
                    client.compute_update(ws, gp)  # repro-lint: disable=no-sequential-client-loop
        """
        assert rules_fired(
            source, NoSequentialClientLoopRule, relpath="fl/probe.py"
        ) == []


class TestNoPrintInLibrary:
    def test_print_in_library_module_fires(self):
        source = """\
            def aggregate(updates):
                print("aggregating", len(updates))
                return sum(updates)
        """
        assert rules_fired(
            source, NoPrintInLibraryRule, relpath="fl/aggregation.py"
        ) == ["no-print-in-library"]

    def test_default_allowed_locations_are_exempt(self):
        source = 'print("hello")\n'
        for relpath in (
            "lint/cli.py", "tools/report.py", "experiments/fig1.py",
            "experiments/sub/probe.py",
        ):
            assert rules_fired(
                source, NoPrintInLibraryRule, relpath=relpath
            ) == []

    def test_shadowed_print_method_does_not_fire(self):
        source = """\
            def render(table):
                table.print()
        """
        assert rules_fired(
            source, NoPrintInLibraryRule, relpath="utils/tables.py"
        ) == []

    def test_allow_in_option_extends_exemptions(self):
        source = 'print("cli output")\n'
        config = LintConfig(
            rules={"no-print-in-library": {"allow_in": ["obs/__main__.py"]}}
        )
        assert rules_fired(
            source, NoPrintInLibraryRule,
            relpath="obs/__main__.py", config=config,
        ) == []
        # The option replaces the default list: tools/ is no longer exempt.
        assert rules_fired(
            source, NoPrintInLibraryRule,
            relpath="tools/report.py", config=config,
        ) == ["no-print-in-library"]

    def test_suppression(self):
        source = """\
            def debug(x):
                print(x)  # repro-lint: disable=no-print-in-library
        """
        assert rules_fired(
            source, NoPrintInLibraryRule, relpath="fl/probe.py"
        ) == []


class TestMetricNameRegistry:
    def test_registered_literal_is_clean(self):
        source = """\
            def record(metrics, n):
                metrics.counter("comm.uploads").inc(n)
                metrics.gauge("store.shards_materialized").set(n)
                metrics.histogram("runtime.ckpt.save_s").observe(n)
        """
        assert rules_fired(source, MetricNameRegistryRule) == []

    def test_unregistered_literal_fires_per_call(self):
        source = """\
            def record(metrics):
                metrics.counter("comm.uplaods").inc()
                metrics.gauge("totally.new").set(1)
        """
        assert rules_fired(source, MetricNameRegistryRule) == [
            "metric-name-registry",
            "metric-name-registry",
        ]

    def test_fstring_without_registered_head_fires(self):
        source = """\
            def account(metrics, kind):
                metrics.counter(f"mesh.{kind}").inc()
        """
        assert rules_fired(source, MetricNameRegistryRule) == [
            "metric-name-registry"
        ]

    def test_dynamic_name_expression_fires(self):
        source = """\
            def record(metrics, name):
                metrics.counter(name).inc()
                metrics.counter("comm." + name).inc()
        """
        assert rules_fired(source, MetricNameRegistryRule) == [
            "metric-name-registry",
            "metric-name-registry",
        ]

    def test_non_registry_receivers_are_ignored(self):
        source = """\
            def tally(ballot, collections):
                ballot.counter("precinct.42").inc()
                collections.Counter("anything")
        """
        assert rules_fired(source, MetricNameRegistryRule) == []

    def test_registry_receiver_spellings(self):
        source = """\
            def wire(self, registry):
                self.metrics.counter("bogus.one").inc()
                registry.histogram("bogus.two").observe(1.0)
        """
        assert rules_fired(source, MetricNameRegistryRule) == [
            "metric-name-registry",
            "metric-name-registry",
        ]

    def test_extra_names_option(self):
        source = """\
            def record(metrics):
                metrics.counter("plugin.hits").inc()
        """
        config = LintConfig(
            rules={"metric-name-registry": {"extra_names": ["plugin.hits"]}}
        )
        assert rules_fired(
            source, MetricNameRegistryRule, config=config
        ) == []
        assert rules_fired(source, MetricNameRegistryRule) == [
            "metric-name-registry"
        ]

    def test_suppression_comment(self):
        source = """\
            def record(metrics):
                metrics.counter("scratch.probe").inc()  # repro-lint: disable=metric-name-registry
        """
        assert rules_fired(source, MetricNameRegistryRule) == []

    def test_sweep_clean_on_whole_tree(self):
        # Every instrument call in the shipped tree uses a registered name.
        root = Path(__file__).resolve().parent.parent / "src" / "repro"
        linter = Linter(rules=[MetricNameRegistryRule])
        assert linter.lint_paths([str(root)]) == []


class TestAgainstRealTree:
    """The shipped tree is the ultimate fixture: rules run clean on it."""

    @pytest.mark.parametrize(
        "rule",
        [
            NoGlobalRngRule,
            ExplicitDtypeRule,
            MetricNameRegistryRule,
            NoParamMutationRule,
            NoPrintInLibraryRule,
            NoSequentialClientLoopRule,
            NoWallclockSeedRule,
            UnusedPureResultRule,
        ],
    )
    def test_rule_clean_on_core(self, rule):
        root = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
        linter = Linter(rules=[rule])
        assert linter.lint_paths([str(root)]) == []

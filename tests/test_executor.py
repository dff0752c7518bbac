"""The client-execution engine: backend equivalence, crash handling
and the round-level hot-path fast paths."""

import dataclasses

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:
    hypothesis_installed = False
else:
    hypothesis_installed = True

from repro.core.policy import CMFLPolicy, PolicyContext
from repro.core.relevance import relevance, sign_agreement_counts
from repro.core.thresholds import ConstantThreshold, InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.experiments.workloads import NWPWorkload
from repro.fl import executor as executor_module
from repro.fl.batched import BatchedWorkspace
from repro.fl.client import FLClient
from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.executor import (
    BatchedExecutor,
    ClientExecutionError,
    RoundPlan,
    SerialExecutor,
    make_executor,
)
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.digits_cnn import make_digits_cnn
from repro.models.linear import make_logistic_regression
from repro.models.nwp_lstm import make_nwp_lstm
from repro.nn.losses import SigmoidBinaryCrossEntropy, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy, binary_accuracy
from repro.nn.optimizers import SGD, Momentum
from repro.nn.schedules import ConstantLR
from repro.nn.serialization import flatten_gradients, flatten_parameters
from repro.obs import MemorySink, Tracer
from repro.utils.rng import child_rngs


class _ExplodingClient(FLClient):
    """Raises inside local training."""

    def compute_update(self, *args, **kwargs):
        raise RuntimeError("local optimiser exploded")


class _ExplodingOrderClient(FLClient):
    """Raises inside the batched cohort kernel (epoch permutation)."""

    def epoch_order(self):
        raise RuntimeError("shuffle exploded")


class _StrayOrderClient(FLClient):
    """Draws a permutation that leaves its shard by one row."""

    def epoch_order(self):
        return super().epoch_order() + 1


def _make_workspace(rng):
    model = make_logistic_regression(5, rng=rng)
    return ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        SGD(model.parameters(), 0.5),
        metric=binary_accuracy,
    )


def _federation(policy, backend="serial", n_clients=4, rounds=5, seed=0,
                client_cls=FLClient, **cfg_kw):
    rngs = child_rngs(seed, n_clients + 3)
    w_true = rngs[0].normal(size=5)
    x = rngs[1].normal(size=(80, 5))
    y = (x @ w_true > 0).astype(np.int64)
    data = Dataset(x, y)
    workspace = _make_workspace(rngs[2])
    parts = iid_partition(len(data), n_clients, rng=seed)
    clients = [client_cls(i, data.subset(p), rng=rngs[3 + i])
               for i, p in enumerate(parts)]
    config = FLConfig(rounds=rounds, local_epochs=1, batch_size=10,
                      lr=ConstantLR(0.5), eval_every=1,
                      executor=backend, **cfg_kw)
    return FederatedTrainer(
        workspace, clients, policy, config,
        eval_fn=lambda w: w.evaluate(data.x, data.y),
    ), data


def _run_fingerprint(backend):
    with _federation(CMFLPolicy(InverseSqrtThreshold(0.8)),
                     backend=backend)[0] as trainer:
        history = trainer.run()
        return (
            [r.mean_train_loss for r in history],
            [r.mean_score for r in history],
            [r.uploaded_ids for r in history],
            [r.test_loss for r in history],
            trainer.server.global_params.tobytes(),
        )


class TestBackendEquivalence:
    """The engine contract: backends differ only in wall-clock time."""

    def test_all_backends_bitwise_identical(self):
        serial = _run_fingerprint("serial")
        for backend in EXECUTOR_BACKENDS:
            if backend == "serial":
                continue
            losses, scores, uploaded, evals, params = _run_fingerprint(backend)
            assert losses == serial[0], backend
            assert scores == serial[1], backend
            assert uploaded == serial[2], backend
            assert evals == serial[3], backend
            assert params == serial[4], backend


def _hetero_round(backend, client_cls=FLClient, optimizer_cls=SGD, special=0):
    """One round over shards of mixed sizes (one five-row stack with a
    ragged tail on the batched backend); client ``special`` is built
    from ``client_cls``."""
    rngs = child_rngs(11, 8)
    model = make_logistic_regression(5, rng=rngs[0])
    workspace = ModelWorkspace(
        model,
        SigmoidBinaryCrossEntropy(),
        optimizer_cls(model.parameters(), 0.3),
        metric=binary_accuracy,
    )
    clients = []
    for i, n in enumerate([20, 20, 13, 13, 7]):
        x = rngs[1 + i].normal(size=(n, 5))
        y = (x @ np.ones(5) > 0).astype(np.int64)
        cls = client_cls if i == special else FLClient
        clients.append(cls(i, Dataset(x, y), rng=np.random.default_rng(90 + i)))
    executor = make_executor(backend)
    executor.bind(workspace, clients)
    plan = RoundPlan(iteration=1, lr=0.3, local_epochs=2, batch_size=8,
                     global_params=workspace.get_flat())
    try:
        updates = executor.run_round(plan, clients)
    finally:
        executor.close()
    return executor, updates


class TestBatchedBackend:
    """Batched-specific contracts: cohort formation, RNG stream
    semantics, fallback paths and failure attribution."""

    def test_mixed_batched_then_serial_matches_pure_serial(self):
        """epoch_order leaves client streams exactly where serial
        epochs would: a batched round then a serial round matches an
        all-serial run bit for bit."""
        mixed, _ = _federation(CMFLPolicy(ConstantThreshold(0.0)),
                               backend="batched", rounds=2)
        mixed.run(1)
        mixed.executor.close()
        mixed.executor = SerialExecutor()
        mixed.executor.bind(mixed.workspace, mixed.clients)
        mixed.run(1)

        pure, _ = _federation(CMFLPolicy(ConstantThreshold(0.0)),
                              backend="serial", rounds=2)
        pure.run(2)
        assert (mixed.server.global_params.tobytes()
                == pure.server.global_params.tobytes())

    def test_heterogeneous_shards_split_into_cohorts(self, monkeypatch):
        """Mixed shard sizes still match serial bitwise, as one stack:
        the unequal tail runs on row windows, not per client."""
        _, serial = _hetero_round("serial")
        monkeypatch.setattr(
            FLClient, "compute_update",
            lambda *a, **k: pytest.fail("per-client path taken"),
        )
        executor, batched = _hetero_round("batched")
        for a, b in zip(serial, batched):
            assert a.client_id == b.client_id
            assert a.train_loss == b.train_loss
            np.testing.assert_array_equal(a.update, b.update, strict=True)
        # One engine holds all five rows; compute_update never ran.
        assert set(executor._engines) == {5}
        assert executor._engines[5].n_clients == 5

    @pytest.mark.parametrize("steps", [7, 8, 9, 17, 129])
    def test_train_loss_reduction_is_the_serial_one(self, steps):
        """``train_loss`` is bitwise the serial ``np.mean`` over the
        client's batch losses — at step counts on both sides of numpy's
        pairwise-sum block boundaries (8 and 128), where reducing the
        stacked losses along the wrong axis sums in another order."""

        def losses(backend):
            rngs = child_rngs(5, 3)
            workspace = _make_workspace(rngs[0])
            clients = []
            for i in range(2):
                x = rngs[1 + i].normal(size=(2 * steps, 5))
                y = (x @ np.ones(5) > 0).astype(np.int64)
                clients.append(
                    FLClient(i, Dataset(x, y), rng=np.random.default_rng(40 + i))
                )
            plan = RoundPlan(iteration=1, lr=0.3, local_epochs=1, batch_size=2,
                             global_params=workspace.get_flat())
            with make_executor(backend) as executor:
                executor.bind(workspace, clients)
                return [u.train_loss for u in executor.run_round(plan, clients)]

        assert losses("batched") == losses("serial")

    def test_stateful_optimizer_falls_back_per_client(self):
        """No batched path for Momentum: every client runs the serial
        reference, results still bitwise-identical."""
        _, serial = _hetero_round("serial", optimizer_cls=Momentum)
        executor, batched = _hetero_round("batched", optimizer_cls=Momentum)
        for a, b in zip(serial, batched):
            assert a.train_loss == b.train_loss
            np.testing.assert_array_equal(a.update, b.update, strict=True)
        assert executor._engines == {}
        assert "Momentum" in executor._unsupported

    def test_cohort_failure_names_client(self):
        with pytest.raises(ClientExecutionError, match="client 0") as exc:
            _hetero_round("batched", client_cls=_ExplodingOrderClient)
        assert exc.value.backend == "batched"
        assert "shuffle exploded" in str(exc.value)

    def test_cohort_failure_names_the_client_that_failed(self):
        """Not the first row of the stack (the smallest shard, client 4)
        and not the first client of its size (client 0)."""
        with pytest.raises(ClientExecutionError, match="client 1") as exc:
            _hetero_round("batched", client_cls=_ExplodingOrderClient, special=1)
        assert exc.value.client_id == 1
        assert exc.value.cause_type == "RuntimeError"

    def test_stacked_step_failure_names_first_client_and_rows(self, monkeypatch):
        """A failure inside a stacked kernel has no single owner: it is
        reported for the first client of the run, with the rows."""
        real = BatchedWorkspace.train_step_all

        def exploding(self, x, y, lr, rows=None):
            if rows == (3, 5):  # the 20-sample pair's last, 4-sample step
                raise FloatingPointError("kernel exploded")
            return real(self, x, y, lr, rows=rows)

        monkeypatch.setattr(BatchedWorkspace, "train_step_all", exploding)
        with pytest.raises(ClientExecutionError, match="client 0") as exc:
            _hetero_round("batched")
        assert exc.value.client_id == 0
        assert exc.value.cause_type == "FloatingPointError"
        assert "rows 3:5 of 5, clients [0, 1]" in str(exc.value)

    def _shared_source_round(self, client_cls, special):
        """Five 8-row windows of one dataset: one shared gather."""
        rng = np.random.default_rng(2)
        base = Dataset(rng.normal(size=(30, 5)), rng.integers(0, 2, size=30))
        workspace = _make_workspace(np.random.default_rng(3))
        clients = [
            (client_cls if i == special else FLClient)(
                i, base.window(6 * i, 6 * i + 8), rng=np.random.default_rng(i)
            )
            for i in range(5)
        ]
        plan = RoundPlan(iteration=4, lr=0.3, local_epochs=2, batch_size=4,
                         global_params=workspace.get_flat())
        with make_executor("batched") as executor:
            executor.bind(workspace, clients)
            return executor.run_round(plan, clients)

    def test_shared_gather_failure_names_first_client_and_rows(self):
        """One gather serves the whole run of rows, so — like a stacked
        step — its failure goes to the run's first client, rows named."""
        with pytest.raises(ClientExecutionError, match="client 0") as exc:
            self._shared_source_round(_StrayOrderClient, special=3)
        assert (exc.value.client_id, exc.value.iteration) == (0, 4)
        assert exc.value.cause_type == "IndexError"
        assert "outside the 8 rows of its shard" in str(exc.value)
        assert "(gather, rows 0:5 of 5, clients [0, 1, 2, 3, 4])" in str(exc.value)

    def test_gather_of_one_names_its_client(self):
        """Separate datasets gather separately: a run of one."""
        with pytest.raises(ClientExecutionError, match="client 1") as exc:
            _hetero_round("batched", client_cls=_StrayOrderClient, special=1)
        assert exc.value.cause_type == "IndexError"
        assert "(gather, rows 4:5 of 5, clients [1])" in str(exc.value)

    def test_permutation_draw_still_blames_its_own_client(self):
        with pytest.raises(ClientExecutionError, match="client 3") as exc:
            self._shared_source_round(_ExplodingOrderClient, special=3)
        assert exc.value.client_id == 3 and "rows" not in str(exc.value)

    def test_gather_itself_failing_is_attributed_like_its_bounds_check(
        self, monkeypatch
    ):
        real = np.take

        def exploding(a, indices, **kwargs):
            if kwargs.get("out") is not None and kwargs["out"].ndim == 2:
                raise MemoryError("gather exploded")  # the labels' gather
            return real(a, indices, **kwargs)

        monkeypatch.setattr(executor_module.np, "take", exploding)
        with pytest.raises(ClientExecutionError, match="client 0") as exc:
            self._shared_source_round(FLClient, special=0)
        assert exc.value.cause_type == "MemoryError"
        assert "(gather of epoch 0, rows 0:5 of 5, " in str(exc.value)

    def test_fallback_failure_names_client(self):
        trainer, _ = _federation(CMFLPolicy(ConstantThreshold(0.0)),
                                 backend="batched")
        with trainer:
            # A stateful optimizer has no stacked step, so the whole
            # round runs through compute_update — and client 2's
            # explodes there.
            workspace = trainer.workspace
            workspace.optimizer = Momentum(workspace.model.parameters(), 0.5)
            trainer.clients[2] = _ExplodingClient(
                2, trainer.clients[2].train_data
            )
            with pytest.raises(ClientExecutionError, match="client 2"):
                trainer.run(1)
            assert "Momentum" in trainer.executor._unsupported

    def test_rebind_drops_stale_engines(self):
        executor, _ = _hetero_round("batched")
        assert executor._engines
        workspace = _make_workspace(np.random.default_rng(0))
        executor.bind(workspace, [])
        assert executor._engines == {}


#: The shard sizes of ``NWPWorkload("bench")``: ten roles, six sizes.
NWP_BENCH_SIZES = [158, 156, 155, 150, 156, 154, 154, 150, 152, 152]


def _ragged_federation(kind, sizes, seed=3):
    """A fresh ``(workspace, clients)`` of the given shard sizes for a
    linear, digit-CNN or 2-layer-LSTM model (identical on every call)."""
    rngs = child_rngs(seed, 2 + len(sizes))
    if kind == "linear":
        model = make_logistic_regression(5, rng=rngs[0])
        loss, metric = SigmoidBinaryCrossEntropy(), binary_accuracy
        draw_x = lambda rng, n: rng.normal(size=(n, 5))
        draw_y = lambda rng, n: rng.integers(0, 2, size=n)
    elif kind == "cnn":
        model = make_digits_cnn(
            image_size=16, n_classes=4, channels=(2, 3), hidden=6, rng=rngs[0]
        )
        loss, metric = SoftmaxCrossEntropy(), accuracy
        draw_x = lambda rng, n: rng.normal(size=(n, 1, 16, 16))
        draw_y = lambda rng, n: rng.integers(0, 4, size=n)
    else:
        model = make_nwp_lstm(11, embedding_dim=4, hidden=5, rng=rngs[0])
        loss, metric = SoftmaxCrossEntropy(), accuracy
        draw_x = lambda rng, n: rng.integers(0, 11, size=(n, 4))
        draw_y = lambda rng, n: rng.integers(0, 11, size=n)
    workspace = ModelWorkspace(
        model, loss, SGD(model.parameters(), 0.2), metric=metric
    )
    clients = [
        FLClient(i, Dataset(draw_x(rngs[1], n), draw_y(rngs[1], n)),
                 rng=rngs[2 + i])
        for i, n in enumerate(sizes)
    ]
    return workspace, clients


def _ragged_round(backend, kind, sizes, epochs, batch_size):
    workspace, clients = _ragged_federation(kind, sizes)
    plan = RoundPlan(iteration=1, lr=0.2, local_epochs=epochs,
                     batch_size=batch_size,
                     global_params=workspace.get_flat())
    with make_executor(backend) as executor:
        executor.bind(workspace, clients)
        updates = executor.run_round(plan, clients)
        return executor, updates, [c.rng_state() for c in clients]


def _assert_batched_is_serial(kind, sizes, epochs, batch_size):
    _, serial, serial_rng = _ragged_round("serial", kind, sizes, epochs, batch_size)
    executor, batched, batched_rng = _ragged_round(
        "batched", kind, sizes, epochs, batch_size
    )
    assert [u.client_id for u in batched] == list(range(len(sizes)))
    for a, b in zip(serial, batched):
        assert (a.client_id, a.n_samples) == (b.client_id, b.n_samples)
        assert a.train_loss == b.train_loss
        np.testing.assert_array_equal(a.update, b.update, strict=True)
    assert batched_rng == serial_rng
    return executor


class TestRaggedEquivalence:
    """serial == batched, bit for bit, on shard sizes nobody aligned:
    the lockstep schedule runs the common prefix on the whole stack and
    the unequal tail on row windows."""

    @pytest.mark.parametrize("kind", ["linear", "cnn", "lstm"])
    @pytest.mark.parametrize(
        "sizes,batch_size",
        [
            ([1, 1, 1], 4),
            ([3, 2, 5, 1], 4),
            ([8, 4, 12], 4),
            ([5, 9, 2, 7, 11], 3),
            ([6, 6, 6, 6], 4),  # one run per step
            (NWP_BENCH_SIZES, 4),
        ],
        ids=["single-sample", "below-batch", "multiple-of-batch",
             "all-distinct", "all-equal", "nwp-bench"],
    )
    def test_fixed_floor(self, kind, sizes, batch_size):
        epochs = 1 if len(sizes) == 10 else 2
        _assert_batched_is_serial(kind, sizes, epochs, batch_size)

    @pytest.mark.skipif(
        not hypothesis_installed, reason="package 'hypothesis' not installed"
    )
    def test_drawn_federations(self):
        @settings(max_examples=30, deadline=None)
        @given(
            st.sampled_from(["linear", "cnn", "lstm"]),
            st.lists(st.integers(1, 13), min_size=1, max_size=6),
            st.integers(1, 2),
            st.integers(1, 5),
        )
        def check(kind, sizes, epochs, batch_size):
            _assert_batched_is_serial(kind, sizes, epochs, batch_size)

        check()

    def test_train_loss_across_pairwise_blocks_in_one_cohort(self):
        """Per-client step counts on both sides of numpy's pairwise-sum
        blocks (8 and 128) inside one ragged stack: each row's mean
        reduces its own contiguous run of losses, whatever its length."""
        steps = [7, 8, 9, 127, 128, 129]
        _assert_batched_is_serial("linear", [2 * n for n in steps], 1, 2)
        _assert_batched_is_serial("linear", [2 * n - 1 for n in steps], 1, 2)


class TestStackTiming:
    def test_stack_wall_is_split_by_sample_steps(self):
        """``client_compute`` durations of one stack are proportional
        to the clients' shard sizes, under one worker label."""
        sizes = [20, 20, 13, 13, 7]
        workspace, clients = _ragged_federation("linear", sizes)
        sink = MemorySink()
        plan = RoundPlan(iteration=1, lr=0.2, local_epochs=2, batch_size=8,
                         global_params=workspace.get_flat())
        with make_executor("batched") as executor:
            executor.bind(workspace, clients, tracer=Tracer(sinks=[sink]))
            executor.run_round(plan, clients)
        spans = [e for e in sink.events if e.get("name") == "client_compute"]
        assert [e["attrs"]["client_id"] for e in spans] == [0, 1, 2, 3, 4]
        assert {e["rt"]["worker"] for e in spans} == {"batched-5"}
        per_sample = [e["rt"]["dur"] / n for e, n in zip(spans, sizes)]
        assert per_sample == pytest.approx([per_sample[0]] * 5)
        assert spans[0]["rt"]["dur"] > spans[4]["rt"]["dur"] > 0


def _stacked_calls_per_epoch(sizes, batch_size):
    """One call per step per distinct live minibatch size."""
    return sum(
        len({min(batch_size, n - start) for n in sizes if n > start})
        for start in range(0, max(sizes), batch_size)
    )


class TestStackedCallCounts:
    """How many kernels a round issues — exact, so it cannot drift."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"load_global": 0, "train_step_all": 0, "compute_update": 0}

        def counted(cls, name):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(BatchedWorkspace, "load_global")
        counted(BatchedWorkspace, "train_step_all")
        counted(FLClient, "compute_update")
        return counts

    def test_nwp_bench_round(self, calls):
        workload = NWPWorkload("bench")
        trainer = workload.make_trainer(
            CMFLPolicy(ConstantThreshold(0.0)), executor="batched"
        )
        sizes = [c.n_samples for c in trainer.clients]
        assert sorted(sizes) == sorted(NWP_BENCH_SIZES)
        p = workload.params
        per_epoch = _stacked_calls_per_epoch(sizes, p.batch_size)
        # Far fewer than one per client step; more than the full steps.
        assert max(sizes) // p.batch_size < per_epoch < 50
        with trainer:
            trainer.run(1)
        assert calls == {
            "load_global": 1,
            "train_step_all": p.local_epochs * per_epoch,
            "compute_update": 0,
        }

    def test_equal_shards_round(self, calls):
        _ragged_round("batched", "linear", [10] * 7, epochs=3, batch_size=4)
        assert calls == {
            "load_global": 1, "train_step_all": 3 * 3, "compute_update": 0,
        }


class TestCrashHandling:
    def test_serial_backend_names_failing_client(self):
        trainer, _ = _federation(CMFLPolicy(ConstantThreshold(0.0)),
                                 backend="serial")
        with trainer:
            trainer.clients[2] = _ExplodingClient(
                2, trainer.clients[2].train_data
            )
            with pytest.raises(ClientExecutionError, match="client 2") as exc:
                trainer.run(1)
            assert exc.value.client_id == 2
            assert "RuntimeError" in str(exc.value)

    def test_rebind_picks_up_changed_federation(self):
        for backend in EXECUTOR_BACKENDS:
            trainer, _ = _federation(CMFLPolicy(ConstantThreshold(0.0)),
                                     backend=backend)
            with trainer:
                trainer.run(1)
                trainer.clients[2] = FLClient(
                    2, trainer.clients[2].train_data, rng=123
                )
                trainer.executor.bind(trainer.workspace, trainer.clients)
                trainer.run(1)
                assert len(trainer.history) == 2, backend


class TestFactoryAndConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor("gpu")

    def test_make_executor_maps_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("batched"), BatchedExecutor)

    def test_config_validates_executor_fields(self):
        # The deleted thread/process backends fail like any unknown name,
        # with a message listing exactly the two that ship.
        for backend in ("bogus", "thread", "process"):
            with pytest.raises(ValueError, match="executor") as exc:
                FLConfig(executor=backend)
            assert "('serial', 'batched')" in str(exc.value)
        # ... and the backend name is the only executor knob left.
        assert [
            f.name for f in dataclasses.fields(FLConfig)
            if f.name.startswith("executor")
        ] == ["executor"]


class TestHotPathFastPaths:
    """The per-round caches and preallocated-buffer paths are exact."""

    def test_policy_context_caches_feedback_sign(self):
        fb = np.array([1.0, -2.0, 0.0, 3.0])
        ctx = PolicyContext(iteration=1, global_params=np.zeros(4),
                            global_update_estimate=fb)
        sign = ctx.feedback_sign
        np.testing.assert_array_equal(sign, np.sign(fb))
        # Per-client views share the round's cache: same array object.
        assert ctx.for_client(7).feedback_sign is sign

    def test_sign_agreement_precomputed_matches(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=50)
        u_bar = rng.normal(size=50)
        u_bar[::7] = 0.0
        sign = np.sign(u_bar)
        assert (sign_agreement_counts(u, u_bar)
                == sign_agreement_counts(u, u_bar, u_bar_sign=sign))
        assert relevance(u, u_bar) == relevance(u, u_bar, u_bar_sign=sign)

    def test_flatten_out_buffer(self):
        workspace = _make_workspace(np.random.default_rng(1))
        n = workspace.n_params
        buf = np.empty(n, dtype=float)
        out = flatten_parameters(workspace.model, out=buf)
        assert out is buf
        np.testing.assert_array_equal(buf, flatten_parameters(workspace.model))
        grad_buf = np.empty(n, dtype=float)
        assert flatten_gradients(workspace.model, out=grad_buf) is grad_buf
        np.testing.assert_array_equal(
            grad_buf, flatten_gradients(workspace.model)
        )

    def test_flatten_out_buffer_validated(self):
        workspace = _make_workspace(np.random.default_rng(1))
        with pytest.raises(ValueError, match="float64 vector"):
            flatten_parameters(
                workspace.model,
                out=np.empty(workspace.n_params + 1, dtype=float),
            )
        with pytest.raises(ValueError, match="float64 vector"):
            flatten_parameters(
                workspace.model,
                out=np.empty(workspace.n_params, dtype=np.float32),
            )

"""The client-execution engine: backend equivalence, crash handling
and the round-level hot-path fast paths."""

import dataclasses

import numpy as np
import pytest

from repro.core.policy import CMFLPolicy, PolicyContext
from repro.core.relevance import relevance, sign_agreement_counts
from repro.core.thresholds import ConstantThreshold, InverseSqrtThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
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
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.metrics import binary_accuracy
from repro.nn.optimizers import SGD, Momentum
from repro.nn.schedules import ConstantLR
from repro.nn.serialization import flatten_gradients, flatten_parameters
from repro.utils.rng import child_rngs


class _ExplodingClient(FLClient):
    """Raises inside local training."""

    def compute_update(self, *args, **kwargs):
        raise RuntimeError("local optimiser exploded")


class _ExplodingOrderClient(FLClient):
    """Raises inside the batched cohort kernel (epoch permutation)."""

    def epoch_order(self):
        raise RuntimeError("shuffle exploded")


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


def _hetero_round(backend, client_cls=FLClient, optimizer_cls=SGD):
    """One round over shards of mixed sizes: two 2-client cohorts plus
    a singleton straggler on the batched backend."""
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
        cls = client_cls if i == 0 else FLClient
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

    def test_heterogeneous_shards_split_into_cohorts(self):
        """Mixed shard sizes still match serial bitwise; only
        multi-client cohorts get a stacked engine."""
        _, serial = _hetero_round("serial")
        executor, batched = _hetero_round("batched")
        for a, b in zip(serial, batched):
            assert a.client_id == b.client_id
            assert a.train_loss == b.train_loss
            np.testing.assert_array_equal(a.update, b.update, strict=True)
        # Two 2-client cohorts share one engine; the singleton has none.
        assert set(executor._engines) == {2}

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

    def test_fallback_failure_names_client(self):
        trainer, _ = _federation(CMFLPolicy(ConstantThreshold(0.0)),
                                 backend="batched")
        with trainer:
            # Shrinking client 2's shard makes it a singleton cohort,
            # which runs through compute_update and explodes there.
            shrunk = trainer.clients[2].train_data.subset(range(7))
            trainer.clients[2] = _ExplodingClient(2, shrunk)
            with pytest.raises(ClientExecutionError, match="client 2"):
                trainer.run(1)

    def test_rebind_drops_stale_engines(self):
        executor, _ = _hetero_round("batched")
        assert executor._engines
        workspace = _make_workspace(np.random.default_rng(0))
        executor.bind(workspace, [])
        assert executor._engines == {}


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

    def test_instances_pass_through(self):
        ex = BatchedExecutor()
        assert make_executor(ex) is ex

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

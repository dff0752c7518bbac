"""The cluster emulation substrate."""

import numpy as np
import pytest

from repro.baselines.vanilla import VanillaPolicy
from repro.ckpt import checkpoint_paths
from repro.core.policy import CMFLPolicy
from repro.core.thresholds import ConstantThreshold
from repro.data.dataset import Dataset
from repro.data.partition import iid_partition
from repro.emu.cluster import emulate_cluster
from repro.emu.messages import HEADER_BYTES, MessageKind, message_size
from repro.emu.network import MOBILE_LINK, LinkModel, NodeComputeModel
from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.sampling import UniformSampler
from repro.fl.trainer import FederatedTrainer
from repro.fl.workspace import ModelWorkspace
from repro.models.linear import make_logistic_regression
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import SGD
from repro.nn.schedules import ConstantLR
from repro.nn.serialization import STATUS_MESSAGE_BYTES, update_nbytes
from repro.obs import MemorySink, Tracer
from repro.utils.rng import child_rngs


class TestLinkModel:
    def test_transfer_time(self):
        link = LinkModel(bandwidth_bps=8e6, latency_s=0.01)
        # 1 MB over 8 Mbit/s = 1 s, plus latency
        assert link.transfer_time(1_000_000) == pytest.approx(1.01)

    def test_zero_bytes_costs_latency(self):
        link = LinkModel(latency_s=0.05)
        assert link.transfer_time(0) == pytest.approx(0.05)

    def test_mobile_slower_than_default(self):
        assert MOBILE_LINK.transfer_time(10_000) > LinkModel().transfer_time(10_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkModel().transfer_time(-1)


class TestComputeModel:
    def test_training_time_scales(self):
        node = NodeComputeModel(train_seconds_per_sample=0.01)
        assert node.local_training_time(10, 2) == pytest.approx(0.2)

    def test_relevance_check_time(self):
        node = NodeComputeModel(relevance_seconds_per_param=1e-9)
        assert node.relevance_check_time(1000) == pytest.approx(1e-6)


class TestMessages:
    def test_update_size(self):
        assert message_size(MessageKind.UPDATE, 100) == HEADER_BYTES + update_nbytes(100)

    def test_status_is_tiny(self):
        status = message_size(MessageKind.STATUS, 100_000)
        update = message_size(MessageKind.UPDATE, 100_000)
        assert status == HEADER_BYTES + STATUS_MESSAGE_BYTES
        assert status < update / 100

    def test_broadcast_with_feedback_doubles_payload(self):
        with_fb = message_size(MessageKind.MODEL_BROADCAST, 100, True)
        without = message_size(MessageKind.MODEL_BROADCAST, 100, False)
        assert with_fb - HEADER_BYTES == 2 * (without - HEADER_BYTES)


def _trainer(policy, rounds=3, n_clients=4, seed=0, config=None, **trainer_parts):
    rngs = child_rngs(seed, n_clients + 3)
    x = rngs[0].normal(size=(60, 4))
    y = (x @ rngs[1].normal(size=4) > 0).astype(np.int64)
    data = Dataset(x, y)
    model = make_logistic_regression(4, rng=rngs[2])
    workspace = ModelWorkspace(model, SigmoidBinaryCrossEntropy(),
                               SGD(model.parameters(), 0.5))
    parts = iid_partition(len(data), n_clients, rng=seed)
    clients = [FLClient(i, data.subset(p), rng=rngs[3 + i])
               for i, p in enumerate(parts)]
    config = FLConfig(rounds=rounds, local_epochs=1, batch_size=10,
                      lr=ConstantLR(0.5), **(config or {}))
    return FederatedTrainer(workspace, clients, policy, config, **trainer_parts)


def _emulate(trainer, history, **emulation):
    return emulate_cluster(
        history,
        {c.client_id: c.n_samples for c in trainer.clients},
        trainer.server.n_params,
        trainer.config.local_epochs,
        **emulation,
    )


def _emulated(policy, rounds=3, n_clients=4, seed=0, **emulation):
    """Run the federation the one synchronous way, then emulate it."""
    trainer = _trainer(policy, rounds, n_clients, seed)
    return _emulate(trainer, trainer.run(rounds), **emulation)


class TestClusterEmulator:
    def test_vanilla_byte_accounting_is_exact(self):
        report = _emulated(VanillaPolicy(), rounds=3, n_clients=4)
        n_params = report.n_params
        expected_updates = 3 * 4 * message_size(MessageKind.UPDATE, n_params)
        assert report.bytes_by_kind[MessageKind.UPDATE.value] == expected_updates
        expected_bcast = 3 * 4 * message_size(
            MessageKind.MODEL_BROADCAST, n_params
        )
        assert report.bytes_by_kind[MessageKind.MODEL_BROADCAST.value] == expected_bcast
        assert MessageKind.STATUS.value not in report.bytes_by_kind

    def test_filtered_clients_send_status(self):
        report = _emulated(CMFLPolicy(ConstantThreshold(0.9)), rounds=4)
        assert report.bytes_by_kind.get(MessageKind.STATUS.value, 0) > 0
        vanilla = _emulated(VanillaPolicy(), rounds=4)
        assert report.uploaded_megabytes < vanilla.uploaded_megabytes

    def test_simulated_time_accumulates(self):
        report = _emulated(VanillaPolicy(), rounds=2)
        assert report.simulated_seconds > 0
        assert len(report.timings) == 2
        assert report.simulated_seconds == pytest.approx(
            sum(t.total for t in report.timings)
        )

    def test_relevance_overhead_is_small(self):
        report = _emulated(VanillaPolicy(), rounds=2)
        assert report.relevance_overhead_fraction() < 0.01

    def test_round_timing_total(self):
        report = _emulated(VanillaPolicy(), rounds=1)
        t = report.timings[0]
        assert t.total == pytest.approx(
            t.broadcast_time + t.slowest_compute_time + t.slowest_upload_time
        )

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            _emulated(VanillaPolicy(), rounds=0)

    def test_run_checkpoints_and_opens_one_run_span(self, tmp_path):
        """A federation run the way Fig 7 runs it goes through the one
        synchronous driver: its checkpoint cadence and its run span."""
        sink = MemorySink()
        trainer = _trainer(
            VanillaPolicy(),
            config={"checkpoint_dir": str(tmp_path), "checkpoint_every": 1},
            tracer=Tracer(sinks=[sink]),
        )
        report = _emulate(trainer, trainer.run(3))
        assert len(report.timings) == 3
        assert len(checkpoint_paths(tmp_path)) > 0
        runs = [e for e in sink.events
                if e["kind"] == "span" and e["name"] == "run"]
        assert len(runs) == 1

    def test_partial_participation_is_refused(self):
        """The emulation models the paper's full-participation barrier:
        a sampled (or store-backed) history is refused by name, not
        billed for absent clients."""
        trainer = _trainer(VanillaPolicy(),
                           sampler=UniformSampler(count=2, rng=0))
        history = trainer.run(2)
        with pytest.raises(ValueError, match=r"round 1 .* 2 .* 4 "):
            _emulate(trainer, history)
        # a store-backed trainer holds no eager client list
        with pytest.raises(ValueError, match=r"round 1 .* 2 .* 0 "):
            emulate_cluster(history, {}, trainer.server.n_params, 1)


class TestLinkSensitivity:
    def test_mobile_uplink_dominates_round_time(self):
        """On a phone-grade link the upload leg dwarfs the broadcast-
        plus-compute budget of an EC2-grade link."""
        fast_report = _emulated(VanillaPolicy(), rounds=2)
        slow_report = _emulated(VanillaPolicy(), rounds=2, link=MOBILE_LINK)
        assert slow_report.simulated_seconds > fast_report.simulated_seconds
        # byte totals are link-independent
        assert slow_report.uploaded_megabytes == fast_report.uploaded_megabytes

    def test_feedback_broadcast_costs_downstream_not_upstream(self):
        r1 = _emulated(VanillaPolicy(), rounds=2, feedback_in_broadcast=True)
        r2 = _emulated(VanillaPolicy(), rounds=2, feedback_in_broadcast=False)
        assert (r1.bytes_by_kind[MessageKind.MODEL_BROADCAST.value]
                > r2.bytes_by_kind[MessageKind.MODEL_BROADCAST.value])
        assert r1.uploaded_megabytes == r2.uploaded_megabytes

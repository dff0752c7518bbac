"""Master/slave cluster emulation (paper Sec. V-C).

The paper's EC2 deployment measures *network footprint* (uploaded
rounds and bytes), explicitly not wall-clock transfer time; replaying a
finished run's round records through a cost model measures the same
quantities deterministically.  :func:`emulate_cluster` is a pure
function of a :class:`~repro.fl.history.RunHistory`: a link model
(bandwidth + latency per node), a compute model (per-sample training
cost, per-parameter relevance-check cost) and byte-level message
accounting produce the per-round timeline behind Figs. 7a/7b and the
computation-overhead micro-benchmark.  The federation itself runs
through the ordinary ``FederatedTrainer.run``.
"""

from repro.emu.network import LinkModel, NodeComputeModel
from repro.emu.messages import MessageKind, message_size
from repro.emu.cluster import EmulationReport, RoundTiming, emulate_cluster

__all__ = [
    "LinkModel",
    "NodeComputeModel",
    "MessageKind",
    "message_size",
    "EmulationReport",
    "RoundTiming",
    "emulate_cluster",
]

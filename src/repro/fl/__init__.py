"""The synchronous federated-learning engine.

One :class:`~repro.fl.trainer.FederatedTrainer` drives the paper's
three-step synchronous scheme (Sec. II-A): clients train locally on
private shards, an upload policy filters their updates, and the server
averages whatever arrived into a global update.  Communication-round
and byte accounting happen inline so every experiment reads its metrics
from the run history.
"""

from repro.fl.config import EXECUTOR_BACKENDS, FLConfig
from repro.fl.workspace import ModelWorkspace
from repro.fl.batched import BatchedWorkspace
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.executor import (
    BatchedExecutor,
    ClientExecutionError,
    ClientExecutor,
    RoundPlan,
    SerialExecutor,
    make_executor,
)
from repro.fl.server import FLServer
from repro.fl.aggregation import mean_aggregate
from repro.fl.accounting import CommunicationLedger
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.sampling import FullParticipation, UniformSampler
from repro.fl.store import (
    ClientStateStore,
    CyclicPartition,
    StoreClient,
)
from repro.fl.trainer import FederatedTrainer

__all__ = [
    "EXECUTOR_BACKENDS",
    "FLConfig",
    "ModelWorkspace",
    "BatchedWorkspace",
    "ClientExecutionError",
    "ClientExecutor",
    "SerialExecutor",
    "BatchedExecutor",
    "RoundPlan",
    "make_executor",
    "FLClient",
    "ClientUpdate",
    "FLServer",
    "mean_aggregate",
    "CommunicationLedger",
    "RoundRecord",
    "RunHistory",
    "FullParticipation",
    "UniformSampler",
    "ClientStateStore",
    "StoreClient",
    "CyclicPartition",
    "FederatedTrainer",
]

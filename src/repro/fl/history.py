"""Per-round run records and the history container experiments consume."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, List, Optional, Union

import numpy as np

from repro.utils.atomic_io import atomic_write_text

__all__ = [
    "COMPATIBLE_SCHEMAS",
    "HISTORY_SCHEMA",
    "RoundRecord",
    "RunHistory",
    "history_digest",
]

#: Schema tag of the JSONL serialisation (header line of every file).
#: v2 added the async-engine columns ``staleness``/``virtual_time``
#: (synchronous runs record zeros); v1 files still load, with zeros.
HISTORY_SCHEMA = "repro-run-history/v2"

#: Schemas :meth:`RunHistory.from_jsonl` accepts (newest first).
COMPATIBLE_SCHEMAS = ("repro-run-history/v2", "repro-run-history/v1")


@dataclass
class RoundRecord:
    """Everything measured in one federated iteration.

    ``staleness`` is how many later rounds closed between this round's
    dispatch and its aggregation, and ``virtual_time`` the simulated
    close time.  The synchronous trainer records zeros for both; the
    async engine records the close time on its virtual clock, and a
    staleness of zero at ``S = 0``.
    """

    iteration: int
    n_clients: int
    n_uploaded: int
    accumulated_rounds: int
    total_bytes: int
    lr: float
    mean_train_loss: float
    mean_score: float
    threshold: float
    test_loss: Optional[float] = None
    test_metric: Optional[float] = None
    uploaded_ids: List[int] = field(default_factory=list)
    staleness: int = 0
    virtual_time: float = 0.0

    @property
    def upload_fraction(self) -> float:
        return self.n_uploaded / self.n_clients if self.n_clients else 0.0


#: Sorted, so a dict built in this order serialises as ``sort_keys``
#: would without the sorting pass.
_RECORD_FIELDS = tuple(sorted(f.name for f in fields(RoundRecord)))


class RunHistory:
    """Ordered round records plus convenience array views."""

    def __init__(self, policy_name: str) -> None:
        self.policy_name = policy_name
        self.records: List[RoundRecord] = []

    def append(self, record: RoundRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise ValueError("round records must have increasing iterations")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def final(self) -> RoundRecord:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1]

    def iterations(self) -> np.ndarray:
        return np.asarray([r.iteration for r in self.records])

    def accumulated_rounds(self) -> np.ndarray:
        return np.asarray([r.accumulated_rounds for r in self.records])

    def total_bytes(self) -> np.ndarray:
        return np.asarray([r.total_bytes for r in self.records])

    def scores(self) -> np.ndarray:
        """Mean policy score (relevance / significance) per round."""
        return np.asarray([r.mean_score for r in self.records])

    def train_losses(self) -> np.ndarray:
        return np.asarray([r.mean_train_loss for r in self.records])

    def staleness(self) -> np.ndarray:
        """Per-round aggregation staleness (all zeros for sync runs)."""
        return np.asarray([r.staleness for r in self.records])

    def virtual_times(self) -> np.ndarray:
        """Simulated close times (all zeros for sync runs)."""
        return np.asarray([r.virtual_time for r in self.records])

    def evaluated_points(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """(iterations, accumulated_rounds, test_metric) where evaluated."""
        rows = [
            (r.iteration, r.accumulated_rounds, r.test_metric)
            for r in self.records
            if r.test_metric is not None
        ]
        if not rows:
            return np.array([]), np.array([]), np.array([])
        arr = np.asarray(rows, dtype=float)
        return arr[:, 0], arr[:, 1], arr[:, 2]

    # -- JSONL round-trip ----------------------------------------------

    def to_jsonl(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialise as JSON lines: a schema header, then one record per line.

        Returns the text; also writes it to ``path`` when given (via an
        atomic replace, so a crash never leaves a half-written file).
        The format round-trips exactly through :meth:`from_jsonl` (plain
        ints/floats only, so equality is bitwise).
        """
        lines = [
            json.dumps(
                {"schema": HISTORY_SCHEMA, "policy_name": self.policy_name},
                sort_keys=True,
            )
        ]
        # Every field is a plain scalar or a list of ints, so the dict
        # needs none of ``asdict``'s deep copy — which was most of the
        # cost of a checkpoint's history member on a long run.
        lines.extend(
            json.dumps({name: getattr(record, name) for name in _RECORD_FIELDS})
            for record in self.records
        )
        text = "\n".join(lines) + "\n"
        if path is not None:
            atomic_write_text(path, text)
        return text

    @classmethod
    def from_jsonl(cls, source: Union[str, Path]) -> "RunHistory":
        """Rebuild a history from :meth:`to_jsonl` output.

        ``source`` may be a path to a ``.jsonl`` file or the serialised
        text itself (recognised by its leading ``{``).
        """
        if isinstance(source, Path) or not source.lstrip().startswith("{"):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty run-history serialisation")
        header = json.loads(lines[0])
        if header.get("schema") not in COMPATIBLE_SCHEMAS:
            raise ValueError(
                f"expected schema {HISTORY_SCHEMA!r} (or a compatible "
                f"older one of {COMPATIBLE_SCHEMAS}), "
                f"got {header.get('schema')!r}"
            )
        history = cls(policy_name=header["policy_name"])
        for line in lines[1:]:
            history.append(RoundRecord(**json.loads(line)))
        return history


def history_digest(trainer: Any) -> str:
    """SHA-256 over everything a backend could perturb in ``trainer``'s run.

    Covers per-round losses, scores, upload decisions and the final
    global parameter bytes; equal digests mean bitwise-equal runs.
    """
    h = hashlib.sha256()
    for r in trainer.history:
        h.update(np.float64(r.mean_train_loss).tobytes())
        h.update(np.float64(r.mean_score).tobytes())
        h.update(np.asarray(r.uploaded_ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trainer.server.global_params).tobytes())
    return h.hexdigest()

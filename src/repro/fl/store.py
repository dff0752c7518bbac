"""Sharded, array-backed client-state store: the population model.

The paper's cross-device regime has millions of enrolled devices of
which only a tiny cohort participates per round.  Holding one live
:class:`~repro.fl.client.FLClient` per enrolled device makes "pool
size" the dominant cost; this module inverts that: the *population* is
rows in contiguous numpy arrays, and Python objects exist only for the
clients of the current round.

Layout.  A population of P clients is split into fixed-size shards of
``shard_size`` rows.  Each shard owns three arrays, allocated lazily
the first time any of its clients is touched:

* ``rng``   — ``uint64 (rows, 6)``: the PCG64 counter state of each
  client's stream (state hi/lo, increment hi/lo, ``has_uint32``,
  ``uinteger``), exactly the fields of ``Generator.bit_generator
  .state`` — so a row round-trips a stream bitwise;
* ``live``  — ``bool (rows,)``: whether the row holds a captured
  stream; a dead row's stream is defined by the seed scheme below, so
  untouched clients cost nothing and touch order cannot matter;
* ``stats`` — ``int64 (rows, 3)``: participations, uploads, last
  participation round.

Fresh streams are a pure function of ``(seed, client_index)`` via
``SeedSequence``, never of when a client first participates: two runs
that touch different shards in different orders still agree on every
stream.

Laziness contract.  :meth:`ClientStateStore.checkout` materializes
:class:`StoreClient` views (real ``FLClient`` subclasses — both
executor backends accept them unchanged) for exactly the requested
indices; :meth:`ClientStateStore.writeback` captures the advanced RNG
streams into the shard rows and releases the views.  Between a
checkout and its writeback the store refuses to snapshot
(:meth:`state_arrays` raises): shard arrays are only consistent at
round boundaries, the same place checkpoints are legal.  Shard arrays
are **coordinator-owned** state — only ``checkout`` / ``writeback`` /
``record_round`` write them, at round boundaries (see DESIGN.md §6f).

Data stays shared: a :class:`CyclicPartition` maps a client index to
its window of a common dataset, O(1) state per population (contiguous
wrap-around slices — views, not copies).  The store's eager twin is
the client list that builds client ``i`` on ``partition.materialize(i)``
with a PCG64 stream seeded by ``stream_seed(seed, i)``, the stream a
never-touched row starts from.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.client import FLClient
from repro.utils.rng import stream_seed

__all__ = [
    "ClientStateStore",
    "CyclicPartition",
    "DEFAULT_SHARD_SIZE",
    "StoreClient",
]

#: Rows per shard.  Large enough that shard bookkeeping is negligible,
#: small enough that touching a 100-client cohort in a 1M-population
#: materializes kilobytes, not the pool.
DEFAULT_SHARD_SIZE = 4096

_U64 = (1 << 64) - 1


def _encode_pcg64(state: Dict[str, Any], out: np.ndarray) -> None:
    """Pack a ``Generator.bit_generator.state`` dict into 6 uint64."""
    if state.get("bit_generator") != "PCG64":
        raise ValueError(
            "the client-state store holds PCG64 counter state; got "
            f"bit generator {state.get('bit_generator')!r} (build clients "
            "with numpy's default_rng)"
        )
    inner = state["state"]
    s, inc = int(inner["state"]), int(inner["inc"])
    out[:] = (
        s >> 64, s & _U64, inc >> 64, inc & _U64,
        int(state["has_uint32"]), int(state["uinteger"]),
    )


def _decode_pcg64(row: np.ndarray) -> Dict[str, Any]:
    """Invert :func:`_encode_pcg64` back to a state dict."""
    s_hi, s_lo, inc_hi, inc_lo, has_uint32, uinteger = row.tolist()
    return {
        "bit_generator": "PCG64",
        "state": {"state": (s_hi << 64) | s_lo, "inc": (inc_hi << 64) | inc_lo},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


class CyclicPartition:
    """O(1)-state partition: wrap-around slices of a shared dataset.

    Client ``i`` owns the ``samples_per_client`` rows starting at
    ``(i * samples_per_client) % n`` — population size is decoupled from
    dataset size, which is what a million-client emulation over a fixed
    corpus needs.  Every client is one :meth:`Dataset.window
    <repro.data.dataset.Dataset.window>` of the base: a zero-copy view,
    or for the few wrap-around clients a gathered copy.
    """

    def __init__(
        self,
        dataset: Dataset,
        n_clients: int,
        samples_per_client: int,
    ) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if not 1 <= samples_per_client <= len(dataset):
            raise ValueError(
                f"samples_per_client must be in [1, {len(dataset)}], "
                f"got {samples_per_client}"
            )
        self.dataset = dataset
        self.n_clients = n_clients
        self.samples_per_client = samples_per_client

    def __len__(self) -> int:
        return self.n_clients

    def materialize(self, index: int) -> Dataset:
        """Client ``index``'s rows: a window of the shared dataset."""
        start = (index * self.samples_per_client) % len(self.dataset)
        return self.dataset.window(start, start + self.samples_per_client)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe shape summary for the checkpoint manifest."""
        return {
            "kind": "cyclic",
            "n_clients": self.n_clients,
            "samples_per_client": self.samples_per_client,
            # Consecutive clients' windows abut; the key keeps the
            # manifest readable by and from earlier checkpoints.
            "stride": self.samples_per_client,
        }


class StoreClient(FLClient):
    """A lazily materialized view of one store row.

    A real :class:`~repro.fl.client.FLClient` — both executor backends
    run it unchanged; its dataset aliases the partition's shared arrays
    and its RNG stream was restored from (or freshly derived for) its
    shard row.  Views live for one round:
    the store's :meth:`~ClientStateStore.writeback` captures the
    advanced stream back into the shard and takes the view's generator
    away: a retired view refuses every stream access (``epoch_order``,
    ``compute_update``, ``rng_state``), its state was already captured.
    """

    @property
    def _rng(self) -> np.random.Generator:
        if self._stream is None:
            raise RuntimeError(
                f"store view for client {self.client_id} was already "
                "written back; check out a fresh cohort"
            )
        return self._stream

    @_rng.setter
    def _rng(self, rng: Optional[np.random.Generator]) -> None:
        self._stream = rng  # ckpt: transient — views never outlive their round

    def __repr__(self) -> str:
        return f"StoreClient(id={self.client_id}, n={self.n_samples})"


class _Shard:
    """One shard's arrays; allocated only when a row is first touched."""

    __slots__ = ("rng", "live", "stats")

    def __init__(self, rows: int) -> None:
        self.rng = np.zeros((rows, 6), dtype=np.uint64)
        self.live = np.zeros(rows, dtype=bool)
        self.stats = np.zeros((rows, 3), dtype=np.int64)


#: stats columns, by index.
_PARTICIPATIONS, _UPLOADS, _LAST_ROUND = 0, 1, 2


class ClientStateStore:
    """Sharded array-backed per-client state for huge populations.

    ``population`` rows of client state (RNG counters, participation
    stats) in lazily allocated fixed-size shards; ``partition`` maps
    rows to data.  Peak memory is O(touched shards + dataset), never
    O(population x object): a 100-client cohort from a million-client
    pool materializes a handful of shards and exactly 100 Python
    objects.
    """

    def __init__(
        self,
        population: int,
        partition: CyclicPartition,
        seed: int = 0,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        if population < 1:
            raise ValueError("population must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if len(partition) < population:
            raise ValueError(
                f"partition covers {len(partition)} clients, population "
                f"is {population}"
            )
        self.population = population
        self.partition = partition  # ckpt: transient — re-supplied at build, like datasets
        self.seed = seed
        self.shard_size = shard_size
        self._shards: Dict[int, _Shard] = {}
        self._outstanding: Dict[int, StoreClient] = {}  # ckpt: transient — live round views
        # Generators of retired views: a live row restores into one
        # (1.4 us) instead of into a PCG64 seeded from the OS first (15 us).
        self._idle_rngs: List[np.random.Generator] = []  # ckpt: transient — stateless spares

    # -- internals -----------------------------------------------------

    def _shard_rows(self, shard_id: int) -> int:
        start = shard_id * self.shard_size
        return min(self.shard_size, self.population - start)

    def _locate(self, index: int):
        """(shard, row offset) for a client index, materializing lazily."""
        shard_id, offset = divmod(index, self.shard_size)
        shard = self._shards.get(shard_id)
        if shard is None:
            shard = _Shard(self._shard_rows(shard_id))
            self._shards[shard_id] = shard
        return shard, offset

    def _fresh_stream(self, index: int) -> np.random.Generator:
        """The deterministic stream of a never-touched client.

        A pure function of ``(seed, index)``: participation order and
        shard touch order cannot change any client's draws.
        """
        return np.random.Generator(np.random.PCG64(stream_seed(self.seed, index)))

    # -- the round-trip: checkout, writeback ---------------------------

    def checkout(self, indices: Sequence[int]) -> List[StoreClient]:
        """Materialize live views for this round's cohort.

        Views come back in the order of ``indices``.  Every view must
        be returned through :meth:`writeback` before the next checkout
        of the same client or a state snapshot.
        """
        views: List[StoreClient] = []
        for raw in indices:
            index = int(raw)
            if not 0 <= index < self.population:
                raise IndexError(
                    f"client index {index} outside population "
                    f"[0, {self.population})"
                )
            if index in self._outstanding:
                raise RuntimeError(
                    f"client {index} is already checked out; writeback "
                    "the previous cohort first"
                )
            shard, offset = self._locate(index)
            if shard.live[offset]:
                idle = self._idle_rngs
                rng = idle.pop() if idle else np.random.Generator(np.random.PCG64())
                rng.bit_generator.state = _decode_pcg64(shard.rng[offset])
            else:
                rng = self._fresh_stream(index)
            view = StoreClient(index, self.partition.materialize(index), rng)
            self._outstanding[index] = view
            views.append(view)
        return views

    def writeback(self, views: Sequence[StoreClient]) -> None:
        """Capture advanced RNG streams into shard rows; retire the views."""
        for view in views:
            index = view.client_id
            if self._outstanding.get(index) is not view:
                raise RuntimeError(
                    f"client {index} is not checked out from this store"
                )
            shard, offset = self._locate(index)
            rng = view._rng
            _encode_pcg64(rng.bit_generator.state, shard.rng[offset])
            shard.live[offset] = True
            self._idle_rngs.append(rng)
            view._rng = None
            del self._outstanding[index]
        # Fresh rows bring new generators; keep one cohort's worth.
        del self._idle_rngs[len(views) :]

    def record_round(
        self,
        iteration: int,
        uploaded_ids: Sequence[int],
        skipped_ids: Sequence[int],
    ) -> None:
        """Account one round's participation into the stats columns."""
        for ids, uploaded in ((uploaded_ids, True), (skipped_ids, False)):
            for raw in ids:
                index = int(raw)
                shard, offset = self._locate(index)
                shard.stats[offset, _PARTICIPATIONS] += 1
                if uploaded:
                    shard.stats[offset, _UPLOADS] += 1
                shard.stats[offset, _LAST_ROUND] = iteration

    # -- inspection ----------------------------------------------------

    @property
    def materialized_shards(self) -> int:
        return len(self._shards)

    @property
    def nbytes(self) -> int:
        """Bytes held in shard arrays (the population-model footprint)."""
        return sum(
            shard.rng.nbytes + shard.live.nbytes + shard.stats.nbytes
            for shard in self._shards.values()
        )

    def participation_stats(self, index: int) -> Dict[str, int]:
        """(participations, uploads, last round) of one client."""
        shard_id, offset = divmod(int(index), self.shard_size)
        shard = self._shards.get(shard_id)
        if shard is None:
            return {"participations": 0, "uploads": 0, "last_round": 0}
        row = shard.stats[offset]
        return {
            "participations": int(row[_PARTICIPATIONS]),
            "uploads": int(row[_UPLOADS]),
            "last_round": int(row[_LAST_ROUND]),
        }

    # -- checkpoint plumbing (see repro.ckpt.state) --------------------

    def manifest(self) -> Dict[str, Any]:
        """JSON-safe identity + shape summary for the ckpt manifest."""
        if self._outstanding:
            raise RuntimeError(
                f"{len(self._outstanding)} views are checked out; the "
                "store only snapshots at round boundaries"
            )
        return {
            "population": self.population,
            "shard_size": self.shard_size,
            "seed": self.seed,
            "shards": sorted(self._shards),
            "partition": self.partition.describe(),
        }

    def state_arrays(self) -> Dict[str, List[np.ndarray]]:
        """Materialized shards as the row blocks of whole-store columns.

        ``rng`` / ``live`` / ``stats`` each map to a leading zero-row
        block (an untouched store still has columns) and then every
        materialized shard's array, in shard-id order; :meth:`manifest`
        lists the ids.  The blocks are the shards' own arrays, not
        copies: :func:`~repro.ckpt.format.write_checkpoint` streams each
        column into one member without concatenating it, so a save
        costs no second copy of the store.  ``np.concatenate`` of a
        column is what :meth:`load_state` takes back.
        """
        if self._outstanding:
            raise RuntimeError(
                f"{len(self._outstanding)} views are checked out; the "
                "store only snapshots at round boundaries"
            )
        shards = [_Shard(0)] + [self._shards[s] for s in sorted(self._shards)]
        return {
            name: [getattr(shard, name) for shard in shards]
            for name in ("rng", "live", "stats")
        }

    def load_state(
        self, manifest: Dict[str, Any], arrays: Dict[str, np.ndarray]
    ) -> None:
        """Restore a :meth:`manifest` + :meth:`state_arrays` snapshot."""
        # Older snapshots carry the keys of the removed per-client
        # feedback-sign column; one that never used it restores as is.
        if manifest.get("track_feedback") or manifest.get("feedback_shards"):
            raise ValueError(
                "store snapshot was written with track_feedback=True; the "
                "feedback-sign column was removed and cannot be restored"
            )
        for field in ("population", "shard_size", "seed"):
            if manifest[field] != getattr(self, field):
                raise ValueError(
                    f"store snapshot has {field}={manifest[field]!r}, "
                    f"this store has {getattr(self, field)!r}"
                )
        if manifest["partition"] != self.partition.describe():
            raise ValueError(
                f"store snapshot partition {manifest['partition']!r} does "
                f"not match {self.partition.describe()!r}"
            )
        rows = {int(s): self._shard_rows(int(s)) for s in manifest["shards"]}
        total = sum(rows.values())
        rng = np.asarray(arrays["rng"], dtype=np.uint64)
        live = np.asarray(arrays["live"], dtype=bool)
        stats = np.asarray(arrays["stats"], dtype=np.int64)
        if (
            rng.shape != (total, 6)
            or live.shape != (total,)
            or stats.shape != (total, 3)
        ):
            raise ValueError(
                f"store columns have the wrong shape for the {total} rows "
                f"of shards {list(rows)}"
            )
        self._shards = {}
        start = 0
        for shard_id, n_rows in rows.items():
            shard = _Shard(n_rows)
            shard.rng[...] = rng[start : start + n_rows]
            shard.live[...] = live[start : start + n_rows]
            shard.stats[...] = stats[start : start + n_rows]
            start += n_rows
            self._shards[shard_id] = shard

    def __repr__(self) -> str:
        return (
            f"ClientStateStore(population={self.population}, "
            f"shard_size={self.shard_size}, "
            f"materialized={self.materialized_shards})"
        )

"""The ``repro-ckpt/v2`` checkpoint container format.

A checkpoint is a single zip file (suffix ``.ckpt``) holding:

* ``manifest.json`` — the run-state manifest: schema tag, iteration,
  every JSON-serialisable piece of state, an index of the array
  members, and a ``members`` table with the SHA-256 digest and byte
  length of every other member;
* ``arrays/<key>.npy`` — one ``.npy`` payload per numpy array
  (global parameters, feedback history, optimizer slots, the ledger's
  per-client tables, store columns);
* text members such as ``history.jsonl`` (the serialised RunHistory).

The bytes are deterministic: members are written in sorted order with
a fixed timestamp, so the same run state always produces the same
file — which is what lets tests compare checkpoints bitwise and lets
``python -m repro.ckpt diff`` explain any divergence.

Writes are atomic (temp file + fsync + rename via
:mod:`repro.utils.atomic_io`): a crash mid-save leaves either the
previous checkpoint or none, never a torn file.  Reads verify every
member against the manifest digests by default and raise
:class:`CheckpointError` naming the offending member.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.utils.atomic_io import atomic_write

__all__ = [
    "CKPT_SCHEMA",
    "CKPT_SUFFIX",
    "Checkpoint",
    "CheckpointError",
    "MANIFEST_MEMBER",
    "checkpoint_paths",
    "latest_checkpoint",
    "read_checkpoint",
    "verify_checkpoint",
    "write_checkpoint",
]

#: Schema tag stored in every manifest; bump on incompatible changes.
#: v2 moved the ledger's per-client tables out of the manifest into
#: array members; v1 files are refused by the schema check.
CKPT_SCHEMA = "repro-ckpt/v2"

#: File suffix of checkpoint containers.
CKPT_SUFFIX = ".ckpt"

#: Name of the manifest member inside the container.
MANIFEST_MEMBER = "manifest.json"

#: Fixed zip timestamp so identical state produces identical bytes.
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)

#: Deflate level of every member.  The payload is dominated by RNG
#: rows, which are incompressible: on the 100k-client soak level 6
#: spent 2.3x the time of level 1 to save 5 % of the bytes.
_DEFLATE_LEVEL = 1


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read or verified."""


@dataclass
class Checkpoint:
    """A fully read (and, by default, digest-verified) checkpoint."""

    path: Optional[Path]
    manifest: Dict[str, Any]
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    texts: Dict[str, str] = field(default_factory=dict)

    @property
    def iteration(self) -> int:
        """The number of completed rounds this checkpoint captures."""
        return int(self.manifest["iteration"])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def _npy_load(data: bytes, member: str) -> np.ndarray:
    try:
        return np.load(io.BytesIO(data), allow_pickle=False)
    except ValueError as exc:
        raise CheckpointError(
            f"member {member!r} is not a valid .npy payload: {exc}"
        ) from exc


def _array_member(key: str) -> str:
    return f"arrays/{key}.npy"


def write_checkpoint(
    path: Union[str, Path],
    manifest: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    texts: Optional[Dict[str, str]] = None,
) -> int:
    """Write a ``repro-ckpt/v2`` container; returns its size in bytes.

    ``manifest`` is extended in place with the ``schema`` tag, the
    ``arrays`` index and the per-member digest table before being
    serialised.  The whole container lands atomically.
    """
    target = Path(path)
    members: Dict[str, bytes] = {}
    array_index: Dict[str, Dict[str, Any]] = {}
    for key in sorted(arrays):
        member = _array_member(key)
        data = np.ascontiguousarray(arrays[key])
        members[member] = _npy_bytes(data)
        array_index[key] = {
            "member": member,
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    for name in sorted(texts or {}):
        if name == MANIFEST_MEMBER or name in members:
            raise CheckpointError(f"duplicate checkpoint member {name!r}")
        members[name] = (texts or {})[name].encode("utf-8")

    manifest["schema"] = CKPT_SCHEMA
    manifest["arrays"] = array_index
    manifest["members"] = {
        name: {"sha256": _sha256(data), "bytes": len(data)}
        for name, data in sorted(members.items())
    }
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, indent=2, default=_json_default
    ).encode("utf-8")

    with atomic_write(target, "wb") as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED) as zf:
            _write_member(zf, MANIFEST_MEMBER, manifest_bytes)
            for name in sorted(members):
                _write_member(zf, name, members[name])
    return target.stat().st_size


def _write_member(zf: zipfile.ZipFile, name: str, data: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    zf.writestr(info, data, compresslevel=_DEFLATE_LEVEL)


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars; anything else is a manifest-construction bug."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def read_checkpoint(
    path: Union[str, Path], verify: bool = True
) -> Checkpoint:
    """Read (and by default digest-verify) a checkpoint container.

    Raises :class:`CheckpointError` on a truncated/corrupt zip, a
    missing member, a digest or length mismatch (naming the member and
    both digests), or a schema the reader does not understand.
    """
    source = Path(path)
    try:
        zf = zipfile.ZipFile(source)
    except (zipfile.BadZipFile, OSError) as exc:
        raise CheckpointError(
            f"{source} is not a readable checkpoint "
            f"(truncated or corrupt): {exc}"
        ) from exc
    with zf:
        manifest = _read_manifest(zf, source)
        members: Dict[str, bytes] = {}
        for name, expected in manifest["members"].items():
            try:
                data = zf.read(name)
            except KeyError as exc:
                raise CheckpointError(
                    f"{source} is missing member {name!r}"
                ) from exc
            except zipfile.BadZipFile as exc:
                raise CheckpointError(
                    f"member {name!r} of {source} is corrupt: {exc}"
                ) from exc
            if verify:
                _verify_member(source, name, data, expected)
            members[name] = data
    arrays = {
        key: _npy_load(members[entry["member"]], entry["member"])
        for key, entry in manifest["arrays"].items()
    }
    array_members = {entry["member"] for entry in manifest["arrays"].values()}
    texts = {
        name: data.decode("utf-8")
        for name, data in members.items()
        if name not in array_members
    }
    return Checkpoint(path=source, manifest=manifest, arrays=arrays, texts=texts)


def _read_manifest(zf: zipfile.ZipFile, source: Path) -> Dict[str, Any]:
    try:
        raw = zf.read(MANIFEST_MEMBER)
    except KeyError as exc:
        raise CheckpointError(
            f"{source} has no {MANIFEST_MEMBER!r} member; not a "
            f"{CKPT_SCHEMA} checkpoint"
        ) from exc
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"member {MANIFEST_MEMBER!r} of {source} is corrupt: {exc}"
        ) from exc
    schema = manifest.get("schema")
    if schema != CKPT_SCHEMA:
        raise CheckpointError(
            f"{source} has schema {schema!r}; this reader understands "
            f"{CKPT_SCHEMA!r}"
        )
    return manifest


def _verify_member(
    source: Path, name: str, data: bytes, expected: Dict[str, Any]
) -> None:
    if len(data) != int(expected["bytes"]):
        raise CheckpointError(
            f"member {name!r} of {source} is {len(data)} bytes, manifest "
            f"says {expected['bytes']}"
        )
    actual = _sha256(data)
    if actual != expected["sha256"]:
        raise CheckpointError(
            f"member {name!r} of {source} fails digest verification: "
            f"expected sha256 {expected['sha256']}, got {actual}"
        )


def verify_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Fully read + digest-check a checkpoint; returns its manifest."""
    return read_checkpoint(path, verify=True).manifest


def checkpoint_paths(
    directory: Union[str, Path], prefix: str = "ckpt"
) -> List[Path]:
    """All ``<prefix>-*.ckpt`` files in ``directory``, oldest first.

    The zero-padded iteration number in the filename makes
    lexicographic order chronological order.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"{prefix}-*{CKPT_SUFFIX}"))


def latest_checkpoint(
    directory: Union[str, Path], prefix: str = "ckpt"
) -> Optional[Path]:
    """The newest checkpoint in ``directory``, or None."""
    paths = checkpoint_paths(directory, prefix=prefix)
    return paths[-1] if paths else None

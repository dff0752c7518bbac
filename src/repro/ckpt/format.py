"""The ``repro-ckpt/v4`` checkpoint container format.

A checkpoint is a single zip file (suffix ``.ckpt``) holding:

* ``manifest.json`` — the run-state manifest: schema tag, iteration,
  every JSON-serialisable piece of state, an index of the array
  members, and a ``members`` table with the SHA-256 digest and byte
  length of every other member;
* ``arrays/<key>.npy`` — one ``.npy`` payload per numpy array
  (global parameters, feedback history, the ledger's per-client
  tables, store columns);
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

Members stream in ``_CHUNK_BYTES`` pieces both ways: a save hashes and
deflates an array (or a store column given as its shards' row blocks)
without building its ``.npy`` bytes, a read decodes each array as it
streams out, and :func:`verify_checkpoint` hashes without decoding.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

import numpy as np
from numpy.lib import format as npformat

from repro.utils.atomic_io import atomic_write

__all__ = [
    "ArrayMember",
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
#: array members; v3 dropped the optimizer slot state (a v2 file may
#: carry momentum velocity no reader restores); v4 made the async
#: engine's dispatch spacing and straggler spread constants (a v3 file
#: may have been written on a timeline this engine cannot draw, which
#: a comparison of the surviving knobs would not notice).  Older files
#: are refused by the schema check.
CKPT_SCHEMA = "repro-ckpt/v4"

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


#: Bytes of one member moved per hash update, zip write or read: a save
#: or a verify holds this much of a payload at a time, not the member.
_CHUNK_BYTES = 1 << 18

#: An array member: one array, or its blocks of rows in order (a list or
#: tuple), which land in the file as if concatenated.
ArrayMember = Union[np.ndarray, Sequence[np.ndarray]]


def _array_member(key: str) -> str:
    return f"arrays/{key}.npy"


def _npy_payload(
    key: str, value: ArrayMember
) -> Tuple[bytes, List[np.ndarray], np.dtype, Tuple[int, ...]]:
    """(``.npy`` header, C-contiguous blocks, dtype, shape) of a member.

    The header is the one ``np.save`` writes for the concatenated
    array, so the streamed payload is that file byte for byte.
    """
    if isinstance(value, (list, tuple)):
        blocks = [np.ascontiguousarray(block) for block in value]
        if not blocks or any(
            block.dtype != blocks[0].dtype
            or block.shape[1:] != blocks[0].shape[1:]
            for block in blocks
        ):
            raise CheckpointError(
                f"array {key!r} must be one or more row blocks of one "
                "dtype and row shape"
            )
        shape = (sum(len(block) for block in blocks),) + blocks[0].shape[1:]
    else:
        blocks = [np.ascontiguousarray(value)]
        shape = blocks[0].shape
    dtype = blocks[0].dtype
    header = io.BytesIO()
    npformat.write_array_header_1_0(
        header,
        {
            "descr": npformat.dtype_to_descr(dtype),
            "fortran_order": False,
            "shape": shape,
        },
    )
    return header.getvalue(), blocks, dtype, shape


def _chunks(head: bytes, blocks: Sequence[np.ndarray]) -> Iterator[Any]:
    """A member's bytes: ``head``, then each block's in ``_CHUNK_BYTES``
    pieces (views, never copies)."""
    yield head
    for block in blocks:
        data = block.reshape(-1).view(np.uint8)
        for start in range(0, len(data), _CHUNK_BYTES):
            yield data[start : start + _CHUNK_BYTES]


def write_checkpoint(
    path: Union[str, Path],
    manifest: Dict[str, Any],
    arrays: Dict[str, ArrayMember],
    texts: Optional[Dict[str, str]] = None,
) -> int:
    """Write a ``repro-ckpt/v4`` container; returns its size in bytes.

    ``manifest`` is extended in place with the ``schema`` tag, the
    ``arrays`` index and the per-member digest table before being
    serialised.  An array member given as row blocks is written as
    their concatenation without ever building it: one pass over the
    blocks fills the digest table, a second streams them into the zip,
    so a save holds one chunk of a member at a time.  The whole
    container lands atomically.
    """
    target = Path(path)
    members: Dict[str, Tuple[bytes, List[np.ndarray]]] = {}
    array_index: Dict[str, Dict[str, Any]] = {}
    for key in sorted(arrays):
        member = _array_member(key)
        header, blocks, dtype, shape = _npy_payload(key, arrays[key])
        members[member] = (header, blocks)
        array_index[key] = {
            "member": member,
            "dtype": str(dtype),
            "shape": list(shape),
        }
    for name in sorted(texts or {}):
        if name == MANIFEST_MEMBER or name in members:
            raise CheckpointError(f"duplicate checkpoint member {name!r}")
        members[name] = ((texts or {})[name].encode("utf-8"), [])

    sizes: Dict[str, int] = {}
    manifest["schema"] = CKPT_SCHEMA
    manifest["arrays"] = array_index
    manifest["members"] = {}
    for name in sorted(members):
        digest = hashlib.sha256()
        sizes[name] = 0
        for chunk in _chunks(*members[name]):
            digest.update(chunk)
            sizes[name] += len(chunk)
        manifest["members"][name] = {
            "sha256": digest.hexdigest(),
            "bytes": sizes[name],
        }
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, indent=2, default=_json_default
    ).encode("utf-8")

    with atomic_write(target, "wb") as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED) as zf:
            _write_member(
                zf, MANIFEST_MEMBER, [manifest_bytes], len(manifest_bytes)
            )
            for name in sorted(members):
                _write_member(zf, name, _chunks(*members[name]), sizes[name])
    return target.stat().st_size


def _write_member(
    zf: zipfile.ZipFile, name: str, chunks: Iterable[Any], size: int
) -> None:
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    # What ``writestr(info, data, compresslevel=...)`` sets before it
    # opens the same stream: the size decides zip64 up front.
    info.file_size = size
    info._compresslevel = _DEFLATE_LEVEL
    with zf.open(info, "w") as dest:
        for chunk in chunks:
            dest.write(chunk)


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars; anything else is a manifest-construction bug."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _open_checkpoint(source: Path) -> zipfile.ZipFile:
    try:
        return zipfile.ZipFile(source)
    except (zipfile.BadZipFile, OSError) as exc:
        raise CheckpointError(
            f"{source} is not a readable checkpoint "
            f"(truncated or corrupt): {exc}"
        ) from exc


def read_checkpoint(
    path: Union[str, Path], verify: bool = True
) -> Checkpoint:
    """Read (and by default digest-verify) a checkpoint container.

    Each array member is decoded as it streams out of the zip, so a
    read holds the decoded arrays and a few chunks, never a member's
    raw bytes beside its array.  Raises :class:`CheckpointError` on a
    truncated/corrupt zip, a missing member, a digest or length
    mismatch (naming the member and both digests), or a schema the
    reader does not understand.
    """
    source = Path(path)
    arrays: Dict[str, np.ndarray] = {}
    texts: Dict[str, str] = {}
    with _open_checkpoint(source) as zf:
        manifest = _read_manifest(zf, source)
        array_keys = {
            entry["member"]: key for key, entry in manifest["arrays"].items()
        }
        for name, expected in manifest["members"].items():
            if name in array_keys:
                arrays[array_keys[name]] = _read_member(
                    zf, source, name, expected, verify, _parse_npy
                )
            else:
                texts[name] = _read_member(
                    zf, source, name, expected, verify, _parse_text
                )
    return Checkpoint(path=source, manifest=manifest, arrays=arrays, texts=texts)


def _parse_npy(reader: "_HashingReader") -> np.ndarray:
    return npformat.read_array(reader, allow_pickle=False)


def _parse_text(reader: "_HashingReader") -> str:
    return reader.read().decode("utf-8")


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


class _HashingReader:
    """A member's decompressed stream that hashes and counts every
    byte read through it."""

    def __init__(self, raw: Any) -> None:
        self._raw = raw
        self.digest = hashlib.sha256()
        self.nbytes = 0

    def read(self, size: int = -1) -> bytes:
        data = self._raw.read(size)
        self.digest.update(data)
        self.nbytes += len(data)
        return data


def _read_member(
    zf: zipfile.ZipFile,
    source: Path,
    name: str,
    expected: Dict[str, Any],
    verify: bool = True,
    parse: Optional[Callable[[_HashingReader], Any]] = None,
) -> Any:
    """Stream member ``name`` through ``parse`` while hashing it.

    The one per-member check of :func:`read_checkpoint` and
    :func:`verify_checkpoint`.  ``parse`` reads what it needs from the
    member and returns the decoded value; the rest is drained in
    chunks, so the length and digest cover every byte.  A digest
    mismatch is reported before a decode failure: a
    corrupt member often fails to decode too, and the digest is the
    finding.
    """
    failure: Optional[ValueError] = None
    value = None
    try:
        with zf.open(name) as raw:
            reader = _HashingReader(raw)
            if parse is not None:
                try:
                    value = parse(reader)
                except ValueError as exc:
                    failure = exc
            while reader.read(_CHUNK_BYTES):
                pass
    except KeyError as exc:
        raise CheckpointError(f"{source} is missing member {name!r}") from exc
    except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
        raise CheckpointError(
            f"member {name!r} of {source} is corrupt: {exc}"
        ) from exc
    if verify:
        if reader.nbytes != int(expected["bytes"]):
            raise CheckpointError(
                f"member {name!r} of {source} is {reader.nbytes} bytes, "
                f"manifest says {expected['bytes']}"
            )
        actual = reader.digest.hexdigest()
        if actual != expected["sha256"]:
            raise CheckpointError(
                f"member {name!r} of {source} fails digest verification: "
                f"expected sha256 {expected['sha256']}, got {actual}"
            )
    if failure is not None:
        raise CheckpointError(
            f"member {name!r} of {source} cannot be decoded: {failure}"
        ) from failure
    return value


def verify_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Digest-check every member of a checkpoint; returns its manifest.

    Members are hashed while they stream out of the zip and nothing
    is decoded, so a verify holds a few chunks, whatever the file size.
    """
    source = Path(path)
    with _open_checkpoint(source) as zf:
        manifest = _read_manifest(zf, source)
        for name, expected in manifest["members"].items():
            _read_member(zf, source, name, expected)
    return manifest


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

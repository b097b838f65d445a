"""One way to persist an artifact: integrity-checked ``.npz`` and atomic JSON.

Every array artifact the pipeline hands from stage to stage — pools,
trainer checkpoints, agent parameters, distilled trees, ECN models, server
snapshots, queue traces — is written by :func:`write_npz` and read back by
:func:`read_npz`; every JSON record is written by :func:`write_json`. The
container format, the integrity check, the atomic replace and the mapping
of container failures to one exception type live here and nowhere else.

Integrity record
----------------
The archive carries one extra member, :data:`INTEGRITY_KEY`: a CRC-32 over
every other member's name, dtype, shape and bytes, taken in sorted-name
order. The zip format's per-member CRC covers member bytes only, so a
flipped byte in the central directory can rename or hide a member and the
archive still opens; the record covers names too, so such an archive is
refused instead of a loader silently falling back to an optional key's
default. Because the record lives inside the archive, the single
tmp-then-``os.replace`` commits data and checksum together: there is no
sidecar file and no window in which a valid archive sits beside a stale
checksum.

Integrity is mandatory: :func:`read_npz` refuses an archive without the
record. (The datastore's raw ``.npy`` shards are a separate format, with
their CRCs in the store manifest.)
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

__all__ = ["INTEGRITY_KEY", "read_npz", "write_json", "write_npz"]

#: archive member holding the CRC-32 record; reserved, never a payload key
INTEGRITY_KEY = "__integrity__"


def _record(arrays: Mapping[str, np.ndarray]) -> np.ndarray:
    """CRC-32 over (name, dtype, shape, bytes) of every array, name-sorted."""
    crc = 0
    for name in sorted(arrays):
        arr = arrays[name]
        header = f"{name}\0{arr.dtype.str}\0{arr.shape}\0".encode("utf-8")
        crc = zlib.crc32(header, crc)
        crc = zlib.crc32(arr.tobytes(), crc)
    return np.array([crc], dtype=np.uint32)


def write_npz(path, arrays: Mapping[str, np.ndarray]) -> Path:
    """Atomically write ``arrays`` as a compressed ``.npz`` with its record.

    The archive goes to ``<path>.tmp`` and is ``os.replace``d into place,
    so ``path`` always holds either the complete old or the complete new
    archive. The file is written through a handle because ``np.savez``
    appends ``.npz`` to bare paths. Returns ``path``.
    """
    if INTEGRITY_KEY in arrays:
        raise ValueError(f"{INTEGRITY_KEY!r} is reserved for the integrity record")
    path = Path(path)
    payload = {name: np.asanyarray(arr) for name, arr in arrays.items()}
    payload[INTEGRITY_KEY] = _record(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **payload)
    os.replace(tmp, path)
    return path


def read_npz(
    path,
    *,
    what: str,
    required: Sequence[str] = (),
    schema_version: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Read and verify a :func:`write_npz` archive; return its arrays.

    ``what`` names the artifact in error messages. Every member is read
    and the integrity record recomputed; a container that cannot be parsed,
    lacks the record, or does not match it raises one ``ValueError`` naming
    the artifact and the file and containing "integrity". ``required`` keys
    must be present, and when ``schema_version`` is given the archive's
    ``meta/schema_version`` must equal it (both also ``ValueError``). A
    missing or unreadable file raises the ``OSError`` of opening it.
    """
    path = Path(path)

    def refuse(detail: str) -> ValueError:
        return ValueError(
            f"{what} {path} fails its integrity check ({detail}); the file "
            f"is corrupt or truncated — regenerate it"
        )

    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as data:
                n_members = len(data.files)
                arrays = {name: data[name] for name in data.files}
        # np.load and zipfile raise a long, version-dependent tail of types
        # on bad bytes (BadZipFile, zlib.error, NotImplementedError,
        # KeyError, EOFError, OSError, struct.error, tokenize.TokenError,
        # SyntaxError, ...): every one of them means "not this artifact".
        except Exception as exc:  # noqa: BLE001
            raise refuse(
                f"not a valid .npz archive: {type(exc).__name__}: {exc}"
            ) from exc
    record = arrays.pop(INTEGRITY_KEY, None)
    if record is None:
        raise refuse("no integrity record")
    expected = _record(arrays)
    if (
        len(arrays) + 1 != n_members
        or record.dtype != expected.dtype
        or record.tobytes() != expected.tobytes()
    ):
        raise refuse("integrity record does not match the archive members")
    if schema_version is not None:
        required = (*required, "meta/schema_version")
    missing = [key for key in required if key not in arrays]
    if missing:
        raise ValueError(f"{what} {path} is missing keys {missing}")
    if schema_version is not None:
        version = int(arrays["meta/schema_version"][0])
        if version != schema_version:
            raise ValueError(
                f"{what} {path} has schema version {version}; this build "
                f"reads version {schema_version}"
            )
    return arrays


def write_json(path, obj) -> None:
    """Atomically write ``obj`` as indented JSON (tmp-then-``os.replace``).

    A process killed at any instant leaves ``path`` holding the old or the
    new file, never a torn one. No fsync: the datastore manifest is
    rewritten after every shard.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=1) + "\n")
    os.replace(tmp, path)

"""The manifest: a sharded store's index and integrity record.

A store directory looks like::

    shards/
      manifest.json              <- this module
      shard-00000.states.npy     <- (rows, state_dim) concatenated states
      shard-00000.actions.npy    <- (rows,)
      shard-00000.rewards.npy    <- (rows,)
      shard-00001.states.npy
      ...
      quarantine/                <- corrupt shards moved here by verify()

``manifest.json`` indexes every trajectory — scheme, env_id, multi_flow,
length, which shard holds it and at what row offset — plus a per-file
CRC32 for every shard component, so a store can be audited without numpy
parsing anything. Integrity failures are handled at shard granularity:
:func:`verify_store` moves a corrupt shard (and drops its trajectories)
into ``quarantine/`` instead of declaring the whole pool lost.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.io import write_json

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
QUARANTINE_DIR = "quarantine"

#: the three arrays every shard is made of
SHARD_PARTS = ("states", "actions", "rewards")


def file_crc32(path: Path, chunk_bytes: int = 1 << 20) -> int:
    """CRC32 of a file's raw bytes, streamed in bounded chunks."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


@dataclass
class ShardFile:
    """One component array file of a shard."""

    file: str
    crc32: int
    bytes: int

    def to_json(self) -> Dict:
        return {"file": self.file, "crc32": self.crc32, "bytes": self.bytes}

    @classmethod
    def from_json(cls, d: Dict) -> "ShardFile":
        return cls(file=str(d["file"]), crc32=int(d["crc32"]), bytes=int(d["bytes"]))


@dataclass
class ShardRecord:
    """One shard: a fixed-size slab of concatenated trajectories."""

    name: str
    rows: int
    n_trajectories: int
    files: Dict[str, ShardFile]

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "rows": self.rows,
            "n_trajectories": self.n_trajectories,
            "files": {k: v.to_json() for k, v in self.files.items()},
        }

    @classmethod
    def from_json(cls, d: Dict) -> "ShardRecord":
        return cls(
            name=str(d["name"]),
            rows=int(d["rows"]),
            n_trajectories=int(d["n_trajectories"]),
            files={k: ShardFile.from_json(v) for k, v in d["files"].items()},
        )


@dataclass
class TrajectoryRecord:
    """Where one trajectory lives and what produced it."""

    scheme: str
    env_id: str
    multi_flow: bool
    length: int
    shard: int  # index into Manifest.shards
    offset: int  # first row within the shard's arrays

    def to_json(self) -> Dict:
        return {
            "scheme": self.scheme,
            "env_id": self.env_id,
            "multi_flow": self.multi_flow,
            "length": self.length,
            "shard": self.shard,
            "offset": self.offset,
        }

    @classmethod
    def from_json(cls, d: Dict) -> "TrajectoryRecord":
        return cls(
            scheme=str(d["scheme"]),
            env_id=str(d["env_id"]),
            multi_flow=bool(d["multi_flow"]),
            length=int(d["length"]),
            shard=int(d["shard"]),
            offset=int(d["offset"]),
        )


@dataclass
class Manifest:
    """The JSON-serializable index of a sharded trajectory store."""

    state_dim: int
    dtypes: Dict[str, str] = field(
        default_factory=lambda: {p: "float64" for p in SHARD_PARTS}
    )
    shards: List[ShardRecord] = field(default_factory=list)
    trajectories: List[TrajectoryRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    @property
    def n_transitions(self) -> int:
        return sum(t.length for t in self.trajectories)

    def validate(self) -> None:
        """Internal-consistency check: every record points inside its shard."""
        for i, t in enumerate(self.trajectories):
            if not 0 <= t.shard < len(self.shards):
                raise ValueError(
                    f"trajectory {i} references missing shard {t.shard}"
                )
            shard = self.shards[t.shard]
            if t.length < 1:
                raise ValueError(f"trajectory {i} has zero length")
            if t.offset < 0 or t.offset + t.length > shard.rows:
                raise ValueError(
                    f"trajectory {i} spans [{t.offset}, {t.offset + t.length}) "
                    f"outside shard {shard.name!r} with {shard.rows} rows"
                )

    # ------------------------------------------------------------------
    def to_json(self) -> Dict:
        return {
            "schema_version": self.schema_version,
            "state_dim": self.state_dim,
            "dtypes": dict(self.dtypes),
            "shards": [s.to_json() for s in self.shards],
            "trajectories": [t.to_json() for t in self.trajectories],
        }

    def save(self, root) -> None:
        """Atomically (re)write ``root/manifest.json``."""
        write_json(Path(root) / MANIFEST_NAME, self.to_json())

    @classmethod
    def load(cls, root) -> "Manifest":
        root = Path(root)
        path = root / MANIFEST_NAME if root.is_dir() else root
        if not path.exists():
            raise FileNotFoundError(
                f"no {MANIFEST_NAME} in {path.parent} — not a trajectory store "
                "(use `repro pool pack` to convert a legacy .npz pool)"
            )
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt manifest {path}: {exc}") from exc
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"manifest {path} has schema version {version!r}; this build "
                f"reads version {SCHEMA_VERSION}"
            )
        manifest = cls(
            state_dim=int(data["state_dim"]),
            dtypes={k: str(v) for k, v in data["dtypes"].items()},
            shards=[ShardRecord.from_json(s) for s in data["shards"]],
            trajectories=[
                TrajectoryRecord.from_json(t) for t in data["trajectories"]
            ],
            schema_version=int(version),
        )
        manifest.validate()
        return manifest


# --------------------------------------------------------------------------
# Integrity audit
# --------------------------------------------------------------------------


@dataclass
class ShardProblem:
    """Why one shard failed verification."""

    name: str
    reason: str


@dataclass
class VerifyReport:
    """Outcome of a store audit."""

    n_shards: int
    n_trajectories: int
    n_transitions: int
    ok_shards: List[str] = field(default_factory=list)
    corrupt: List[ShardProblem] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    dropped_trajectories: int = 0
    #: orphaned ``*.tmp`` files (a mid-flush crash's litter) found in the
    #: store root; deleted when the audit runs with ``quarantine=True``
    tmp_orphans: List[str] = field(default_factory=list)
    tmp_removed: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def format(self) -> str:
        lines = [
            f"verified {self.n_shards} shards, {self.n_trajectories} "
            f"trajectories, {self.n_transitions} transitions"
        ]
        if self.clean:
            lines.append("all shard checksums OK")
        for p in self.corrupt:
            lines.append(f"CORRUPT shard {p.name}: {p.reason}")
        if self.quarantined:
            lines.append(
                f"quarantined {len(self.quarantined)} shard(s) "
                f"({self.dropped_trajectories} trajectories dropped) -> "
                f"{QUARANTINE_DIR}/"
            )
        if self.tmp_orphans:
            verb = "swept" if self.tmp_removed else "found"
            lines.append(
                f"{verb} {len(self.tmp_orphans)} orphaned .tmp file(s): "
                + ", ".join(self.tmp_orphans)
            )
        return "\n".join(lines)


def check_shard(root: Path, shard: ShardRecord) -> Optional[str]:
    """Return a problem description for ``shard``, or ``None`` if intact."""
    for part in SHARD_PARTS:
        if part not in shard.files:
            return f"manifest lists no {part} file"
        rec = shard.files[part]
        path = Path(root) / rec.file
        if not path.exists():
            return f"missing file {rec.file}"
        size = path.stat().st_size
        if size != rec.bytes:
            return f"{rec.file}: size {size} != recorded {rec.bytes}"
        crc = file_crc32(path)
        if crc != rec.crc32:
            return f"{rec.file}: crc32 {crc:#010x} != recorded {rec.crc32:#010x}"
    return None


def verify_store(root, quarantine: bool = True) -> VerifyReport:
    """Audit every shard of the store at ``root`` against the manifest.

    A shard that fails (missing file, size mismatch, CRC mismatch) is moved
    into ``root/quarantine/`` together with its manifest entries — the rest
    of the pool stays loadable. With ``quarantine=False`` the store is left
    untouched and only the report says what is broken.
    """
    root = Path(root)
    manifest = Manifest.load(root)
    report = VerifyReport(
        n_shards=len(manifest.shards),
        n_trajectories=len(manifest.trajectories),
        n_transitions=manifest.n_transitions,
    )
    # sweep mid-flush litter: a crash between tmp-write and os.replace
    # leaves *.tmp orphans the manifest knows nothing about
    for tmp in sorted(root.glob("*.tmp")):
        report.tmp_orphans.append(tmp.name)
        if quarantine:
            try:
                tmp.unlink()
                report.tmp_removed = True
            except OSError:
                pass
    bad: Dict[int, str] = {}
    for i, shard in enumerate(manifest.shards):
        problem = check_shard(root, shard)
        if problem is None:
            report.ok_shards.append(shard.name)
        else:
            bad[i] = problem
            report.corrupt.append(ShardProblem(name=shard.name, reason=problem))

    if not bad or not quarantine:
        return report

    qdir = root / QUARANTINE_DIR
    qdir.mkdir(exist_ok=True)
    for i in sorted(bad):
        shard = manifest.shards[i]
        for rec in shard.files.values():
            src = root / rec.file
            if src.exists():
                os.replace(src, qdir / Path(rec.file).name)
        report.quarantined.append(shard.name)

    # rebuild the manifest without the quarantined shards, remapping the
    # surviving trajectories onto the new shard indices
    keep = [i for i in range(len(manifest.shards)) if i not in bad]
    remap = {old: new for new, old in enumerate(keep)}
    survivors = [
        TrajectoryRecord(
            scheme=t.scheme, env_id=t.env_id, multi_flow=t.multi_flow,
            length=t.length, shard=remap[t.shard], offset=t.offset,
        )
        for t in manifest.trajectories
        if t.shard in remap
    ]
    report.dropped_trajectories = len(manifest.trajectories) - len(survivors)
    manifest.shards = [manifest.shards[i] for i in keep]
    manifest.trajectories = survivors
    manifest.save(root)
    return report

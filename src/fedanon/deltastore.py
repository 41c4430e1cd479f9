"""Delta log persistence and the vector representation of one delta.

A log directory holds manifest.json (model layout, device table, record
index with byte offsets) next to deltas.bin (magic header followed by
per-record little-endian float32 payloads, layers concatenated in manifest
order). Floats are 32-bit only here, at the persistence boundary; reading
restores float64 arrays whose values are exactly the stored float32 ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import replace_files
from .federated import ROLE_ANONYMOUS, ROLE_SHADOW, DeltaRecord
from .nn import ParamVector

MAGIC = b"DLOG0001"
FORMAT_NAME = "delta-log"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "deltas.bin"


class DeltaStoreError(Exception):
    """Base class for log file problems."""


class CorruptHeaderError(DeltaStoreError):
    """Bad magic bytes, an unusable or non-canonical manifest, payload bytes
    that the record index does not account for, or a non-finite value."""


class ShapeMismatchError(DeltaStoreError):
    """Record layout disagrees with the manifest layout."""


class TruncatedPayloadError(DeltaStoreError):
    """deltas.bin is shorter than the record index requires."""


@dataclass
class DeltaManifest:
    version: int
    layers: list[tuple[str, tuple[int, ...]]]
    rounds: int
    devices: list[tuple[int, int, str, int]]  # (device_id, user_id, role, n_k)
    index: list[tuple[int, int, int]]  # (round_t, device_id, byte offset)

    def record_nbytes(self) -> int:
        return sum(math.prod(shape) * 4 for _, shape in self.layers)

    def to_json(self) -> bytes:
        """The manifest.json bytes the writer emits for this manifest."""
        doc = {
            "format": FORMAT_NAME,
            "version": self.version,
            "rounds": self.rounds,
            "layers": [[n, list(s)] for n, s in self.layers],
            "devices": [[d, u, role, n] for d, u, role, n in self.devices],
            "index": [[t, d, off] for t, d, off in self.index],
        }
        return json.dumps(doc, indent=1).encode()


@dataclass(frozen=True)
class ReprConfig:
    """Which layer becomes the attack feature vector, and whether to L2
    normalize it (zero vectors pass through unchanged)."""

    layer_name: str
    normalize: bool = True


def manifest_for(
    records: Sequence[DeltaRecord],
    layout: Sequence[tuple[str, tuple[int, ...]]],
    rounds: int,
) -> DeltaManifest:
    devices = sorted({(r.device_id, r.user_id, r.role, r.n_k) for r in records})
    return DeltaManifest(
        version=FORMAT_VERSION,
        layers=[(n, tuple(s)) for n, s in layout],
        rounds=rounds,
        devices=devices,
        index=[],  # filled in by write_records
    )


def write_records(path, manifest: DeltaManifest, records: Sequence[DeltaRecord]) -> DeltaManifest:
    """Write manifest.json + deltas.bin into the directory `path`.

    The record index (offsets) is recomputed here; the returned manifest is
    the one that was written. A (round, device) pair may appear only once,
    and every delta value must be finite in float32. Both files are
    serialized in full, written under temporary names and only then renamed
    into place, so a failed write leaves the previous log readable.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    layout = [(n, tuple(s)) for n, s in manifest.layers]
    for _, shape in layout:
        if any(d < 1 for d in shape):
            raise ShapeMismatchError(f"manifest layer shapes must be positive, got {shape}")
    for r in records:
        if r.delta.layout() != layout:
            raise ShapeMismatchError(
                f"record (round {r.round_t}, device {r.device_id}) layout "
                f"{r.delta.layout()} does not match manifest layout {layout}"
            )
    keys = [(r.round_t, r.device_id) for r in records]
    if len(set(keys)) != len(keys):
        raise ValueError("a (round, device) pair appears more than once in the records")
    size = manifest.record_nbytes()
    index = []
    chunks = [MAGIC]
    offset = len(MAGIC)
    for r in records:
        index.append((r.round_t, r.device_id, offset))
        for _, arr in r.delta.layers:
            chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        offset += size

    payload = b"".join(chunks)
    if not np.isfinite(np.frombuffer(payload, dtype="<f4", offset=len(MAGIC))).all():
        raise ValueError("delta values must be finite in float32")

    written = DeltaManifest(
        version=manifest.version,
        layers=layout,
        rounds=manifest.rounds,
        devices=list(manifest.devices),
        index=index,
    )
    replace_files({directory / PAYLOAD_NAME: payload, directory / MANIFEST_NAME: written.to_json()})
    return written


def read_records(path) -> tuple[DeltaManifest, list[DeltaRecord]]:
    """Load a log directory back into memory, validating header, shapes and
    payload length with distinct errors for each failure mode.

    The layer names must be distinct and the device table must list each
    device once, with a known role and n_k >= 1; every indexed record must
    fall in rounds [1, rounds], name a (round, device) pair no other record
    names and sit at its slot on the record grid, the payload must end
    after the last record and hold only finite values, and manifest.json
    must be byte for byte the JSON the writer emits for its contents. So
    every log this returns is rewritten byte-identically."""
    directory = Path(path)
    try:
        raw = (directory / MANIFEST_NAME).read_bytes()
        doc = json.loads(raw.decode("utf-8"))
    except (OSError, ValueError) as err:
        raise CorruptHeaderError(f"unreadable manifest: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise CorruptHeaderError(f"not a {FORMAT_NAME} manifest")
    if doc.get("version") != FORMAT_VERSION:
        raise CorruptHeaderError(f"unsupported log version {doc.get('version')!r}")
    try:
        manifest = DeltaManifest(
            version=int(doc["version"]),
            layers=[(str(n), tuple(int(d) for d in s)) for n, s in doc["layers"]],
            rounds=int(doc["rounds"]),
            devices=[(int(d), int(u), str(role), int(n)) for d, u, role, n in doc["devices"]],
            index=[(int(t), int(d), int(off)) for t, d, off in doc["index"]],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CorruptHeaderError(f"malformed manifest: {err}") from err
    for _, shape in manifest.layers:
        if any(d < 1 for d in shape):
            raise ShapeMismatchError(f"manifest layer shapes must be positive, got {shape}")
    names = [name for name, _ in manifest.layers]
    if len(set(names)) != len(names):
        raise CorruptHeaderError(f"manifest lists a layer name more than once: {names}")

    by_device = {d: (u, role, n) for d, u, role, n in manifest.devices}
    if len(by_device) != len(manifest.devices):
        raise CorruptHeaderError("device table lists a device id more than once")
    for d, _, role, n_k in manifest.devices:
        if role not in (ROLE_ANONYMOUS, ROLE_SHADOW):
            raise CorruptHeaderError(f"device {d} has unknown role {role!r}")
        if n_k < 1:
            raise CorruptHeaderError(f"device {d} has n_k {n_k}, expected >= 1")

    payload = (directory / PAYLOAD_NAME).read_bytes()
    if payload[: len(MAGIC)] != MAGIC:
        raise CorruptHeaderError("wrong magic bytes in deltas.bin")
    size = manifest.record_nbytes()
    expected = len(MAGIC) + len(manifest.index) * size
    if len(payload) > expected:
        raise CorruptHeaderError(
            f"deltas.bin has {len(payload) - expected} bytes past the last indexed record"
        )
    records: list[DeltaRecord] = []
    seen: set[tuple[int, int]] = set()
    for i, (round_t, device_id, offset) in enumerate(manifest.index):
        if offset != len(MAGIC) + i * size:
            raise CorruptHeaderError(
                f"record {i} sits at offset {offset}, expected {len(MAGIC) + i * size}"
            )
        if not 1 <= round_t <= manifest.rounds:
            raise CorruptHeaderError(f"record {i} has round {round_t} outside [1, {manifest.rounds}]")
        if offset + size > len(payload):
            raise TruncatedPayloadError(
                f"record (round {round_t}, device {device_id}) needs bytes "
                f"[{offset}, {offset + size}) but the payload has {len(payload)}"
            )
        if device_id not in by_device:
            raise CorruptHeaderError(f"record references unknown device {device_id}")
        if (round_t, device_id) in seen:
            raise CorruptHeaderError(
                f"device {device_id} has more than one record in round {round_t}"
            )
        seen.add((round_t, device_id))
        user_id, role, n_k = by_device[device_id]
        flat = np.frombuffer(payload, dtype="<f4", count=size // 4, offset=offset)
        if not np.isfinite(flat).all():
            raise CorruptHeaderError(
                f"record (round {round_t}, device {device_id}) holds non-finite values"
            )
        layers, pos = [], 0
        for name, shape in manifest.layers:
            count = math.prod(shape)
            layers.append((name, flat[pos : pos + count].astype(np.float64).reshape(shape)))
            pos += count
        records.append(
            DeltaRecord(
                round_t=round_t,
                device_id=device_id,
                user_id=user_id,
                role=role,
                delta=ParamVector(layers),
                n_k=n_k,
            )
        )
    if raw != manifest.to_json():
        raise CorruptHeaderError("manifest.json is not in the form the writer emits")
    return manifest, records


def represent_delta(record: DeltaRecord, cfg: ReprConfig) -> np.ndarray:
    """Select one layer, flatten row-major, optionally L2 normalize."""
    vec = record.delta.get(cfg.layer_name).ravel(order="C").astype(np.float64)
    if cfg.normalize:
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec = vec / norm
    return vec

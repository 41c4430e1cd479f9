"""The delta log, in memory and on disk.

In memory a log is a `DeltaLog`: one row per logged delta, its round,
device, user, role and n_k as columns, and the deltas as one (R, P)
float64 matrix whose columns are the model's layers in layout order. On
disk it is a directory holding manifest.json (model layout, device table,
record index with byte offsets) next to deltas.bin (magic header followed
by that same matrix as row-major little-endian float32). Floats are 32-bit
only here, at the persistence boundary; reading restores float64 values
that are exactly the stored float32 ones.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .atomic import replace_files

MAGIC = b"DLOG0001"
FORMAT_NAME = "delta-log"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "deltas.bin"

ROLE_ANONYMOUS = "anonymous"
ROLE_SHADOW = "shadow_prior"
# the roles in device id order (see `federated.build_devices`)
ROLES = (ROLE_ANONYMOUS, ROLE_SHADOW)


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
class ParamVector:
    """One logged delta's (name, array) layers in layout order: the form a
    `DeltaRecord` carries. A model's parameters are a plain dict instead
    (`nn.Params`)."""

    layers: list[tuple[str, np.ndarray]]


@dataclass
class DeltaRecord:
    """One row of a `DeltaLog`; its layers are views into the log's matrix."""

    round_t: int
    device_id: int
    user_id: int
    role: str
    delta: ParamVector
    n_k: int


@dataclass
class DeltaLog:
    """Row i is the delta that device `device[i]` (of user `user[i]`, in
    role `role[i]`, holding `n_k[i]` examples) sent in round `round[i]` of
    a run of `rounds` rounds, flattened into row i of `deltas` with its
    layers in `layout` order. A layer is a column slice of `deltas`."""

    round: np.ndarray  # (R,) int64
    device: np.ndarray  # (R,) int64
    user: np.ndarray  # (R,) int64
    role: np.ndarray  # (R,) str
    n_k: np.ndarray  # (R,) int64
    layout: list[tuple[str, tuple[int, ...]]]
    rounds: int
    deltas: np.ndarray  # (R, P) float64

    @classmethod
    def empty(cls, rows: int, layout: list[tuple[str, tuple[int, ...]]], rounds: int) -> "DeltaLog":
        """A log of `rows` rows to be filled in."""
        round_t, device, user, n_k = np.zeros((4, rows), dtype=np.int64)
        role = np.zeros(rows, dtype=f"U{max(map(len, ROLES))}")
        return cls(round_t, device, user, role, n_k, layout, rounds, np.empty((rows, _width(layout))))

    def block(self, lo: int, hi: int) -> "DeltaLog":
        """Rows [lo, hi) as a log of views: filling it fills this log."""
        return DeltaLog(self.round[lo:hi], self.device[lo:hi], self.user[lo:hi], self.role[lo:hi],
                        self.n_k[lo:hi], self.layout, self.rounds, self.deltas[lo:hi])

    def __len__(self) -> int:
        return len(self.deltas)

    def columns(self) -> dict[str, slice]:
        """Each layer's column slice of `deltas`, in layout order."""
        ends = itertools.accumulate(math.prod(shape) for _, shape in self.layout)
        return {name: slice(end - math.prod(shape), end) for (name, shape), end in zip(self.layout, ends)}

    def layer(self, name: str) -> np.ndarray:
        """The (R, size) view of layer `name`, each row flattened row-major."""
        return self.deltas[:, self.columns()[name]]

    def __iter__(self) -> Iterator[DeltaRecord]:
        stacks = [(name, self.layer(name).reshape(len(self), *shape)) for name, shape in self.layout]
        columns = (self.round, self.device, self.user, self.role, self.n_k)
        for i, (t, d, u, role, n) in enumerate(zip(*(c.tolist() for c in columns))):
            yield DeltaRecord(t, d, u, role, ParamVector([(name, a[i]) for name, a in stacks]), n)


@dataclass
class DeltaManifest:
    layers: list[tuple[str, tuple[int, ...]]]
    rounds: int
    devices: list[tuple[int, int, str, int]]  # (device_id, user_id, role, n_k)
    index: list[tuple[int, int, int]]  # (round_t, device_id, byte offset)

    def to_json(self) -> bytes:
        """The manifest.json bytes the writer emits for this manifest."""
        doc = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "rounds": self.rounds,
            "layers": [[n, list(s)] for n, s in self.layers],
            "devices": [[d, u, role, n] for d, u, role, n in self.devices],
            "index": [[t, d, off] for t, d, off in self.index],
        }
        return json.dumps(doc, indent=1).encode()


def _width(layout: list[tuple[str, tuple[int, ...]]]) -> int:
    """The length of a delta row of `layout`, whose shapes must be positive."""
    for _, shape in layout:
        if any(d < 1 for d in shape):
            raise ShapeMismatchError(f"manifest layer shapes must be positive, got {shape}")
    return sum(math.prod(shape) for _, shape in layout)


def _manifest(log: DeltaLog) -> tuple[DeltaManifest, np.ndarray]:
    """The manifest and the float32 deltas that the writer writes for `log`,
    with the device table of its columns and row i at the i-th record slot.

    The layer shapes must be positive and `deltas` must hold one row of the
    layout per column entry (else ShapeMismatchError). The layer names must
    be distinct, every round lie in [1, rounds], each (round, device) pair
    appear once, each device keep one user, a known role and n_k >= 1 on
    all its rows, and every value be finite in float32 (else ValueError)."""
    names = [name for name, _ in log.layout]
    if len(set(names)) != len(names):
        raise ValueError(f"manifest lists a layer name more than once: {names}")
    if log.deltas.shape != (len(log.round), _width(log.layout)):
        raise ShapeMismatchError(f"deltas {log.deltas.shape} do not fit the columns and {log.layout}")
    columns = (log.round, log.device, log.user, log.role, log.n_k)
    rows = list(zip(*(c.tolist() for c in columns), strict=True))
    seen: set[tuple[int, int]] = set()
    for round_t, device_id, *_ in rows:
        if not 1 <= round_t <= log.rounds:
            raise ValueError(f"device {device_id} has round {round_t} outside [1, {log.rounds}]")
        if (round_t, device_id) in seen:
            raise ValueError(f"device {device_id} has more than one record in round {round_t}")
        seen.add((round_t, device_id))
    devices = sorted({row[1:] for row in rows})
    if len({d for d, *_ in devices}) != len(devices):
        raise ValueError("a device has more than one (user, role, n_k) in the records")
    for d, _, role, n_k in devices:
        if role not in ROLES:
            raise ValueError(f"device {d} has unknown role {role!r}")
        if n_k < 1:
            raise ValueError(f"device {d} has n_k {n_k}, expected >= 1")
    values = log.deltas.astype("<f4")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        round_t, device_id, *_ = rows[int(np.argmin(finite))]
        raise ValueError(f"record (round {round_t}, device {device_id}) holds non-finite float32 values")
    size = 4 * values.shape[1]
    index = [(t, d, len(MAGIC) + i * size) for i, (t, d, *_) in enumerate(rows)]
    layers = [(n, tuple(s)) for n, s in log.layout]
    return DeltaManifest(layers, log.rounds, devices, index), values


def write_records(path, records: DeltaLog) -> DeltaManifest:
    """Write the log `records` as manifest.json + deltas.bin into the
    directory `path`, and return the manifest written.

    The log must pass every check the reader makes (see `_manifest`), so
    that the reader accepts what is written. Both files are serialized in
    full, written under temporary names and only then renamed into place,
    so a failed write leaves the previous log readable.
    """
    manifest, values = _manifest(records)
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    replace_files({directory / PAYLOAD_NAME: MAGIC + values.tobytes(),
                   directory / MANIFEST_NAME: manifest.to_json()})
    return manifest


def read_records(path) -> tuple[DeltaManifest, DeltaLog]:
    """Load a log directory back into memory, validating header, shapes and
    payload length with distinct errors for each failure mode.

    The payload must end with the last indexed record, every indexed record
    must name a device that the device table lists once, and every id and
    count must fit in int64. The log read must pass every check the writer
    makes (see `_manifest`), and manifest.json must be byte for byte the
    one the writer emits for it, record offsets on the record grid
    included. So every log this returns is rewritten byte-identically."""
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
            layers=[(str(n), tuple(int(d) for d in s)) for n, s in doc["layers"]],
            rounds=int(doc["rounds"]),
            devices=[(int(d), int(u), str(role), int(n)) for d, u, role, n in doc["devices"]],
            index=[(int(t), int(d), int(off)) for t, d, off in doc["index"]],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CorruptHeaderError(f"malformed manifest: {err}") from err
    size = 4 * _width(manifest.layers)
    by_device = {d: (u, role, n) for d, u, role, n in manifest.devices}
    if len(by_device) != len(manifest.devices):
        raise CorruptHeaderError("device table lists a device id more than once")

    payload = (directory / PAYLOAD_NAME).read_bytes()
    if payload[: len(MAGIC)] != MAGIC:
        raise CorruptHeaderError("wrong magic bytes in deltas.bin")
    expected = len(MAGIC) + len(manifest.index) * size
    if len(payload) > expected:
        raise CorruptHeaderError(
            f"deltas.bin has {len(payload) - expected} bytes past the last indexed record"
        )
    if len(payload) < expected:
        raise TruncatedPayloadError(f"deltas.bin has {len(payload)} bytes of the {expected} indexed")
    for _, device_id, _ in manifest.index:
        if device_id not in by_device:
            raise CorruptHeaderError(f"record references unknown device {device_id}")
    rows = [(round_t, device_id, *by_device[device_id]) for round_t, device_id, _ in manifest.index]
    try:
        values = np.frombuffer(payload, dtype="<f4", offset=len(MAGIC)).reshape(len(rows), size // 4)
    except ValueError as err:
        raise ShapeMismatchError(f"layout {manifest.layers} is too large: {err}") from err
    try:
        round_col, device, user, n_k = (np.array([row[k] for row in rows], dtype=np.int64)
                                        for k in (0, 1, 2, 4))
    except OverflowError as err:
        raise CorruptHeaderError(f"manifest value out of the int64 range: {err}") from err
    # float32 until checked: the float64 cast would quieten a signalling NaN
    log = DeltaLog(round_col, device, user, np.array([row[3] for row in rows], dtype=str), n_k,
                   manifest.layers, manifest.rounds, values)
    try:
        written, _ = _manifest(log)
    except ValueError as err:
        raise CorruptHeaderError(str(err)) from err
    if raw != written.to_json():
        raise CorruptHeaderError("manifest.json is not the one the writer emits for its records: "
                                 "a record offset off the record grid, or another table or form")
    log.deltas = values.astype(np.float64)
    return manifest, log

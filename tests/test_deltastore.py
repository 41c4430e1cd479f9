"""Log persistence: float32 round-trips must be exact, rewrites byte
identical, and each corruption mode must raise its own error type."""

import dataclasses
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedanon import deltastore
from fedanon.deltastore import (
    MAGIC,
    CorruptHeaderError,
    ReprConfig,
    ShapeMismatchError,
    TruncatedPayloadError,
    manifest_for,
    read_records,
    represent_delta,
    write_records,
)
from fedanon.federated import ROLE_ANONYMOUS, ROLE_SHADOW, DeltaRecord
from fedanon.nn import ParamVector

from sequential_oracle import flat

LAYOUT = [("W1", (3, 2)), ("W2", (2, 3))]


def make_records(n_rounds=3, n_devices=4, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for t in range(1, n_rounds + 1):
        for d in range(n_devices):
            delta = ParamVector(
                [(name, rng.normal(size=shape)) for name, shape in LAYOUT]
            )
            records.append(
                DeltaRecord(
                    round_t=t,
                    device_id=d,
                    user_id=d % 2,
                    role=ROLE_ANONYMOUS if d < n_devices // 2 else ROLE_SHADOW,
                    delta=delta,
                    n_k=10 + d,
                )
            )
    return records


def write_log(tmp_path, records, rounds=3):
    manifest = manifest_for(records, LAYOUT, rounds=rounds)
    return write_records(tmp_path / "log", manifest, records)


def test_write_read_round_trip(tmp_path):
    records = make_records()
    written = write_log(tmp_path, records)
    manifest, loaded = read_records(tmp_path / "log")
    assert manifest == written
    assert manifest.layers == LAYOUT
    assert manifest.rounds == 3
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert (back.round_t, back.device_id, back.user_id, back.role, back.n_k) == (
            orig.round_t,
            orig.device_id,
            orig.user_id,
            orig.role,
            orig.n_k,
        )
        for (name, arr), (_, arr_back) in zip(orig.delta.layers, back.delta.layers):
            assert arr_back.dtype == np.float64
            np.testing.assert_array_equal(arr_back, arr.astype(np.float32).astype(np.float64))


def test_round_trip_is_lossless_for_float32_representable_values(tmp_path):
    records = make_records()
    for r in records:
        for name, arr in r.delta.layers:
            arr[:] = arr.astype(np.float32)
    write_log(tmp_path, records)
    _, loaded = read_records(tmp_path / "log")
    for orig, back in zip(records, loaded):
        np.testing.assert_array_equal(flat(orig.delta), flat(back.delta))


def test_rewrite_is_byte_identical(tmp_path):
    records = make_records()
    manifest = manifest_for(records, LAYOUT, rounds=3)
    write_records(tmp_path / "a", manifest, records)
    write_records(tmp_path / "b", manifest, records)
    for name in ("manifest.json", "deltas.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_payload_starts_with_magic(tmp_path):
    write_log(tmp_path, make_records())
    assert (tmp_path / "log" / "deltas.bin").read_bytes().startswith(MAGIC)


def test_manifest_devices_table(tmp_path):
    records = make_records(n_devices=4)
    written = write_log(tmp_path, records)
    assert written.devices == sorted({(r.device_id, r.user_id, r.role, r.n_k) for r in records})
    assert len(written.index) == len(records)


def test_write_rejects_layout_mismatch(tmp_path):
    records = make_records()
    bad = DeltaRecord(
        round_t=1,
        device_id=0,
        user_id=0,
        role=ROLE_ANONYMOUS,
        delta=ParamVector([("W1", np.zeros((3, 2)))]),  # missing W2
        n_k=5,
    )
    manifest = manifest_for(records, LAYOUT, rounds=3)
    with pytest.raises(ShapeMismatchError):
        write_records(tmp_path / "log", manifest, records + [bad])


def test_read_rejects_wrong_magic(tmp_path):
    write_log(tmp_path, make_records())
    bin_path = tmp_path / "log" / "deltas.bin"
    data = bytearray(bin_path.read_bytes())
    data[:4] = b"XXXX"
    bin_path.write_bytes(bytes(data))
    with pytest.raises(CorruptHeaderError):
        read_records(tmp_path / "log")


def test_read_rejects_truncated_payload(tmp_path):
    write_log(tmp_path, make_records())
    bin_path = tmp_path / "log" / "deltas.bin"
    data = bin_path.read_bytes()
    bin_path.write_bytes(data[: len(data) - 7])
    with pytest.raises(TruncatedPayloadError):
        read_records(tmp_path / "log")


def test_read_rejects_garbage_manifest(tmp_path):
    write_log(tmp_path, make_records())
    (tmp_path / "log" / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptHeaderError):
        read_records(tmp_path / "log")


def test_read_rejects_foreign_manifest(tmp_path):
    write_log(tmp_path, make_records())
    (tmp_path / "log" / "manifest.json").write_text(
        json.dumps({"format": "something-else", "version": 1}), encoding="utf-8"
    )
    with pytest.raises(CorruptHeaderError):
        read_records(tmp_path / "log")


def edit_manifest(tmp_path, change):
    path = tmp_path / "log" / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_read_rejects_unknown_version(tmp_path):
    write_log(tmp_path, make_records())
    edit_manifest(tmp_path, lambda doc: doc.__setitem__("version", 99))
    with pytest.raises(CorruptHeaderError):
        read_records(tmp_path / "log")


def test_read_rejects_unknown_device_reference(tmp_path):
    write_log(tmp_path, make_records())
    # device id that the table does not list
    edit_manifest(tmp_path, lambda doc: doc["index"][0].__setitem__(1, 777))
    with pytest.raises(CorruptHeaderError):
        read_records(tmp_path / "log")


def test_read_rejects_trailing_payload_bytes(tmp_path):
    write_log(tmp_path, make_records())
    bin_path = tmp_path / "log" / "deltas.bin"
    bin_path.write_bytes(bin_path.read_bytes() + b"\0\0\0\0")
    with pytest.raises(CorruptHeaderError, match="past the last"):
        read_records(tmp_path / "log")


def _set_offset(doc, i, offset):
    doc["index"][i][2] = offset


@pytest.mark.parametrize(
    "change",
    [
        pytest.param(lambda doc: _set_offset(doc, 1, doc["index"][0][2]), id="duplicate"),
        pytest.param(lambda doc: _set_offset(doc, 1, doc["index"][1][2] + 4), id="misaligned"),
        pytest.param(lambda doc: _set_offset(doc, 0, doc["index"][1][2]), id="out_of_order"),
    ],
)
def test_read_rejects_offsets_off_the_record_grid(tmp_path, change):
    write_log(tmp_path, make_records())
    edit_manifest(tmp_path, change)
    with pytest.raises(CorruptHeaderError, match="offset"):
        read_records(tmp_path / "log")


def test_read_rejects_unknown_role(tmp_path):
    write_log(tmp_path, make_records())
    edit_manifest(tmp_path, lambda doc: doc["devices"][0].__setitem__(2, "bogus"))
    with pytest.raises(CorruptHeaderError, match="bogus"):
        read_records(tmp_path / "log")


@pytest.mark.parametrize("n_k", [0, -5])
def test_read_rejects_n_k_below_one(tmp_path, n_k):
    write_log(tmp_path, make_records())
    edit_manifest(tmp_path, lambda doc: doc["devices"][0].__setitem__(3, n_k))
    with pytest.raises(CorruptHeaderError, match="n_k"):
        read_records(tmp_path / "log")


def test_read_rejects_duplicate_device_id(tmp_path):
    write_log(tmp_path, make_records())
    edit_manifest(tmp_path, lambda doc: doc["devices"].append([0, 1, ROLE_SHADOW, 99]))
    with pytest.raises(CorruptHeaderError, match="more than once"):
        read_records(tmp_path / "log")


@pytest.mark.parametrize("round_t", [0, 4])
def test_read_rejects_round_outside_the_run(tmp_path, round_t):
    write_log(tmp_path, make_records(n_rounds=3), rounds=3)
    edit_manifest(tmp_path, lambda doc: doc["index"][0].__setitem__(0, round_t))
    with pytest.raises(CorruptHeaderError, match="outside"):
        read_records(tmp_path / "log")


def test_read_rejects_a_repeated_round_and_device(tmp_path):
    write_log(tmp_path, make_records(2, 2), rounds=2)
    # record 1 is (round 1, device 1); name device 0 again
    edit_manifest(tmp_path, lambda doc: doc["index"][1].__setitem__(1, 0))
    with pytest.raises(CorruptHeaderError, match="more than one record"):
        read_records(tmp_path / "log")


def test_write_rejects_a_repeated_round_and_device(tmp_path):
    records = make_records(2, 2)
    records[1] = dataclasses.replace(records[0])
    with pytest.raises(ValueError, match="more than once"):
        write_log(tmp_path, records, rounds=2)
    assert not (tmp_path / "log" / "deltas.bin").exists()


def test_failed_write_leaves_previous_log(tmp_path, monkeypatch):
    first = make_records(seed=0)
    write_log(tmp_path, first)

    def fail(*args, **kwargs):
        raise RuntimeError("manifest serialization failed")

    monkeypatch.setattr(deltastore, "json", SimpleNamespace(dumps=fail))
    with pytest.raises(RuntimeError):
        write_log(tmp_path, make_records(seed=1))
    monkeypatch.undo()
    _, loaded = read_records(tmp_path / "log")
    assert len(loaded) == len(first)
    for orig, back in zip(first, loaded):
        np.testing.assert_array_equal(
            flat(back.delta), flat(orig.delta).astype(np.float32).astype(np.float64)
        )
    assert sorted(p.name for p in (tmp_path / "log").iterdir()) == ["deltas.bin", "manifest.json"]


def test_error_types_are_distinct():
    assert not issubclass(CorruptHeaderError, (ShapeMismatchError, TruncatedPayloadError))
    assert not issubclass(ShapeMismatchError, (CorruptHeaderError, TruncatedPayloadError))
    assert not issubclass(TruncatedPayloadError, (CorruptHeaderError, ShapeMismatchError))


# ------------------------------------------------------------ representation


def one_record(w1, w2):
    return DeltaRecord(
        round_t=1,
        device_id=0,
        user_id=0,
        role=ROLE_ANONYMOUS,
        delta=ParamVector([("W1", np.asarray(w1, dtype=np.float64)),
                           ("W2", np.asarray(w2, dtype=np.float64))]),
        n_k=1,
    )


def test_represent_delta_selects_and_normalizes():
    rec = one_record(np.arange(6).reshape(3, 2), [[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    vec = represent_delta(rec, ReprConfig("W2", normalize=True))
    np.testing.assert_allclose(vec, np.array([3, 0, 0, 0, 4, 0]) / 5.0, atol=1e-15)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_represent_delta_unnormalized_row_major():
    rec = one_record(np.arange(6).reshape(3, 2), np.zeros((2, 3)))
    vec = represent_delta(rec, ReprConfig("W1", normalize=False))
    np.testing.assert_array_equal(vec, [0, 1, 2, 3, 4, 5])


def test_represent_delta_zero_vector_passthrough():
    rec = one_record(np.zeros((3, 2)), np.zeros((2, 3)))
    vec = represent_delta(rec, ReprConfig("W2", normalize=True))
    np.testing.assert_array_equal(vec, np.zeros(6))


def test_represent_delta_unknown_layer():
    rec = one_record(np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(KeyError):
        represent_delta(rec, ReprConfig("W9"))


def set_manifest(key, value, *path):
    def edit(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = value

    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        (set_manifest("extra", 1), CorruptHeaderError),
        (set_manifest("rounds", 3.0), CorruptHeaderError),
        (set_manifest("rounds", float("inf")), CorruptHeaderError),
        (set_manifest(1, "32", "layers", 0), CorruptHeaderError),
        (set_manifest(0, "W1", "layers", 1), CorruptHeaderError),
        (set_manifest(1, [2**62, 4], "layers", 0), TruncatedPayloadError),
    ],
    ids=["extra-key", "float-rounds", "infinite-rounds", "string-shape", "duplicate-layer",
         "overflowing-shape"],
)
def test_read_rejects_manifests_that_would_not_round_trip(tmp_path, edit, error):
    write_log(tmp_path, make_records())
    path = tmp_path / "log" / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    with pytest.raises(error):
        read_records(tmp_path / "log")


def test_read_rejects_signaling_nan_payload(tmp_path):
    # a float32 signaling NaN comes back quiet from float64, so it cannot
    # be rewritten byte-identically
    write_log(tmp_path, make_records())
    path = tmp_path / "log" / "deltas.bin"
    payload = bytearray(path.read_bytes())
    payload[len(MAGIC) : len(MAGIC) + 4] = np.array([0x7FA00000], dtype="<u4").tobytes()
    path.write_bytes(bytes(payload))
    with pytest.raises(CorruptHeaderError, match="non-finite"):
        read_records(tmp_path / "log")


def test_write_rejects_non_finite_deltas(tmp_path):
    records = make_records()
    records[1].delta.get("W2")[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        write_log(tmp_path, records)
    assert not (tmp_path / "log" / "deltas.bin").exists()


# --- reader fuzzing ----------------------------------------------------------

TYPED_ERRORS = (CorruptHeaderError, ShapeMismatchError, TruncatedPayloadError)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 40)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5,
)


def mutate_field(doc, data):
    """Replace, delete or add one value somewhere in the manifest tree."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        if not isinstance(node[key], (dict, list)) or not data.draw(st.booleans()):
            break
        node = node[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "add" or not keys:
        if isinstance(node, dict):
            node[data.draw(st.sampled_from([*doc, "extra"]))] = data.draw(json_values)
        else:
            node.insert(data.draw(st.integers(0, len(node))), data.draw(json_values))
    elif action == "delete":
        del node[key]
    else:
        node[key] = data.draw(json_values)


def mutate_bytes(payload, data):
    """Flip, truncate or insert bytes anywhere, magic header included."""
    buf = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"]))
        pos = data.draw(st.integers(0, len(buf)))
        if kind == "flip" and pos < len(buf):
            buf[pos] ^= data.draw(st.integers(1, 255))
        elif kind == "truncate":
            del buf[pos:]
        else:
            buf[pos:pos] = data.draw(st.binary(min_size=1, max_size=8))
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_of_a_mutated_log_raises_a_typed_error_or_round_trips(data):
    """Any mutation of deltas.bin or manifest.json either fails with one of
    the three typed errors or reads back records that rewrite to the same
    bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log"
        write_records(log, manifest_for(make_records(2, 3), LAYOUT, rounds=2), make_records(2, 3))
        target = data.draw(st.sampled_from(["payload", "manifest", "both"]))
        if target in ("payload", "both"):
            payload = log / "deltas.bin"
            payload.write_bytes(mutate_bytes(payload.read_bytes(), data))
        if target in ("manifest", "both"):
            doc = json.loads((log / "manifest.json").read_text(encoding="utf-8"))
            for _ in range(data.draw(st.integers(1, 3))):
                mutate_field(doc, data)
            (log / "manifest.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
        try:
            manifest, records = read_records(log)
        except TYPED_ERRORS:
            return
        again = Path(tmp) / "again"
        write_records(again, manifest, records)
        for name in ("deltas.bin", "manifest.json"):
            assert (again / name).read_bytes() == (log / name).read_bytes(), name

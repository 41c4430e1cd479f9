"""Log persistence: float32 round-trips must be exact, rewrites byte
identical, and each corruption mode must raise its own error type."""

import ast
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
    ROLE_ANONYMOUS,
    ROLE_SHADOW,
    CorruptHeaderError,
    DeltaLog,
    ParamVector,
    ShapeMismatchError,
    TruncatedPayloadError,
    read_records,
    write_records,
)

from sequential_oracle import delta_of, flat

LAYOUT = [("W1", (3, 2)), ("W2", (2, 3))]


def make_records(n_rounds=3, n_devices=4, seed=0):
    """Every device in every round; devices below n_devices // 2 are
    anonymous, device d belongs to user d % 2 and holds 10 + d examples."""
    rng = np.random.default_rng(seed)
    device = np.tile(np.arange(n_devices), n_rounds)
    return DeltaLog(
        round=np.repeat(np.arange(1, n_rounds + 1), n_devices),
        device=device,
        user=device % 2,
        role=np.where(device < n_devices // 2, ROLE_ANONYMOUS, ROLE_SHADOW),
        n_k=10 + device,
        layout=LAYOUT,
        rounds=n_rounds,
        deltas=rng.normal(size=(n_rounds * n_devices, 12)),
    )


def write_log(tmp_path, records):
    return write_records(tmp_path / "log", records)


def test_write_read_round_trip(tmp_path):
    records = make_records()
    written = write_log(tmp_path, records)
    manifest, loaded = read_records(tmp_path / "log")
    assert manifest == written
    assert manifest.layers == LAYOUT
    assert manifest.rounds == 3
    assert len(loaded) == len(records)
    for column in ("round", "device", "user", "role", "n_k"):
        np.testing.assert_array_equal(getattr(loaded, column), getattr(records, column))
    assert loaded.deltas.dtype == np.float64
    np.testing.assert_array_equal(loaded.deltas, records.deltas.astype(np.float32).astype(np.float64))


def test_iterating_a_log_yields_its_rows_as_records():
    records = make_records()
    rows = list(records)
    assert len(rows) == len(records)
    for i, rec in enumerate(rows):
        assert (rec.round_t, rec.device_id, rec.user_id, rec.role, rec.n_k) == (
            records.round[i], records.device[i], records.user[i], records.role[i], records.n_k[i]
        )
        assert [(name, a.shape) for name, a in rec.delta.layers] == LAYOUT
        np.testing.assert_array_equal(flat(delta_of(rec)), records.deltas[i])
        # the layers are views into the log's matrix, not copies
        assert all(np.shares_memory(a, records.deltas) for _, a in rec.delta.layers)
    np.testing.assert_array_equal(records.layer("W2"), records.deltas[:, 6:])


def test_round_trip_is_lossless_for_float32_representable_values(tmp_path):
    records = make_records()
    records.deltas[:] = records.deltas.astype(np.float32)
    write_log(tmp_path, records)
    _, loaded = read_records(tmp_path / "log")
    np.testing.assert_array_equal(loaded.deltas, records.deltas)


def test_rewrite_is_byte_identical(tmp_path):
    records = make_records()
    write_records(tmp_path / "a", records)
    write_records(tmp_path / "b", records)
    # a log read back is the log: writing it again gives the same bytes
    _, loaded = read_records(tmp_path / "a")
    write_records(tmp_path / "c", loaded)
    for name in ("manifest.json", "deltas.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()
    payload = (tmp_path / "a" / "deltas.bin").read_bytes()
    assert payload == MAGIC + records.deltas.astype("<f4").tobytes()


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
    records.deltas = records.deltas[:, :6]  # W1's columns only, W2 missing
    with pytest.raises(ShapeMismatchError):
        write_log(tmp_path, records)


def _set_row(column, row, value):
    def change(log):
        getattr(log, column)[row] = value

    return change


def _set_device(column, value):
    def change(log):
        getattr(log, column)[log.device == 0] = value

    return change


# make_records() logs device 0 (user 0, anonymous, n_k 10) in rows 0, 4 and 8
@pytest.mark.parametrize(
    "change, match",
    [
        (_set_row("round", 11, 4), "outside"),
        (_set_row("round", 0, 0), "outside"),
        (_set_row("user", 4, 5), "more than one"),
        (_set_row("n_k", 4, 9), "more than one"),
        (_set_row("role", 4, ROLE_SHADOW), "more than one"),
        (_set_device("role", "spy"), "unknown role"),
        (_set_device("n_k", 0), "n_k"),
    ],
    ids=["round-above-rounds", "round-zero", "user-varies", "n_k-varies", "role-varies",
         "unknown-role", "n_k-below-one"],
)
def test_write_rejects_a_log_the_reader_would_reject(tmp_path, change, match):
    records = make_records()
    change(records)
    with pytest.raises(ValueError, match=match):
        write_log(tmp_path, records)
    assert not (tmp_path / "log" / "deltas.bin").exists()


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
    write_log(tmp_path, make_records(n_rounds=3))
    edit_manifest(tmp_path, lambda doc: doc["index"][0].__setitem__(0, round_t))
    with pytest.raises(CorruptHeaderError, match="outside"):
        read_records(tmp_path / "log")


def test_read_rejects_a_repeated_round_and_device(tmp_path):
    write_log(tmp_path, make_records(2, 2))
    # record 1 is (round 1, device 1); name device 0 again
    edit_manifest(tmp_path, lambda doc: doc["index"][1].__setitem__(1, 0))
    with pytest.raises(CorruptHeaderError, match="more than one record"):
        read_records(tmp_path / "log")


def test_write_rejects_a_repeated_round_and_device(tmp_path):
    records = make_records(2, 2)
    for column in (records.round, records.device, records.user, records.role, records.n_k):
        column[1] = column[0]
    with pytest.raises(ValueError, match="more than one record"):
        write_log(tmp_path, records)
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
    np.testing.assert_array_equal(loaded.deltas, first.deltas.astype(np.float32).astype(np.float64))
    assert sorted(p.name for p in (tmp_path / "log").iterdir()) == ["deltas.bin", "manifest.json"]


def test_error_types_are_distinct():
    assert not issubclass(CorruptHeaderError, (ShapeMismatchError, TruncatedPayloadError))
    assert not issubclass(ShapeMismatchError, (CorruptHeaderError, TruncatedPayloadError))
    assert not issubclass(TruncatedPayloadError, (CorruptHeaderError, ShapeMismatchError))


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
    records.deltas[1, 6] = np.inf  # W2[0, 0] of the second record
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
        write_records(log, make_records(2, 3))
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
            _, records = read_records(log)
        except TYPED_ERRORS:
            return
        again = Path(tmp) / "again"
        write_records(again, records)
        for name in ("deltas.bin", "manifest.json"):
            assert (again / name).read_bytes() == (log / name).read_bytes(), name


def spells_paramvector(node: ast.AST) -> bool:
    """Whether `node` names ParamVector: as a name, an attribute, an import,
    a definition or inside a string."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and "ParamVector" in node.value
    spelled = (getattr(node, field, None) for field in ("id", "attr", "name", "asname"))
    return "ParamVector" in spelled


def test_paramvector_is_named_only_where_delta_records_need_it():
    # a model's parameters are a dict in layout order; ParamVector is only
    # the view a DeltaRecord carries, so no second parameter form can creep
    # back: deltastore defines it, the package exports it, nothing else
    # names it
    assert ParamVector.__module__ == "fedanon.deltastore"
    assert [f.name for f in dataclasses.fields(ParamVector)] == ["layers"]
    found = []
    for path in sorted(Path(deltastore.__file__).parent.glob("*.py")):
        if path.name == "deltastore.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "__init__.py":
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "deltastore":
                    allowed.update(map(id, node.names))
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                    allowed.update(map(id, node.value.elts))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if spells_paramvector(node) and id(node) not in allowed]
    assert found == []

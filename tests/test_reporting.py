"""Report serialization: exact CSV/JSON round trips, RFC-4180 framing,
and byte-deterministic output files."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from fedanon.reporting import (
    Report,
    Table,
    report_from_json,
    report_to_json,
    summarize,
    table_to_csv,
    write_report,
)


def sample_table():
    return Table(
        name="scores",
        columns=["method", "seed", "ap"],
        rows=[
            ["knn", 0, 0.7123456789012345],
            ["mlp", 1, 1e-17],
            ['tricky, "quoted"', 2, 0.5],
        ],
    )


def sample_report():
    return Report(
        experiment="demo",
        config={"users": "20", "eta": "0.8"},
        seed=3,
        version="1",
        config_hash="abcd" * 4,
        tables=[sample_table()],
    )


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError, match="width"):
        Table(name="bad", columns=["a", "b"], rows=[[1, 2], [3]])


def test_csv_is_rfc4180():
    text = table_to_csv(sample_table())
    lines = text.split("\r\n")
    assert lines[-1] == ""  # trailing CRLF terminates the last record
    assert lines[0] == "method,seed,ap"
    assert "\n" not in text.replace("\r\n", "")  # CRLF is the only line break
    assert '"tricky, ""quoted"""' in text  # embedded comma and quotes escaped


def test_csv_round_trip_is_cell_exact():
    table = sample_table()
    header, *rows = csv.reader(io.StringIO(table_to_csv(table)))
    assert header == table.columns
    for orig, parsed in zip(table.rows, rows):
        assert parsed[0] == str(orig[0])
        assert int(parsed[1]) == orig[1]
        # repr-serialized floats restore to the identical binary value
        assert float(parsed[2]) == orig[2]


def test_json_round_trip():
    report = sample_report()
    back = report_from_json(report_to_json(report))
    assert back == report


def test_json_writes_a_nan_cell_as_null_and_reads_it_back_as_nan():
    report = sample_report()
    report.tables[0].rows[1][2] = math.nan
    text = report_to_json(report)
    assert "NaN" not in text and text.count("null") == 1
    doc = json.loads(text, parse_constant=lambda token: pytest.fail(f"{token} in the JSON"))
    assert doc["tables"]["scores"]["rows"][1] == ["mlp", 1, None]
    back = report_from_json(text)
    assert math.isnan(back.tables[0].rows[1][2])
    assert back.tables[0].rows[0] == report.tables[0].rows[0]
    assert report_to_json(back) == text
    # CSV keeps the repr of the float
    assert "\r\nmlp,1,nan\r\n" in table_to_csv(back.tables[0])
    # a null cell anywhere reads as NaN
    assert math.isnan(report_from_json(_set_cell(None)).tables[0].rows[0][1])


def test_json_rejects_an_infinite_cell():
    report = sample_report()
    report.tables[0].rows[1][2] = math.inf
    with pytest.raises(ValueError, match="not JSON compliant"):
        report_to_json(report)


def test_json_layout_has_provenance_but_no_clock():
    doc = json.loads(report_to_json(sample_report()))
    assert doc["provenance"] == {"seed": 3, "version": "1", "config_hash": "abcd" * 4}
    flat = json.dumps(doc).lower()
    assert "time" not in flat and "date" not in flat


def test_report_table_lookup():
    report = sample_report()
    assert report.table("scores").columns == ["method", "seed", "ap"]
    with pytest.raises(KeyError, match="missing"):
        report.table("missing")


def test_write_report_paths_and_determinism(tmp_path):
    report = sample_report()
    first = write_report(report, tmp_path / "a")
    names = sorted(p.name for p in first)
    assert names == ["demo_scores.csv", "report_demo.json"]
    second = write_report(report, tmp_path / "b")
    for pa, pb in zip(sorted(first), sorted(second)):
        assert pa.read_bytes() == pb.read_bytes()
    # csv bytes on disk keep their CRLF framing
    raw = (tmp_path / "a" / "demo_scores.csv").read_bytes()
    assert raw.count(b"\r\n") == 4


def test_write_report_format_selection(tmp_path):
    only_json = write_report(sample_report(), tmp_path / "j", formats=("json",))
    assert [p.name for p in only_json] == ["report_demo.json"]
    with pytest.raises(ValueError):
        write_report(sample_report(), tmp_path / "x", formats=("xml",))


@pytest.mark.parametrize("fail_at", [0, 1, 2])
def test_a_failed_write_leaves_the_previous_report_whole(tmp_path, monkeypatch, fail_at):
    # the write that fails has put half its bytes on disk: none of them, nor
    # a temporary file, may be left where the previous report was
    report = sample_report()
    report.tables.append(Table(name="more", columns=["x"], rows=[[1]]))
    paths = write_report(report, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == sorted(p.name for p in paths)

    real_write_bytes = Path.write_bytes
    writes = []

    def write_half_then_fail(path, data, *args, **kwargs):
        data = data.encode() if isinstance(data, str) else data
        writes.append(path)
        if len(writes) > fail_at:
            real_write_bytes(path, data[: len(data) // 2])
            raise OSError("no space left on device")
        return real_write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    report.tables[0].rows[0][2] = 0.25
    report.tables[1].rows[0][0] = 2
    with pytest.raises(OSError, match="no space"):
        write_report(report, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _edit(change):
    doc = json.loads(report_to_json(sample_report()))
    change(doc)
    return json.dumps(doc, indent=2)


def _set_cell(value):
    return _edit(lambda d: d["tables"]["scores"]["rows"][0].__setitem__(1, value))


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param("{", "Expecting", id="not_json"),
        pytest.param("[]", "malformed", id="not_an_object"),
        pytest.param(_edit(lambda d: d.pop("provenance")), "malformed", id="missing_key"),
        pytest.param(_edit(lambda d: d.__setitem__("tables", [])), "malformed", id="tables_a_list"),
        pytest.param(_edit(lambda d: d["tables"]["scores"].__setitem__("columns", "abc")),
                     "writer emits", id="columns_a_string"),
        pytest.param(_edit(lambda d: d["tables"]["scores"]["rows"][0].pop()), "width",
                     id="ragged_row"),
        pytest.param(_set_cell({"a": 1}), "not a string or a number", id="cell_an_object"),
        pytest.param(_set_cell([1, 2]), "not a string or a number", id="cell_an_array"),
        pytest.param(_set_cell(None).replace("null", "NaN"), "NaN is not JSON", id="cell_nan"),
        pytest.param(_set_cell(None).replace("null", "-Infinity"), "Infinity is not JSON",
                     id="cell_infinity"),
        pytest.param(json.dumps(json.loads(report_to_json(sample_report()))), "writer emits",
                     id="not_indented"),
    ],
)
def test_report_from_json_rejects_a_malformed_report(text, message):
    with pytest.raises(ValueError, match=message):
        report_from_json(text)


@pytest.mark.parametrize(
    "where,name",
    [
        ("experiment", "../evil"),
        ("experiment", ""),
        ("table", "a/b"),
    ],
)
def test_write_report_rejects_a_name_that_leaves_the_output_directory(tmp_path, where, name):
    report = sample_report()
    if where == "experiment":
        report.experiment = name
    else:
        report.tables[0].name = name
    with pytest.raises(ValueError, match="must match"):
        write_report(report, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["noise", 0.1]], "row counts differ"),
        ([["noise", 0.1], ["mm_aug", 1.0]], "row 1 differs across seeds"),
    ],
)
def test_seed_mean_summary_rejects_rows_that_do_not_line_up(rows, message):
    first = Table(name="tradeoff", columns=["strategy", "value"],
                  rows=[["noise", 0.1], ["rand_aug", 1.0]])
    other = Table(name="tradeoff", columns=["strategy", "value"], rows=rows)
    with pytest.raises(ValueError, match=message):
        summarize([first, other])

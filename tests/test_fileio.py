import ast
import json
from pathlib import Path

import pytest

import roadsense
from roadsense.analysis import load_tracts_geojson
from roadsense.cli import main
from roadsense.errors import ConfigError, InputDataError
from roadsense.fileio import atomic_open, read_table, write_table
from roadsense.osm_ingest import read_network
from roadsense.pipeline import MANIFEST_NAME, RunConfig, _write_manifest, load_config
from roadsense.segmenter import SEGMENTS_CSV_HEADER, read_segments_csv
from roadsense.streetview import _read_journal

SEGMENT_ROW = "1#0,1,0,13.0000000,100.5000000,13.0010000,100.5000000,111.195,primary,bangkok"
CONSENSUS_HEADER = ("segment_id,potholes,cracks,markings_present,markings_clear,"
                    "litter,sidewalk_paved,n_workers")
LABEL_HEADER = ("AssignmentId,WorkerId,Input.segment_id,Answer.potholes,Answer.cracks,"
                "Answer.markings_present,Answer.markings_clear,Answer.litter,"
                "Answer.sidewalk")


class TestAtomicOpen:
    def test_clean_block_replaces_the_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("old\n")
        write_table(path, ["a"], [["1"]])
        assert path.read_text() == "a\n1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_failed_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("old\n")

        def rows():
            yield ["1"]
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_table(path, ["a"], rows())
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_binary_mode(self, tmp_path):
        with atomic_open(tmp_path / "x.bin", "wb") as f:
            f.write(b"\x00\xff")
        assert (tmp_path / "x.bin").read_bytes() == b"\x00\xff"


class TestReadTable:
    def test_no_header_row_is_a_schema_error(self, tmp_path):
        path = tmp_path / "segments.csv"
        path.write_text("")
        with pytest.raises(InputDataError, match="no header row"):
            read_segments_csv(path)

    def test_journal_empty_file_means_no_rows(self, tmp_path):
        path = tmp_path / "queries.csv"
        path.write_text("")
        assert _read_journal(path) == []

    def test_converted_values_and_extra_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("b,extra,a\n2,x,one\n\n3,y,two\n")
        assert read_table(path, {"a": str, "b": int}, lambda a, b: (a, b)) == [
            ("one", 2), ("two", 3)]

    def test_a_key_value_once_per_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nx,1\ny,2\nx,3\n")
        assert read_table(path, {"a": str, "b": int}, lambda a, b: (a, b)) == [
            ("x", 1), ("y", 2), ("x", 3)]
        with pytest.raises(InputDataError, match=r"t\.csv: line 4: a x repeats line 2$"):
            read_table(path, {"a": str, "b": int}, lambda a, b: (a, b), key="a")

    def test_long_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(InputDataError, match="line 3: expected 2 fields, got 3"):
            read_table(path, {"a": int}, int)


def _segments(tmp_path, text):
    path = tmp_path / "segments.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return ["sample", "--segments", str(path), "--n", "1", "--out", str(tmp_path / "plan.csv")]


def _consensus(tmp_path, text):
    path = tmp_path / "consensus.csv"
    path.write_text(text)
    return ["summarize", "--consensus", str(path), "--city", "x"]


def _labels(tmp_path, text):
    path = tmp_path / "batch.csv"
    path.write_text(text)
    return ["labels", "parse", "--in", str(path), "--out", str(tmp_path / "out.csv")]


MALFORMED = {
    "length_m_abc": (_segments, SEGMENTS_CSV_HEADER + "\n"
                     + SEGMENT_ROW.replace("111.195", "abc") + "\n",
                     "segments.csv: line 2: column length_m"),
    "missing_column": (_segments, SEGMENTS_CSV_HEADER.replace(",city", "") + "\n"
                       + SEGMENT_ROW.replace(",bangkok", "") + "\n",
                       "segments.csv: line 1: missing required column: city"),
    "latitude_93_7": (_segments, SEGMENTS_CSV_HEADER + "\n"
                      + SEGMENT_ROW.replace("13.0010000", "93.7") + "\n",
                      "segments.csv: line 2: lat 93.7"),
    "short_row": (_segments, SEGMENTS_CSV_HEADER + "\n" + SEGMENT_ROW + "\n"
                  + SEGMENT_ROW.replace(",bangkok", "") + "\n",
                  "segments.csv: line 3: expected 10 fields, got 9"),
    "n_workers_two": (_consensus, CONSENSUS_HEADER + "\ns1,yes,no,yes,yes,no,yes,two\n",
                      "consensus.csv: line 2: column n_workers"),
    "not_utf8": (_segments, (SEGMENTS_CSV_HEADER + "\n" + SEGMENT_ROW + "\n").encode()
                 + SEGMENT_ROW.replace("bangkok", "bangk\xf6k").encode("latin-1") + b"\n",
                 "segments.csv: line 3: not UTF-8"),
    "repeated_segment_id": (_segments, SEGMENTS_CSV_HEADER + "\n" + SEGMENT_ROW + "\n\n"
                            + SEGMENT_ROW.replace("100.5000000", "100.6000000") + "\n",
                            "segments.csv: line 4: segment_id 1#0 repeats line 2"),
    "repeated_consensus_id": (_consensus, CONSENSUS_HEADER + "\ns1,yes,no,yes,yes,no,yes,1\n"
                              + "s1,no,no,yes,yes,no,yes,1\n",
                              "consensus.csv: line 3: segment_id s1 repeats line 2"),
    "label_short_row": (_labels, LABEL_HEADER + "\na1,w1,s1,yes,no,yes,yes,no\n",
                        "batch.csv: line 2: expected 9 fields, got 8"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_exits_3_naming_file_and_line(tmp_path, capsys, case):
    command, text, expected = MALFORMED[case]
    assert main(command(tmp_path, text)) == 3
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert not (tmp_path / "plan.csv").exists()


def _json_files(tmp_path):
    """For each JSON reader: a valid file holding the string "MARK" below its
    first line, the reader, and the CLI command that reads that file; the
    config reader, given a manifest, raises a ConfigError, the others an
    InputDataError."""
    network = tmp_path / "network.ndjson"
    network.write_text('{"type": "node", "id": 1, "lat": 0.0, "lon": 0.0}\n'
                       '{"type": "meta", "city": "MARK"}\n')
    _write_manifest(RunConfig(city="MARK", osm_path="city.osm", out_dir="run"), tmp_path,
                    "0" * 64)
    tracts = tmp_path / "tracts.geojson"
    tracts.write_text(json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"tract_id": "MARK", "per_capita_income": 1},
         "geometry": {"type": "Polygon",
                      "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]}}]},
        indent=2))
    segments = tmp_path / "segments.csv"
    segments.write_text(SEGMENTS_CSV_HEADER + "\n" + SEGMENT_ROW + "\n")
    consensus = tmp_path / "consensus.csv"
    consensus.write_text(CONSENSUS_HEADER + "\n1#0,yes,no,yes,yes,no,yes,1\n")
    return {
        "network": (network, read_network,
                    ["segment", "--network", str(network), "--out", str(tmp_path / "s.csv")]),
        "manifest": (tmp_path / MANIFEST_NAME, load_config,
                     ["run", "--config", str(tmp_path / MANIFEST_NAME)]),
        "tracts": (tracts, load_tracts_geojson,
                   ["regress", "--outcome", "potholes", "--consensus", str(consensus),
                    "--segments", str(segments), "--factors", "income_quintile",
                    "--tracts", str(tracts)]),
    }


# how each case edits the file, and the message it gives after the location of
# "MARK" (the last two are found for a JSON value as a whole: its first line)
BAD_JSON = {
    "not_utf8": (lambda data: data.replace(b"MARK", b"caf\xe9"), ": not UTF-8 text ("),
    "not_json": (lambda data: data.replace(b'"MARK"', b"MARK"), ": not valid JSON ("),
    "nested_too_deep": (lambda data: data.replace(b'"MARK"', b"[" * 100_000),
                        ": not valid JSON (nested too deep to parse)"),
    "integer_too_long": (lambda data: data.replace(b'"MARK"', b"1" * 5000),
                         ": not valid JSON (Exceeds the limit"),
}


@pytest.mark.parametrize("reader", ["network", "manifest", "tracts"])
@pytest.mark.parametrize("case", [*BAD_JSON, "bom"])
def test_json_file_readers_share_one_parse(tmp_path, capsys, reader, case):
    path, read, command = _json_files(tmp_path)[reader]
    data = path.read_bytes()
    if case == "bom":  # a UTF-8 byte-order mark is accepted
        expected = read(path)
        path.write_bytes(b"\xef\xbb\xbf" + data)
        assert read(path) == expected
        return
    edit, message = BAD_JSON[case]
    path.write_bytes(edit(data))
    mark = data.index(b"MARK")
    line = data.count(b"\n", 0, mark) + 1
    if case in ("nested_too_deep", "integer_too_long") and reader != "network":
        line = 1
    where = f"line {line}"
    if case == "not_json":  # where the quote of "MARK" was
        column = mark - data.rfind(b"\n", 0, mark) - 1
        where += f" column {column}"
    expected = f"{path}: {where}{message}"
    error = ConfigError if reader == "manifest" else InputDataError
    with pytest.raises(error) as exc:
        read(path)
    assert str(exc.value).startswith(expected)
    assert main(command) == error.exit_code
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err


def _write_calls(tree: ast.AST):
    """(function, line) of each call that writes a file: open() or .open() in a
    mode that writes or appends, .write_text() and .write_bytes()."""
    scopes = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                scopes.setdefault(node, fn.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            yield scopes.get(node), node.lineno
        elif name == "open":
            mode_at = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[mode_at] if len(node.args) > mode_at else None)
            if mode is None:
                continue
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                yield scopes.get(node), node.lineno


def _json_parse_calls(tree: ast.AST):
    """Line of each json.loads() call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "loads" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            yield node.lineno


def test_every_file_write_goes_through_fileio():
    writes, parses = [], []
    for path in sorted(Path(roadsense.__file__).parent.glob("*.py")):
        if path.name == "fileio.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writes += [(path.name, scope, line) for scope, line in _write_calls(tree)]
        parses += [(path.name, line) for line in _json_parse_calls(tree)]
    assert writes == []
    assert parses == []

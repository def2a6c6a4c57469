import ast
from pathlib import Path

import pytest

import roadsense
from roadsense.cli import main
from roadsense.errors import RowError, SchemaError
from roadsense.fileio import atomic_open, read_table, write_table
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
        with pytest.raises(SchemaError, match="no header row"):
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

    def test_long_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n1,2,3\n")
        with pytest.raises(RowError, match="line 3: expected 2 fields, got 3"):
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


def test_every_file_write_goes_through_fileio():
    found = []
    for path in sorted(Path(roadsense.__file__).parent.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for scope, line in _write_calls(ast.parse(path.read_text(encoding="utf-8"))):
            found.append((path.name, scope, line))
    # the fetch journal appends each completed query in place, deliberately
    # not atomically, so that an interrupted run keeps every row
    assert [(name, scope) for name, scope, _ in found] == [
        ("streetview.py", "_fetch_window")], found

"""Every text input goes through one line reader: the MOT per-line
converter, the CSV embedding sidecar, the affine sidecar and key = value
config files. These tests pin how lines are split and numbered, that a
leading byte-order mark is dropped, and that an unreadable path or
a byte that is not UTF-8 is a FormatError naming the file and the line."""

import logging
import re
from pathlib import Path

import pytest

from drone_assoc import mot_io
from drone_assoc.cli import main
from drone_assoc.mot_io import (
    FormatError,
    parse_affines,
    parse_detections,
    parse_embeddings,
    parse_mot_lines,
    read_key_values,
)
from drone_assoc.simulator import ScenarioConfig, generate_scenario, load_scenario_config

# (line ending, character put inside the second data line): universal
# newlines split at CR, LF and CRLF only, so a form feed, vertical tab, NEL
# or line separator stays inside its line
SPLITS = {
    "cr": ("\r", ""),
    "crlf": ("\r\n", ""),
    "ff": ("\n", "\f"),
    "vt": ("\n", "\v"),
    "nel": ("\n", "\x85"),
    "ls": ("\n", "\u2028"),
}


def write_raw(path, lines, newline):
    path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    return str(path)


def split_lines(split, data, bad):
    """A comment, three data lines around a blank one, the second holding the
    split's character after its third field, then `bad`, so that the error
    names line 6 when every line ending counts."""
    newline, char = SPLITS[split]
    first, second, third = data
    head, _, tail = second.partition(",")
    mid, _, rest = tail.partition(",")
    value, _, rest = rest.partition(",")
    second = f"{head},{mid},{value}{char},{rest}"
    return ["# header", first, second, "", third] + bad, newline


@pytest.mark.parametrize("split", SPLITS)
class TestLineSplitting:
    def test_mot_line_pass(self, tmp_path, split, caplog):
        data = ["1,1,0.5,4,5,6,0.9,1,1.0", "2,1,3.5,4,5,6,0.9,1,1.0",
                "3,1,1.5,4,5,6,0.9,1,1.0"]
        padding = [f"4,{k},1.5,4,5,6,0.9,1,1.0" for k in range(9)]
        lines, newline = split_lines(split, data, ["3,1,x,4,5,6,0.9,1,1.0"] + padding)
        path = write_raw(tmp_path / "det.txt", lines, newline)
        with caplog.at_level(logging.WARNING, logger="drone_assoc.io"):
            table, stats = parse_mot_lines(path)
        want = [[float(v) for v in row.split(",")] for row in data + padding]
        assert table.rows.tolist() == want
        assert (stats.lines, stats.malformed) == (13, 1)
        assert [r.getMessage() for r in caplog.records] == [f"{path}:6: non-numeric field"]

    def test_csv_sidecar(self, tmp_path, split):
        data = ["1,0,3.0,4.0", "1,1,1.0,0.0", "2,0,0.0,2.0"]
        lines, newline = split_lines(split, data, [])
        emb = parse_embeddings(write_raw(tmp_path / "e.csv", lines, newline))
        assert emb.keys.tolist() == [[1, 0], [1, 1], [2, 0]]
        assert emb.vectors.tolist() == [[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]]
        lines, newline = split_lines(split, data, ["2,1,0.0,0.0"])
        path = write_raw(tmp_path / "bad.csv", lines, newline)
        with pytest.raises(FormatError) as exc:
            parse_embeddings(path)
        assert str(exc.value) == f"{path}:6: cannot normalize a zero-length embedding"

    def test_affines(self, tmp_path, split):
        data = ["2,1.0,0.0,4.0,0.0,1.0,1.0", "3,1.0,0.0,5.0,0.0,1.0,1.0",
                "4,1.0,0.0,6.0,0.0,1.0,1.0"]
        lines, newline = split_lines(split, data, [])
        out = parse_affines(write_raw(tmp_path / "affines.csv", lines, newline))
        assert {f: m.m[0, 2] for f, m in out.items()} == {2: 4.0, 3: 5.0, 4: 6.0}
        lines, newline = split_lines(split, data, ["0,1.0,0.0,6.0,0.0,1.0,1.0"])
        path = write_raw(tmp_path / "bad.csv", lines, newline)
        with pytest.raises(FormatError) as exc:
            parse_affines(path)
        assert str(exc.value) == f"{path}:6: frame 0 is below 1"

    def test_key_values(self, tmp_path, split):
        # split_lines puts the character after the third comma-separated
        # field, here inside the value of the second line
        data = ["seed = 3", "output = a,b,out,put.txt", "w_a = 0.5"]
        lines, newline = split_lines(split, data, [])
        char = SPLITS[split][1]
        out = read_key_values(write_raw(tmp_path / "run.cfg", lines, newline))
        assert out == {"seed": "3", "output": f"a,b,out{char},put.txt", "w_a": "0.5"}
        lines, newline = split_lines(split, data, ["broken"])
        path = write_raw(tmp_path / "bad.cfg", lines, newline)
        with pytest.raises(FormatError) as exc:
            read_key_values(path)
        assert str(exc.value) == f"{path}:6: expected key = value"


# -- bytes that are not UTF-8 ------------------------------------------------


def with_bad_byte(path, text, line):
    """Write `text` with a 0xff byte put at the start of line `line` (1-based)."""
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    return str(path)


def det_text(rows=30):
    return "# det\n" + "".join(f"{k // 3 + 1},-1,{k}.5,3.0,10.0,12.0,0.8,1,1.0\n"
                               for k in range(rows))


def raises_at(fn, path, line):
    with pytest.raises(FormatError) as exc:
        fn(path)
    assert str(exc.value).startswith(f"{path}:{line}: ")
    return str(exc.value)


class TestUndecodableBytes:
    @pytest.mark.parametrize("line", [1, 2, 17, 31])
    def test_det_file_bulk_path(self, tmp_path, line):
        path = with_bad_byte(tmp_path / "det.txt", det_text(), line)
        message = raises_at(parse_mot_lines, path, line)
        assert "0xff" in message

    def test_det_file_line_pass(self, tmp_path):
        path = with_bad_byte(tmp_path / "det.txt", det_text(), 17)
        raises_at(mot_io._line_rows, path, 17)

    def test_bad_byte_past_the_first_read_buffer(self, tmp_path):
        path = with_bad_byte(tmp_path / "det.txt", det_text(5000), 4321)
        raises_at(parse_mot_lines, path, 4321)
        raises_at(mot_io._line_rows, path, 4321)

    def test_bad_byte_in_a_comment_line(self, tmp_path):
        path = with_bad_byte(tmp_path / "det.txt", det_text(), 1)
        raises_at(mot_io._line_rows, path, 1)

    def test_crlf_line_numbers(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_bytes(det_text().replace("\n", "\r\n").encode() + b"\xff\r\n")
        raises_at(parse_mot_lines, str(path), 32)

    def test_csv_sidecar(self, tmp_path):
        text = "".join(f"1,{k},1.0,2.0\n" for k in range(40))
        path = with_bad_byte(tmp_path / "e.csv", text, 23)
        raises_at(parse_embeddings, path, 23)

    def test_csv_sidecar_through_parse_detections(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("1,-1,0.5,3.0,10.0,12.0,0.8,1,1.0\n")
        path = with_bad_byte(tmp_path / "e.csv", "1,0,1.0,2.0\n1,1,1.0,2.0\n", 2)
        raises_at(lambda p: parse_detections(str(det), p), path, 2)

    def test_affines(self, tmp_path):
        text = "".join(f"{f},1.0,0.0,4.0,0.0,1.0,1.0\n" for f in range(1, 9))
        path = with_bad_byte(tmp_path / "affines.csv", text, 5)
        raises_at(parse_affines, path, 5)

    def test_track_config(self, tmp_path, capsys):
        path = with_bad_byte(tmp_path / "run.cfg", "seed = 3\nw_a = 0.5\n", 2)
        raises_at(read_key_values, path, 2)
        with pytest.raises(SystemExit) as exc:
            main(["track", "--config", path])
        assert exc.value.code == 2
        assert f"{path}:2: " in capsys.readouterr().err

    def test_scenario_config(self, tmp_path):
        path = with_bad_byte(tmp_path / "scene.cfg", "seed = 3\nn_frames = 20\n", 2)
        raises_at(load_scenario_config, path, 2)

    def test_track_exits_one_naming_the_detections_line(self, tmp_path, capsys):
        paths = generate_scenario(ScenarioConfig(
            seed=5, n_objects=3, n_frames=6, world_extent=200.0, embedding_dim=8),
            str(tmp_path / "data"))
        det = tmp_path / "det.txt"
        det.write_bytes(Path(paths.detections).read_bytes() + b"\xff\n")
        line = det.read_bytes().count(b"\n")
        code = main(["track", "--detections", str(det), "--embeddings", paths.embeddings,
                     "--output", str(tmp_path / "out.txt")])
        assert code == 1
        assert f"error: {det}:{line}: " in capsys.readouterr().err


class TestUnreadablePaths:
    def test_affines_path_that_is_a_directory(self, tmp_path):
        with pytest.raises(FormatError, match=re.escape(f"cannot read {tmp_path}")):
            parse_affines(str(tmp_path))

    def test_absent_affines_file_means_identity_with_a_warning(self, tmp_path, caplog):
        path = str(tmp_path / "nope.csv")
        with caplog.at_level(logging.WARNING, logger="drone_assoc.io"):
            assert parse_affines(path) == {}
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: affine sidecar not found, assuming identity"]

    @pytest.mark.parametrize("fn", [parse_mot_lines, parse_embeddings, read_key_values,
                                    mot_io._line_rows])
    def test_directory_is_named(self, tmp_path, fn):
        with pytest.raises(FormatError, match=re.escape(f"cannot read {tmp_path}")):
            fn(str(tmp_path))



# -- a UTF-8 byte-order mark -------------------------------------------------

BOM = "\ufeff"


def read_twins(path, text, fn, caplog):
    """(result, warnings) of fn on `text` written to `path` without, then
    with, a leading BOM."""
    out = []
    for prefix in ("", BOM):
        path.write_bytes((prefix + text).encode("utf-8"))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="drone_assoc.io"):
            out.append((fn(str(path)), [r.getMessage() for r in caplog.records]))
    return out


def mot_result(path):
    table, stats = parse_mot_lines(path)
    return table.rows.tolist(), stats


class TestByteOrderMark:
    """A BOM at the start of a file is dropped, by both MOT readers and by
    the line reader: each file reads like its BOM-free twin. A BOM anywhere
    else stays a character of its line."""

    @pytest.mark.parametrize("text, converted", [
        (det_text(), False),                                        # "# det" header
        (det_text()[len("# det\n"):], False),                       # data on line 1
        (det_text() + "9,-1,0.5,3.0,0.0,12.0,0.8,1,1.0\n", False),  # a charged row
        (det_text() + "9,-1,x,3.0,10.0,12.0,0.8,1,1.0\n", True),    # numpy rejects
    ])
    def test_mot_file(self, tmp_path, monkeypatch, caplog, text, converted):
        calls = []
        line_rows = mot_io._line_rows
        monkeypatch.setattr(mot_io, "_line_rows",
                            lambda path: calls.append(path) or line_rows(path))
        plain, bom = read_twins(tmp_path / "det.txt", text, mot_result, caplog)
        assert bom == plain
        assert len(calls) == (2 if converted else 0)

    def test_bom_past_the_start_is_a_non_numeric_field(self, tmp_path, caplog):
        text = det_text() + BOM + "9,-1,0.5,3.0,10.0,12.0,0.8,1,1.0\n"
        plain, bom = read_twins(tmp_path / "det.txt", text, mot_result, caplog)
        assert bom == plain
        assert plain[1] == [f"{tmp_path / 'det.txt'}:32: non-numeric field"]

    def test_csv_sidecar(self, tmp_path, caplog):
        text = "".join(f"1,{k},1.0,2.0\n" for k in range(5))
        plain, bom = read_twins(tmp_path / "e.csv", text,
                                lambda p: parse_embeddings(p).keys.tolist(), caplog)
        assert bom == plain and plain[0] == [[1, k] for k in range(5)]

    def test_affines(self, tmp_path, caplog):
        text = "".join(f"{f},1.0,0.0,{f}.5,0.0,1.0,1.0\n" for f in range(1, 5))
        plain, bom = read_twins(
            tmp_path / "affines.csv", text,
            lambda p: {f: m.m.tolist() for f, m in parse_affines(p).items()}, caplog)
        assert bom == plain and sorted(plain[0]) == [1, 2, 3, 4]

    @pytest.mark.parametrize("text", ["seed = 3\nw_a = 0.5\n", "# run\nseed = 3\n"])
    def test_key_values(self, tmp_path, caplog, text):
        plain, bom = read_twins(tmp_path / "run.cfg", text, read_key_values, caplog)
        assert bom == plain and plain[0]["seed"] == "3"

    @pytest.mark.parametrize("line", [1, 2, 17])
    def test_bad_byte_keeps_its_line(self, tmp_path, line):
        path = with_bad_byte(tmp_path / "det.txt", det_text(), line)
        want = raises_at(parse_mot_lines, path, line)
        Path(path).write_bytes(BOM.encode("utf-8") + Path(path).read_bytes())
        assert raises_at(parse_mot_lines, path, line) == want
        assert raises_at(mot_io._line_rows, path, line) == want

"""The columnar ingest path against per-row references: the MOT parser in
lockstep with the per-row reader, the embedding block against per-vector
normalization, and the (frame, ordinal) join of detections and sidecar."""

import logging
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mot_table, reference_normalize, reference_parse_mot_lines
from drone_assoc import mot_io
from drone_assoc.core import ZeroNormError, normalize, normalize_rows
from drone_assoc.mot_io import (
    FormatError,
    IngestStats,
    SIDECAR_CHUNK_RECORDS,
    MotTable,
    RunConfig,
    parse_detections,
    parse_embeddings,
    parse_mot_lines,
    write_embeddings,
)
from drone_assoc.motion import BOX_BOUND
from drone_assoc.pipeline import run_tracking


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


def logged(fn, path):
    """(result, FormatError text or None, log records) of fn(path)."""
    logger = logging.getLogger("drone_assoc.io")
    handler, level = _Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        try:
            return fn(path), None, handler.messages
        except FormatError as e:
            return None, str(e), handler.messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# -- parse_mot_lines in lockstep with the per-row reader -----------------------

ODD_FIELDS = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "9.3e18", "-9.3e18",
              "9223372036854775807", "abc", "", " ", "0", "-0.0", "0.5", "1.7",
              "-2", " 3 ", "1e400", "3_5", "\u0663", "0.5 # note", "1#", "0x10"]

good_rows = st.tuples(
    st.integers(1, 6).map(str),
    st.integers(-1, 9).map(str),
    st.floats(-50, 50).map(repr),
    st.floats(-50, 50).map(repr),
    st.floats(0.5, 30).map(repr),
    st.floats(0.5, 30).map(repr),
    st.floats(-0.5, 1.5).map(repr),
    st.integers(0, 3).map(str),
    st.floats(0, 1).map(repr),
).map(list)


@st.composite
def mot_line(draw):
    fields = draw(good_rows)
    for i, value in draw(st.lists(st.tuples(st.integers(0, 8), st.sampled_from(ODD_FIELDS)),
                                  max_size=2)):
        fields[i] = value
    layout = draw(st.sampled_from(["full", "full", "eight", "empty_vis", "extra", "short"]))
    if layout == "eight":
        fields = fields[:8]
    elif layout == "empty_vis":
        fields[8] = ""
    elif layout == "extra":
        fields += ["7", "x"]
    elif layout == "short":
        fields = fields[:draw(st.integers(1, 7))]
    return ",".join(fields)


# odd lines mixed into a run of good ones, so that files under the 10%
# limit with malformed rows come up as often as fatal ones
mot_files = st.tuples(
    st.lists(st.one_of(
        mot_line(),
        st.sampled_from(["", "   ", "# comment", "#", "  # indented", "\t"]),
    ), max_size=12),
    st.lists(good_rows.map(",".join), max_size=40),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


def write_lines(lines, newline="\n"):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return path


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMotParserLockstep:
    # the bulk rows and their line numbers under each line ending
    @given(mot_files, st.sampled_from(["\n", "\r\n", "\r"]))
    @example(["1,-0.0,0,0,10,10,0.9,-0.5", "2,-0.7,0,0,10,10,-0.0,0.9"], "\n")  # int(-0.0) is 0
    @example(["1,1,0,0,10,10,0.9,1"] * 9 + ["1e300,1,0,0,10,10,0.9,1"], "\n")
    @example(["# c", "1,1,0,0,10,10,0.9,1"] * 5 + ["1,2,0,0,0,10,0.9,1"]
             + ["", "2,1,0,0,10,10,0.9,1"] * 5, "\r")  # a zero-extent row
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_reader(self, lines, newline):
        path = write_lines(lines, newline)
        try:
            want, want_err, want_log = logged(reference_parse_mot_lines, path)
            got, got_err, got_log = logged(parse_mot_lines, path)
        finally:
            os.remove(path)
        assert got_log == want_log
        assert got_err == want_err
        if want is None:
            return
        (table, stats), (ref_lines, ref_stats) = got, want
        assert stats == ref_stats
        assert same_bits(table.rows, mot_table(ref_lines).rows)
        assert table.frames.tolist() == [ln.frame for ln in ref_lines]
        assert table.ids.tolist() == [ln.obj_id for ln in ref_lines]
        assert table.classes.tolist() == [ln.class_id for ln in ref_lines]

    def test_fatal_file_logs_its_rows_then_raises(self, tmp_path):
        path = str(tmp_path / "det.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("1,1,0,0,10,10,0.9,1\nbroken\n1,x,0,0,10,10,0.9,1\n")
        _, err, log = logged(parse_mot_lines, path)
        assert err == f"{path}: 2 of 3 rows malformed (limit 10%)"
        assert [m for _, m in log] == [f"{path}:2: expected >=8 columns, got 1",
                                       f"{path}:3: non-numeric field"]


# -- rows whose reading hangs on how a line is split and converted ---------------

# twenty good rows; each hazard row goes in after the tenth, as line 11
HAZARD_GOOD = [f"{k // 4 + 1},{k % 4 + 1},{float(k)!r},2.5,10.0,12.0,0.75,1,0.5"
               for k in range(20)]
GOOD_ROWS = [[k // 4 + 1, k % 4 + 1, float(k), 2.5, 10.0, 12.0, 0.75, 1, 0.5]
             for k in range(20)]


def hazard_file(tmp_path, hazard, newline="\n"):
    path = str(tmp_path / "det.txt")
    lines = HAZARD_GOOD[:10] + [hazard] + HAZARD_GOOD[10:]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(lines) + newline)
    return path


class TestIngestHazards:
    """Each hazard sits among good rows; the rows, IngestStats and warning
    lines are pinned."""

    def parse(self, path):
        result, err, log = logged(parse_mot_lines, path)
        assert err is None
        table, stats = result
        return table.rows.tolist(), stats, [m for _, m in log]

    @pytest.mark.parametrize("hazard", [
        "1,2,3.5,4,5,6,0.9,1,1.0 # note",   # a comment would end the row early
        "1,2,3.5,4,5,6,0.9,1,1.0# note",
        "1,2,3.5,4,5,6,0.9,1#,1.0",
    ])
    def test_mid_line_hash_is_a_malformed_row(self, tmp_path, hazard):
        path = hazard_file(tmp_path, hazard)
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS
        assert stats == IngestStats(lines=21, malformed=1)
        assert log == [f"{path}:11: non-numeric field"]

    def test_hash_past_the_ninth_column_is_ignored(self, tmp_path):
        path = hazard_file(tmp_path, "1,2,3.5,4,5,6,0.9,1,1.0,a # note")
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS[:10] + [[1, 2, 3.5, 4, 5, 6, 0.9, 1, 1.0]] + GOOD_ROWS[10:]
        assert stats == IngestStats(lines=21)
        assert log == []

    def test_comment_lines_with_hashes_inside_are_skipped(self, tmp_path):
        path = str(tmp_path / "det.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# header # with a second hash\n")
            fh.write("\n".join(HAZARD_GOOD[:10] + ["  \t# indented # comment"]
                               + HAZARD_GOOD[10:]) + "\n#\n")
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS
        assert stats == IngestStats(lines=20)
        assert log == []

    @pytest.mark.parametrize("hazard, x", [
        ("1,2,3_5,4,5,6,0.9,1,1.0", 35.0),          # float() takes underscores
        ("1,2,٣,4,5,6,0.9,1,1.0", 3.0),        # and Unicode digits
        ("1,2,٣.٥,4,5,6,0.9,1,1.0", 3.5),
    ])
    def test_float_spellings_are_kept(self, tmp_path, hazard, x):
        path = hazard_file(tmp_path, hazard)
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS[:10] + [[1, 2, x, 4, 5, 6, 0.9, 1, 1.0]] + GOOD_ROWS[10:]
        assert stats == IngestStats(lines=21)
        assert log == []

    @pytest.mark.parametrize("hazard", [
        "1,2,3.5,4,5,6,0.9,1,",       # empty visibility
        "1,2,3.5,4,5,6,0.9,1",        # 8 columns
        "1,2,3.5,4,5,6,0.9,1, ",      # the line is stripped before it is split
    ])
    def test_missing_visibility_defaults_to_one(self, tmp_path, hazard):
        path = hazard_file(tmp_path, hazard)
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS[:10] + [[1, 2, 3.5, 4, 5, 6, 0.9, 1, 1.0]] + GOOD_ROWS[10:]
        assert stats == IngestStats(lines=21)
        assert log == []

    def test_blank_field_is_non_numeric(self, tmp_path):
        path = hazard_file(tmp_path, "1,2, ,4,5,6,0.9,1,1.0")
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS
        assert stats == IngestStats(lines=21, malformed=1)
        assert log == [f"{path}:11: non-numeric field"]

    def test_mixed_nine_and_ten_column_rows(self, tmp_path):
        path = str(tmp_path / "det.txt")
        lines = [row + (",-1" if k % 3 == 0 else "") + (",x,7" if k % 5 == 0 else "")
                 for k, row in enumerate(HAZARD_GOOD)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS
        assert stats == IngestStats(lines=20)
        assert log == []

    @pytest.mark.parametrize("newline", ["\r\n", "\t\n", "\t\r\n", " \n", "\r"])
    def test_line_endings(self, tmp_path, newline):
        path = hazard_file(tmp_path, "1,2,3.5,4,5,6,0.9,1,1.0", newline=newline)
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS[:10] + [[1, 2, 3.5, 4, 5, 6, 0.9, 1, 1.0]] + GOOD_ROWS[10:]
        assert stats == IngestStats(lines=21)
        assert log == []

    def test_crlf_malformed_row_is_named_by_its_line(self, tmp_path):
        path = hazard_file(tmp_path, "1,2,x,4,5,6,0.9,1,1.0", newline="\r\n")
        rows, stats, log = self.parse(path)
        assert rows == GOOD_ROWS
        assert stats == IngestStats(lines=21, malformed=1)
        assert log == [f"{path}:11: non-numeric field"]

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "#a\n  # b\n\n"])
    def test_file_without_rows(self, tmp_path, text):
        path = tmp_path / "det.txt"
        path.write_text(text, encoding="utf-8")
        rows, stats, log = self.parse(str(path))
        assert rows == []
        assert stats == IngestStats()
        assert log == []


class TestLinePassDispatch:
    """A file is converted once: by the per-line converter only when numpy's
    reader rejects it. The file's lines are read once more (one _text_lines
    pass) only by the converter, or for the line numbers of a charged row
    in a bulk-read block; clamping a score charges no row."""

    # numpy's reader rejects these three hazards
    REJECTED = {"1,2,3.5,4,5,6,0.9,1,1.0 # note", "1,2,3_5,4,5,6,0.9,1,1.0",
                "1,2,3.5,4,5,6,0.9,1"}

    @pytest.mark.parametrize("hazard, line_pass", [
        ("1,2,3.5,4,5,6,1.5,1,1.0,-1", False),  # clamped score, ten columns
        ("1,2,3.5,4,5,6,0.9,1,1.0 # note", True),
        ("1,2,3_5,4,5,6,0.9,1,1.0", True),
        ("1,2,3.5,4,5,6,0.9,1", True),
        ("1,2,3.5,4,0,6,0.9,1,1.0", True),        # skipped: no extent
        ("0,2,3.5,4,5,6,0.9,1,1.0", True),        # frame below 1
        ("1,2,nan,4,5,6,0.9,1,1.0", True),
    ])
    def test_line_pass_runs_only_when_needed(self, tmp_path, monkeypatch, hazard, line_pass):
        converted, passes = [], []
        line_rows, text_lines = mot_io._line_rows, mot_io._text_lines
        monkeypatch.setattr(mot_io, "_line_rows",
                            lambda path: converted.append(path) or line_rows(path))
        monkeypatch.setattr(mot_io, "_text_lines",
                            lambda path: passes.append(path) or text_lines(path))
        path = hazard_file(tmp_path, hazard, newline="\r\n")
        result, err, log = logged(parse_mot_lines, path)
        assert err is None
        table, stats = result
        assert converted == ([path] if hazard in self.REJECTED else [])
        assert passes == ([path] if line_pass else [])
        assert stats.lines == 21 and len(table) == 21 - stats.malformed - stats.skipped_empty_box
        named = [m for _, m in log if m.startswith(f"{path}:11: ")]
        assert len(named) == stats.malformed + stats.skipped_empty_box


class TestInt64Fields:
    @pytest.mark.parametrize("bad", [
        "1e300,1,0,0,10,10,0.9,1",
        "1,9.3e18,0,0,10,10,0.9,1",
        "1,1,0,0,10,10,0.9,-1e19",
        "9223372036854775807,1,0,0,10,10,0.9,1",  # rounds up to 2**63
    ])
    def test_past_int64_is_malformed(self, tmp_path, bad):
        path = str(tmp_path / "det.txt")
        rows = ["1,1,0,0,10,10,0.9,1"] * 10
        rows[5:5] = [bad]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        result, err, log = logged(parse_mot_lines, path)
        assert err is None
        table, stats = result
        assert len(table) == 10 and stats.malformed == 1
        assert log == [(logging.WARNING,
                        f"{path}:6: frame, id or class outside the int64 range")]

    def test_largest_int64_values_are_kept(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,9.2e18,0,0,10,10,0.9,-9.2e18\n")
        table, stats = parse_mot_lines(str(path))
        assert stats.malformed == 0
        assert table.ids.tolist() == [9200000000000000000]
        assert table.classes.tolist() == [-9200000000000000000]

    def test_table_rejects_non_integer_columns(self):
        MotTable(np.zeros((0, 9)))
        row = np.array([[1, 1, 0, 0, 10, 10, 0.9, 1, 1.0]])
        assert len(MotTable(row)) == 1
        for col, value in ((0, 1.5), (1, np.nan), (7, 2.0 ** 63)):
            bad = row.copy()
            bad[0, col] = value
            with pytest.raises(ValueError):
                MotTable(bad)


# -- boxes past the filter's range ----------------------------------------------

# boxes whose filters overflowed and made a frame raise before ingest charged
# them: (x, y, w, h) and the frames that detect the box; the first three
# frames of a run confirm their tracks, so a box seen at frames 1 and 2 is a
# confirmed track when it is lost
OVERFLOWING = {
    "initial covariance": ((5.0, 1.0, 3.0, 1e156), (1,)),
    "innovation covariance": ((5.0, 1.0, 3.0, 1e155), (1, 2)),
    "covariance of a lost track": ((5.0, 1.0, 3.0, 1e154), (1, 2)),
    "aspect ratio": ((5.0, 1.0, 10.0, 1e-308), (1,)),
    "centre": ((1.7e308, 1.0, 1e308, 3.0), (1,)),
}
# boxes at the bound on each side it limits
AT_BOUND = {
    "corner": (-BOX_BOUND, BOX_BOUND, BOX_BOUND, BOX_BOUND),
    "aspect ratio": (0.0, 0.0, BOX_BOUND, 1.0),
    "smallest height": (0.0, 0.0, 1.0 / BOX_BOUND, 1.0 / BOX_BOUND),
}


def range_scene(tmp_path, extra_rows=(), n_frames=40, embed_extra=False):
    """A detection file of two objects over n_frames frames, then
    `extra_rows` appended as (frame, x, y, w, h), at most one a frame; the
    sidecar holds the two objects' records and, with `embed_extra`, those
    of the extra rows. Returns the detection path, the sidecar path and the
    extra rows' lines."""
    rows = [f"{f},-1,{10.0 + f!r},20.0,10.0,12.0,0.9,1,1" for f in range(1, n_frames + 1)]
    rows += [f"{f},-1,200.0,{50.0 + 2 * f!r},15.0,15.0,0.8,1,1"
             for f in range(1, n_frames + 1)]
    records = [(f, o, basis(o)) for f in range(1, n_frames + 1) for o in range(2)]
    rows += [f"{f},-1," + ",".join(repr(float(v)) for v in box) + ",0.9,1,1"
             for f, *box in extra_rows]
    if embed_extra:
        records += [(row[0], 2, basis(2)) for row in extra_rows]
    det = str(tmp_path / "det.txt")
    with open(det, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    emb = str(tmp_path / "emb.bin")
    write_embeddings(emb, records, 16)
    first = 2 * n_frames + 1
    return det, emb, list(range(first, first + len(extra_rows)))


def tracked_bytes(tmp_path, det, emb, **settings) -> bytes:
    out = str(tmp_path / "results.txt")
    run_tracking(RunConfig(detections=det, embeddings=emb, output=out, **settings))
    with open(out, "rb") as fh:
        return fh.read()


class TestFilterRange:
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_box_is_charged_and_changes_no_byte(self, tmp_path, case):
        box, frames = OVERFLOWING[case]
        clean = tmp_path / "clean"
        clean.mkdir()
        det, emb, lines = range_scene(tmp_path, [(f, *box) for f in frames])
        result, err, log = logged(parse_mot_lines, det)
        assert err is None
        table, stats = result
        assert (len(table), stats.malformed) == (80, len(frames))
        assert log == [(logging.WARNING, f"{det}:{n}: box outside the filter's range")
                       for n in lines]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            got = tracked_bytes(tmp_path, det, emb)
        assert got == tracked_bytes(clean, *range_scene(clean)[:2])

    @pytest.mark.parametrize("case", sorted(AT_BOUND))
    def test_box_at_the_bound_is_kept_and_tracked_until_removed(self, tmp_path, case):
        """Matched at frames 1 and 2, then lost for max_lost_age frames: no
        frame raises, and the track is emitted until it is lost. A gate of 0
        lets the smallest box, whose IoU with its own prediction is near 0,
        match too."""
        max_lost_age = RunConfig().max_lost_age
        det, emb, _ = range_scene(tmp_path, [(f, *AT_BOUND[case]) for f in (1, 2)],
                                  n_frames=max_lost_age + 3, embed_extra=True)
        table, stats = parse_mot_lines(det)
        assert stats.malformed == 0 and len(table) == 2 * (max_lost_age + 3) + 2
        # online RANSAC scores these centres with residuals that overflow
        with np.errstate(over="ignore", invalid="ignore"):
            results = tracked_bytes(tmp_path, det, emb, iou_gate=0.0).decode().splitlines()
        rows = [line.split(",") for line in results]
        assert [int(r[0]) for r in rows if int(r[1]) == 3] == [1, 2]
        assert all(np.isfinite([float(v) for v in r[2:7]]).all() for r in rows)

    def test_each_field_past_the_bound_is_charged(self, tmp_path):
        past = np.nextafter(BOX_BOUND, np.inf)
        boxes = [(past, 0.0, 1.0, 1.0), (0.0, -past, 1.0, 1.0), (0.0, 0.0, past, 1.0),
                 (0.0, 0.0, 1.0, past), (0.0, 0.0, 1.0, np.nextafter(1.0 / BOX_BOUND, 0.0)),
                 (0.0, 0.0, BOX_BOUND, np.nextafter(1.0, 0.0))]
        det, _, lines = range_scene(tmp_path, [(1, *box) for box in boxes])
        result, err, log = logged(parse_mot_lines, det)
        assert err is None and result[1].malformed == len(boxes)
        assert [m for _, m in log] == [f"{det}:{n}: box outside the filter's range"
                                       for n in lines]


# -- the embedding block ----------------------------------------------------


class TestNormalizeRows:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 31, 32, 64, 127, 128, 129])
    def test_rows_equal_per_vector_normalize_bit_for_bit(self, dim):
        g = np.random.default_rng(dim)
        block = (g.normal(size=(300, dim)) * g.uniform(1e-3, 1e3, (300, 1)))
        block = block.astype(np.float32).astype(np.float64)
        want = [reference_normalize(v) for v in block]
        single = [normalize(v) for v in block]
        got = normalize_rows(block.copy())
        for row, w, s in zip(got, want, single):
            assert same_bits(row, w) and same_bits(s, w)

    @pytest.mark.parametrize("bad,what", [(0.0, "zero-length"), (np.nan, "non-finite"),
                                          (np.inf, "non-finite")])
    def test_first_bad_row_is_named_and_block_untouched(self, bad, what):
        block = np.ones((5, 3))
        block[2] = bad
        block[4] = bad
        before = block.copy()
        with pytest.raises(ZeroNormError, match=what) as exc:
            normalize_rows(block)
        assert exc.value.row == 2
        assert same_bits(block, before)

    def test_empty_block(self):
        assert normalize_rows(np.zeros((0, 4))).shape == (0, 4)


def write_csv_sidecar(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# frame,ordinal,v...\n")
        for frame, ordinal, vec in records:
            vals = ",".join(repr(float(v)) for v in vec)
            fh.write(f"{frame},{ordinal},{vals}\n")


class TestEmbeddingBlock:
    def records(self, n=40, dim=16, seed=3):
        g = np.random.default_rng(seed)
        keys = [(f, o) for f in range(1, 9) for o in range(5)][:n]
        g.shuffle(keys)
        # float32 values, so both formats hold the same numbers
        return [(f, o, g.normal(size=dim).astype(np.float32)) for f, o in keys]

    def test_binary_and_csv_give_the_same_block(self, tmp_path):
        records = self.records()
        binary, csv = str(tmp_path / "e.bin"), str(tmp_path / "e.csv")
        write_embeddings(binary, records, 16)
        write_csv_sidecar(csv, records)
        a, b = parse_embeddings(binary, 16), parse_embeddings(csv, 16)
        assert a.keys.tolist() == b.keys.tolist() == [[f, o] for f, o, _ in records]
        assert same_bits(a.vectors, b.vectors)
        assert len(a[0]) == len(records)

    def test_rows_equal_normalize_of_each_record(self, tmp_path):
        records = self.records()
        path = str(tmp_path / "e.bin")
        write_embeddings(path, records, 16)
        block = parse_embeddings(path).vectors
        assert block.dtype == np.float64 and block.flags.c_contiguous
        for row, (_, _, vec) in zip(block, records):
            assert same_bits(row, normalize(vec.astype(np.float64)))

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    @pytest.mark.parametrize("case,want", [
        # (frame, ordinal, vector kind) in file order, and the record named
        ([(1, 0, "ok"), (1, 1, "zero"), (1, 0, "ok"), (2, 0, "nan")],
         ("norm", 1, "zero-length")),
        ([(1, 0, "ok"), (1, 0, "ok"), (1, 1, "zero")], ("dup", 1, None)),
        ([(1, 0, "ok"), (1, 1, "nan"), (1, 2, "zero"), (1, 1, "ok")],
         ("norm", 1, "non-finite")),
        ([(1, 0, "ok"), (1, 0, "zero")], ("dup", 1, None)),
    ])
    def test_first_bad_record_in_file_order_is_named(self, tmp_path, fmt, case, want):
        vec = {"ok": [3.0, 4.0], "zero": [0.0, 0.0], "nan": [np.nan, 1.0]}
        records = [(f, o, np.array(vec[kind])) for f, o, kind in case]
        path = str(tmp_path / ("e.bin" if fmt == "binary" else "e.csv"))
        if fmt == "binary":
            write_embeddings(path, records, 2)
        else:
            write_csv_sidecar(path, records)
        kind, index, what = want
        frame, ordinal = case[index][:2]
        if kind == "dup":
            pattern = rf"duplicate embedding for \({frame}, {ordinal}\)"
        elif fmt == "binary":
            pattern = rf"e\.bin: embedding for frame {frame} ordinal {ordinal}: .*{what}"
        else:
            pattern = rf"e\.csv:{index + 2}: .*{what}"  # line 1 is the comment
        with pytest.raises(FormatError, match=pattern):
            parse_embeddings(path)

    def test_csv_broken_line_after_a_bad_vector_names_the_vector(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,0,1.0,0.0\n1,1,0.0,0.0\n1,2,x,1.0\n")
        with pytest.raises(FormatError, match=r"e\.csv:2: .*zero-length"):
            parse_embeddings(str(path))
        path.write_text("1,0,1.0,0.0\n1,1,x,1.0\n1,2,0.0,0.0\n")
        with pytest.raises(FormatError, match=r"e\.csv:2: non-numeric field"):
            parse_embeddings(str(path))

    def test_csv_key_past_int64_is_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(f"1,0,1.0,0.0\n{2 ** 63},0,1.0,0.0\n")
        with pytest.raises(FormatError, match=r"e\.csv:2: frame or ordinal outside"):
            parse_embeddings(str(path))


# -- the (frame, ordinal) join -----------------------------------------------


def basis(i, dim=16):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestEmbeddingJoin:
    def test_interleaved_frames_attach_by_file_order_ordinals(self, tmp_path):
        det = tmp_path / "det.txt"
        # x marks each row; frame 1 holds x = 10, 30, 50 and frame 2 x = 0, 20
        det.write_text("2,1,0,0,10,10,0.9,1\n1,1,10,0,10,10,0.9,1\n"
                       "2,1,20,0,10,10,0.9,1\n1,1,30,0,10,10,0.9,1\n"
                       "1,1,50,0,10,10,0.9,1\n")
        emb = str(tmp_path / "e.bin")
        keys = [(2, 1), (1, 2), (1, 0), (2, 0), (1, 1)]
        write_embeddings(emb, [(f, o, basis(10 * (f - 1) + o)) for f, o in keys], 16)
        frames = parse_detections(str(det), emb, 16)
        assert [fd.frame for fd in frames] == [1, 2]
        assert frames[0].boxes[:, 0].tolist() == [10.0, 30.0, 50.0]
        assert frames[1].boxes[:, 0].tolist() == [0.0, 20.0]
        for fd in frames:
            for ordinal, row in enumerate(fd.embeddings):
                assert np.array_equal(row, basis(10 * (fd.frame - 1) + ordinal))

    def test_skipped_rows_take_no_ordinal(self, tmp_path):
        det = tmp_path / "det.txt"
        rows = ["1,1,0,0,10,10,0.9,1",
                "1,1,zero,0,10,10,0.9,1",       # malformed
                "1,1,5,0,0,10,0.9,1",           # empty box
                "1,1,40,0,10,10,0.9,1"]
        rows += [f"2,1,{x},0,10,10,0.9,1" for x in range(0, 100, 10)]
        det.write_text("\n".join(rows) + "\n")
        emb = str(tmp_path / "e.bin")
        records = [(1, 0, basis(0)), (1, 1, basis(1))]
        records += [(2, o, basis(o)) for o in range(10)]
        write_embeddings(emb, records, 16)
        frames = parse_detections(str(det), emb, 16)
        assert frames[0].boxes[:, 0].tolist() == [0.0, 40.0]
        assert np.array_equal(frames[0].embeddings, np.stack([basis(0), basis(1)]))

    def test_missing_embedding_names_the_first_pair(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("2,1,0,0,10,10,0.9,1\n2,1,0,0,10,10,0.9,1\n"
                       "1,1,0,0,10,10,0.9,1\n3,1,0,0,10,10,0.9,1\n")
        emb = str(tmp_path / "e.bin")
        write_embeddings(emb, [(1, 0, basis(0)), (2, 0, basis(1))], 16)
        with pytest.raises(FormatError, match=r"e\.bin: no embedding for frame 2 ordinal 1$"):
            parse_detections(str(det), emb, 16)

    def test_dropped_detection_still_needs_its_embedding(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("1,1,0,0,10,10,0.9,1\n1,1,20,0,10,10,0.05,1\n")
        emb = str(tmp_path / "e.bin")
        write_embeddings(emb, [(1, 0, basis(0))], 16)
        with pytest.raises(FormatError, match=r"e\.bin: no embedding for frame 1 ordinal 1$"):
            parse_detections(str(det), emb, 16, min_score=0.1)

    def test_min_score_filter_keeps_the_pairing(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("1,1,0,0,10,10,0.05,1\n1,1,20,0,10,10,0.9,1\n"
                       "1,1,40,0,10,10,0.01,1\n1,1,60,0,10,10,0.5,1\n")
        emb = str(tmp_path / "e.bin")
        write_embeddings(emb, [(1, o, basis(o)) for o in range(4)], 16)
        (fd,) = parse_detections(str(det), emb, 16, min_score=0.1)
        assert fd.boxes[:, 0].tolist() == [20.0, 60.0]
        assert fd.scores.tolist() == [0.9, 0.5]
        assert np.array_equal(fd.embeddings, np.stack([basis(1), basis(3)]))

    def test_frame_whose_rows_all_drop_stays_as_an_empty_frame(self, tmp_path):
        det = tmp_path / "det.txt"
        det.write_text("1,1,0,0,10,10,0.05,1\n2,1,0,0,10,10,0.9,1\n")
        frames = parse_detections(str(det), min_score=0.1)
        assert [(fd.frame, len(fd)) for fd in frames] == [(1, 0), (2, 1)]
        assert frames[0].boxes.shape == (0, 4) and frames[0].embeddings is None

    def test_csv_frame_past_the_u32_range_attaches(self, tmp_path):
        big = 2 ** 32 + 5
        det = tmp_path / "det.txt"
        det.write_text(f"3,1,0,0,10,10,0.9,1\n{big},1,20,0,10,10,0.9,1\n")
        emb = str(tmp_path / "e.csv")
        write_csv_sidecar(emb, [(big, 0, basis(1)), (3, 0, basis(0))])
        frames = parse_detections(str(det), emb, 16)
        assert [fd.frame for fd in frames] == [3, big]
        assert np.array_equal(frames[1].embeddings, basis(1)[None])

    @pytest.mark.parametrize("text", ["", "# no detections\n"])
    def test_no_detections_with_a_sidecar_give_no_frames(self, tmp_path, text):
        det = tmp_path / "det.txt"
        det.write_text(text)
        emb = str(tmp_path / "e.bin")
        write_embeddings(emb, [(1, 0, basis(0)), (2, 3, basis(1))], 16)
        assert parse_detections(str(det), emb, 16) == []

    @pytest.mark.parametrize("suffix", ["bin", "csv"])
    def test_records_that_match_no_detection_are_ignored(self, tmp_path, suffix):
        det = tmp_path / "det.txt"
        det.write_text("3,1,0,0,10,10,0.9,1\n1,1,10,0,10,10,0.9,1\n"
                       "1,1,20,0,10,10,0.9,1\n")
        emb = str(tmp_path / f"e.{suffix}")
        records = [(1, 0, basis(0)), (1, 1, basis(1)), (3, 0, basis(2))]
        # a frame with no rows, an ordinal at and past its frame's count,
        # frames before the first and after the last, and in CSV negatives
        strays = [(2, 0, basis(3)), (1, 2, basis(4)), (3, 7, basis(5)), (9, 0, basis(6)),
                  (0, 0, basis(7))]
        if suffix == "csv":
            strays += [(1, -1, basis(8)), (-3, 0, basis(9))]
            write_csv_sidecar(emb, strays[:2] + records + strays[2:])
        else:
            write_embeddings(emb, strays[:2] + records + strays[2:], 16)
        frames = parse_detections(str(det), emb, 16)
        assert [fd.frame for fd in frames] == [1, 3]
        assert np.array_equal(frames[0].embeddings, np.stack([basis(0), basis(1)]))
        assert np.array_equal(frames[1].embeddings, basis(2)[None])
        # every detection still needs its own record; a stray stands in for none
        if suffix == "csv":
            write_csv_sidecar(emb, records[:2] + strays)
        else:
            write_embeddings(emb, records[:2] + strays, 16)
        with pytest.raises(FormatError, match=r"no embedding for frame 3 ordinal 0$"):
            parse_detections(str(det), emb, 16)


# -- the chunked sidecar reader ----------------------------------------------

CHUNK = SIDECAR_CHUNK_RECORDS


def reference_unit_rows(path):
    """{(frame, ordinal): unit row} of a binary sidecar, with the whole file
    widened to float64 and normalized in one normalize_rows call."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _, _, dim, _ = struct.unpack("<4sIII", blob[:16])
    rec = np.dtype([("frame", "<u4"), ("ordinal", "<u4"), ("vec", "<f4", (dim,))])
    records = np.frombuffer(blob, dtype=rec, offset=16)
    block = normalize_rows(records["vec"].astype(np.float64))
    keys = zip(records["frame"].tolist(), records["ordinal"].tolist())
    return dict(zip(keys, block))


def detection_scene(tmp_path, count, dim=16, seed=0, per_frame=7):
    """A detection file of `count` rows, `per_frame` to a frame and the
    frames interleaved, and an unsorted binary sidecar with one record per
    row; scores run from 0 to 1, so a min_score drops a share of rows."""
    g = np.random.default_rng(seed)
    frames = [k // per_frame + 1 for k in range(count)]
    g.shuffle(frames)
    seen: dict[int, int] = {}
    keys, lines = [], []
    for k, frame in enumerate(frames):
        keys.append((frame, seen.setdefault(frame, 0)))
        seen[frame] += 1
        lines.append(f"{frame},-1,{float(k)!r},0.0,10.0,10.0,{k / count!r},1,1.0")
    det = tmp_path / "det.txt"
    det.write_text("# scene\n" + "\n".join(lines) + "\n")
    vectors = g.normal(size=(count, dim)) * g.uniform(1e-3, 1e3, (count, 1))
    order = g.permutation(count)
    emb = str(tmp_path / "e.bin")
    write_embeddings(emb, [(*keys[i], vectors[i]) for i in order], dim)
    return str(det), emb, keys


class TestChunkedSidecar:
    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("min_score", [0.0, 0.35])
    def test_block_equals_the_whole_file_normalized_then_gathered(
            self, tmp_path, count, min_score):
        det, emb, keys = detection_scene(tmp_path, count, seed=count)
        ref = reference_unit_rows(emb)
        frames = parse_detections(det, emb, 16, min_score=min_score)
        got = np.concatenate([fd.embeddings for fd in frames])
        # x holds each row's file index, which names its (frame, ordinal)
        want = [ref[keys[int(x)]] for fd in frames for x in fd.boxes[:, 0]]
        assert len(want) == sum(k / count >= min_score for k in range(count))
        assert same_bits(got, np.array(want).reshape(-1, 16))
        assert all(fd.embeddings.base is frames[0].embeddings.base for fd in frames)

    @pytest.mark.parametrize("count", [0, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_parse_embeddings_reads_every_record_in_file_order(self, tmp_path, count):
        g = np.random.default_rng(count)
        records = [(k // 5 + 1, k % 5, g.normal(size=8)) for k in range(count)]
        g.shuffle(records)
        path = str(tmp_path / "e.bin")
        write_embeddings(path, records, 8)
        ref = reference_unit_rows(path)
        emb = parse_embeddings(path)
        assert emb.keys.tolist() == [[f, o] for f, o, _ in records]
        want = np.array([ref[(f, o)] for f, o, _ in records]).reshape(-1, 8)
        assert same_bits(emb.vectors, want)
        assert emb.vectors.dtype == np.float64 and emb.vectors.flags.c_contiguous

    def test_peak_memory_stays_near_the_returned_blocks(self, tmp_path):
        """The traced peak of a parse stays under 1.3x the blocks it hands
        back: no whole-file copy and no second float64 block."""
        self.assert_peak_near_the_blocks(tmp_path, "binary")

    def test_peak_memory_with_a_csv_sidecar(self, tmp_path):
        """The same bound with the sidecar in CSV form: the file is not held
        as Python floats."""
        self.assert_peak_near_the_blocks(tmp_path, "csv")

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_parse_embeddings_peak_stays_near_its_blocks(self, tmp_path, fmt):
        count, dim = 20_000, 64
        emb = self.sidecar(tmp_path, fmt, count, dim)
        tracemalloc.start()
        try:
            parse_embeddings(emb, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = count * (2 + dim) * 8  # keys, embeddings
        assert peak < 1.3 * returned, f"peak {peak / 1e6:.1f} MB"

    @staticmethod
    def sidecar(tmp_path, fmt, count, dim):
        """A sidecar of `count` float32 records, 100 to a frame, in `fmt`."""
        vectors = np.random.default_rng(5).normal(size=(count, dim)).astype(np.float32)
        records = [(k // 100 + 1, k % 100, vectors[k]) for k in range(count)]
        if fmt == "binary":
            emb = str(tmp_path / "e.bin")
            write_embeddings(emb, records, dim)
        else:
            emb = str(tmp_path / "e.csv")
            write_csv_sidecar(emb, records)
        return emb

    def assert_peak_near_the_blocks(self, tmp_path, fmt):
        count, dim = 20_000, 64
        det = tmp_path / "det.txt"
        det.write_text("".join(f"{k // 100 + 1},-1,{k}.5,3.0,10.0,12.0,0.8,1,1.0\n"
                               for k in range(count)))
        emb = self.sidecar(tmp_path, fmt, count, dim)
        tracemalloc.start()
        try:
            frames = parse_detections(str(det), emb, dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = count * (9 + 1 + dim) * 8  # rows, classes, embeddings
        assert sum(len(fd) for fd in frames) == count
        assert peak < 1.3 * returned, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("case, want", [
        # {record index: vector or key change}, the error the parse raises
        ({CHUNK + 4: "zero"},
         ": embedding for frame {0} ordinal {1}: cannot normalize a zero-length "
         "embedding"),
        ({CHUNK - 1: "zero", CHUNK + 4: "nan"},
         ": embedding for frame {0} ordinal {1}: cannot normalize a zero-length "
         "embedding"),
        ({CHUNK + 4: "nan", CHUNK + 9: "zero"},
         ": embedding for frame {0} ordinal {1}: cannot normalize a non-finite "
         "embedding"),
        ({CHUNK + 4: "dup"}, ": duplicate embedding for ({0}, {1})"),
        ({CHUNK + 4: "dup", CHUNK + 9: "inf"}, ": duplicate embedding for ({0}, {1})"),
        ({CHUNK + 4: "inf", 2 * CHUNK: "dup"},
         ": embedding for frame {0} ordinal {1}: cannot normalize a non-finite "
         "embedding"),
    ])
    def test_first_bad_record_across_chunks_is_named(self, tmp_path, case, want):
        count = 2 * CHUNK + 5
        keys = [(k // 7 + 1, k % 7) for k in range(count)]
        det = tmp_path / "det.txt"
        det.write_text("".join(f"{f},-1,0.0,0.0,10.0,10.0,0.9,1,1.0\n" for f, _ in keys))
        vectors = np.random.default_rng(1).normal(size=(count, 4))
        record_keys = list(keys)
        for i, change in case.items():
            if change == "dup":
                record_keys[i] = keys[3]
            else:
                vectors[i] = {"zero": 0.0, "nan": np.nan, "inf": np.inf}[change]
        emb = str(tmp_path / "e.bin")
        write_embeddings(emb, [(*k, v) for k, v in zip(record_keys, vectors)], 4)
        first = min(case)
        with pytest.raises(FormatError) as exc:
            parse_detections(str(det), emb, 4)
        assert str(exc.value) == emb + want.format(*record_keys[first])
        with pytest.raises(FormatError) as exc_all:
            parse_embeddings(emb)
        assert str(exc_all.value) == str(exc.value)


def test_csv_error_order_across_chunks(tmp_path):
    """A bad norm and a structurally broken line in different chunks: the one
    earlier in the file is reported."""
    lines = [f"{k // 7 + 1},{k % 7},1.0,2.0" for k in range(2 * CHUNK)]
    for early, late, want in [("0,0,0.0,0.0", "1,2", "cannot normalize a zero-length embedding"),
                              ("1,2", "0,0,0.0,0.0", "embedding row too short")]:
        lines[5], lines[CHUNK + 7] = early, late
        path = tmp_path / "e.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            parse_embeddings(str(path))
        assert str(exc.value) == f"{path}:6: {want}"


@pytest.mark.parametrize("parse", ["embeddings", "detections"])
def test_each_binary_record_is_read_once(tmp_path, monkeypatch, parse):
    """Bytes read from the sidecar through mot_io's open come to less than
    the file plus one record: no record is read twice."""
    det, emb, _ = detection_scene(tmp_path, 3 * CHUNK + 11)
    total = [0]

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, *args):
            data = self.fh.read(*args)
            total[0] += len(data)
            return data

        def readinto(self, buffer):
            n = self.fh.readinto(buffer)
            total[0] += n
            return n

    def counting_open(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return Counting(fh) if path == emb else fh

    monkeypatch.setattr(mot_io, "open", counting_open, raising=False)
    if parse == "embeddings":
        parse_embeddings(emb)
    else:
        parse_detections(det, emb, 16)
    record = 8 + 16 * 4
    assert 0 < total[0] < os.path.getsize(emb) + record

"""The columnar ingest path against per-row references: the MOT parser in
lockstep with the per-row reader, the embedding block against per-vector
normalization, and the (frame, ordinal) join of detections and sidecar."""

import logging
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mot_table, reference_normalize, reference_parse_mot_lines
from drone_assoc.core import ZeroNormError, normalize, normalize_rows
from drone_assoc.mot_io import (
    FormatError,
    MotTable,
    parse_detections,
    parse_embeddings,
    parse_mot_lines,
    write_embeddings,
)


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
              "-2", " 3 ", "1e400"]

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


def write_lines(lines):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMotParserLockstep:
    @given(mot_files)
    @example(["1,-0.0,0,0,10,10,0.9,-0.5", "2,-0.7,0,0,10,10,-0.0,0.9"])  # int(-0.0) is 0
    @example(["1,1,0,0,10,10,0.9,1"] * 9 + ["1e300,1,0,0,10,10,0.9,1"])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_reader(self, lines):
        path = write_lines(lines)
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
        (table, stats), err, log = logged(parse_mot_lines, path)
        assert err is None
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

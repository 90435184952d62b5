"""File formats.

Every text input is streamed through one line reader, _text_lines: UTF-8
less a leading BOM, lines ending at LF, CR or CRLF and numbered from 1,
blanks and lines that start with ``#`` skipped. An unreadable path, or a
byte that is not UTF-8 on any line, is a FormatError naming the file, and
for a byte its line.

Detections and ground truth use MOT-style CSV rows
``frame,id,x,y,w,h,score,class,visibility`` (first 9 columns read, extras
ignored). parse_mot_lines reads a file into a MotTable: one (R, 9) float64
block in file order, with int64 frame, id and class columns. A file is
converted once, by np.loadtxt, or line by line when that rejects it or a
'#' follows a field; the rules then charge the rows of either block once.

Embeddings ride in a binary sidecar keyed by (frame, ordinal-within-frame);
a CSV fallback with rows ``frame,ordinal,v0..v{D-1}`` is accepted. Either
is read once, in chunks of records: one reader collects the keys, checks
every norm of each chunk, and places the rows asked for, as stored, in the
block it returns: float32 rows from the binary form, float64 from CSV; the
tracker normalizes them. parse_embeddings asks for every record;
parse_detections places record (f, o) on row o of frame f's run, ignores
records that match no detection, and slices its block by frame. Affine sidecars
are CSV rows ``frame,a,b,tx,c,d,ty``. Results are written as
``frame,id,x,y,w,h,score,class,-1,-1`` sorted by (frame, id).

Frames are 1-based; ordinals are 0-based positions of a detection within
its frame, counted in file order. Floats are written with repr so that
write -> parse round-trips exactly and reruns are byte-identical. One
codec reads every ``key = value`` config, the run config and the scenario
file: each field's reader is picked by its declared type (field_codecs).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import re
import struct
import typing
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BoundingBox,
    ConfigError,
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    checked_norms,
)
from .motion import BOX_BOUND, AffineTransform

log = logging.getLogger("drone_assoc.io")

EMBEDDING_MAGIC = b"DEMB"
EMBEDDING_VERSION = 1
MALFORMED_FATAL_RATIO = 0.10

# MotTable columns that hold integers: frame, id and class
_INT_COLUMNS = [0, 1, 7]
# integer fields must lie in [-2**63, 2**63), the int64 range
_INT64_BOUND = 2.0 ** 63


class FormatError(ValueError):
    """Raised for unreadable or structurally broken input files."""


@contextmanager
def _opened(path: str, binary: bool = False) -> Iterator[IO]:
    """`path` opened for reading, as bytes or as UTF-8 text with universal
    newlines and a leading byte-order mark dropped; an OSError, on opening or
    reading, is a FormatError naming the file. A text byte that is not UTF-8
    reads as a lone surrogate (surrogateescape), for _check_utf8 to report."""
    try:
        with (open(path, "rb") if binary else
              open(path, "r", encoding="utf-8-sig", errors="surrogateescape")) as fh:
            yield fh
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e


# what surrogateescape decodes a byte that is not UTF-8 to; UTF-8 text
# itself never decodes to a surrogate
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _check_utf8(path: str, text: str, lineno: int) -> None:
    """Raise a FormatError naming the first byte of `text`, read through
    _opened, that is not UTF-8, and its line; `text` starts on `lineno`."""
    bad = None if text.isascii() else _UNDECODABLE.search(text)
    if bad:
        line = lineno + text.count("\n", 0, bad.start())
        byte = ord(bad.group()) - 0xDC00
        raise FormatError(f"{path}:{line}: byte 0x{byte:02x} is not UTF-8")


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each line of a UTF-8 text file that
    is neither blank nor a '#' comment, streamed. Lines end at LF, CR or
    CRLF and are numbered from 1; a byte that is not UTF-8 is fatal on
    any line."""
    with _opened(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            _check_utf8(path, line, lineno)
            line = line.strip()
            if line and line[0] != "#":
                yield lineno, line


@dataclass(frozen=True)
class MotLine:
    """One MOT row as a record, for writers such as the simulator's."""

    frame: int
    obj_id: int
    bbox: BoundingBox
    score: float
    class_id: int
    visibility: float = 1.0


@dataclass(frozen=True, eq=False)
class MotTable:
    """MOT rows as one (R, 9) float64 block, in file order: frame, id, x, y,
    w, h, score, class, visibility. Frame, id and class must hold int64
    values; they are also kept as int64 columns."""

    rows: np.ndarray
    frames: np.ndarray = field(init=False)
    ids: np.ndarray = field(init=False)
    classes: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64).reshape(-1, 9)
        ints = rows[:, _INT_COLUMNS]
        if not ((ints == np.trunc(ints)) & (ints >= -_INT64_BOUND)
                & (ints < _INT64_BOUND)).all():
            raise ValueError("frame, id and class must be int64 values")
        setattr_ = object.__setattr__
        setattr_(self, "rows", rows)
        setattr_(self, "frames", rows[:, 0].astype(np.int64))
        setattr_(self, "ids", rows[:, 1].astype(np.int64))
        setattr_(self, "classes", rows[:, 7].astype(np.int64))

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def scores(self) -> np.ndarray:
        return self.rows[:, 6]


@dataclass
class IngestStats:
    lines: int = 0
    malformed: int = 0
    skipped_empty_box: int = 0
    clamped_scores: int = 0
    dropped_low_score: int = 0


def parse_mot_lines(path: str) -> tuple[MotTable, IngestStats]:
    """Read a MOT CSV file leniently; fatal when >10% of rows are malformed.

    A file is converted once: in one np.loadtxt call when numpy's reader
    takes it and each '#' in it opens a comment line, else line by line,
    which notes the short and non-numeric rows. The rules then run once, as
    masks over the converted block, each row charged to the first rule it
    breaks: a non-finite or non-int64 frame, id or class, a non-finite box
    field or score, frame < 1 (all malformed), a non-positive extent
    (skipped), then a box past motion.BOX_BOUND (malformed). Each charged
    row is named as `path:line`, in line order; a bulk-read block takes its
    line numbers from one pass that converts nothing. Scores outside [0, 1]
    are clamped and counted.
    """
    rows = _bulk_rows(path)
    linenos, notes = None, []
    if rows is None:
        rows, linenos, notes = _line_rows(path)
    stats = IngestStats(lines=rows.shape[0] + len(notes), malformed=len(notes))
    ints, rules = _rule_masks(rows)
    keep = np.ones(rows.shape[0], dtype=bool)
    for broken, message, malformed in rules:
        hit = broken & keep
        count = int(np.count_nonzero(hit))
        if not count:
            continue
        keep &= ~hit
        if linenos is None:  # the rows of a bulk-read block are the data lines
            linenos = np.fromiter((ln for ln, _ in _text_lines(path)),
                                  dtype=np.int64, count=rows.shape[0])
        notes.extend((ln, message, ()) for ln in linenos[hit].tolist())
        if malformed:
            stats.malformed += count
        else:
            stats.skipped_empty_box += count
    notes.sort(key=itemgetter(0))
    for lineno, message, args in notes:
        log.warning(message, path, lineno, *args)

    if stats.lines and stats.malformed / stats.lines > MALFORMED_FATAL_RATIO:
        raise FormatError(
            f"{path}: {stats.malformed} of {stats.lines} rows malformed "
            f"(limit {MALFORMED_FATAL_RATIO:.0%})"
        )
    if not keep.all():
        rows, ints = rows[keep], ints[keep]
    rows[:, _INT_COLUMNS] = ints
    scores = rows[:, 6]
    low, high = scores < 0.0, scores > 1.0
    stats.clamped_scores = int(low.sum() + high.sum())
    scores[low] = 0.0
    scores[high] = 1.0
    if stats.clamped_scores:
        log.warning("%s: clamped %d out-of-range scores", path, stats.clamped_scores)
    return MotTable(rows), stats


def _bulk_rows(path: str) -> Optional[np.ndarray]:
    """The file's rows as one (R, 9) block from numpy's C reader, or None
    when it rejects the file or a '#' follows a field. loadtxt cuts a line
    at any '#', where the converter reads a '#' after a field as part of
    the field. Decoded as _opened does, row i is the i-th data line of
    _text_lines. Every value the reader does convert, float() converts to
    the same bits: both parse with the interpreter's string-to-double."""
    with _opened(path) as fh:
        text = fh.read()
    _check_utf8(path, text, 1)
    pos = text.find("#")
    while pos >= 0:
        if text[text.rfind("\n", 0, pos) + 1:pos].strip():
            return None
        end = text.find("\n", pos)
        pos = -1 if end < 0 else text.find("#", end)
    del text
    try:
        with warnings.catch_warnings():  # a file of comments alone holds no data
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, delimiter=",", comments="#", usecols=range(9),
                              ndmin=2, encoding="utf-8-sig")
    except ValueError:
        return None


def _rule_masks(rows: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The truncated frame, id and class columns of the block, and the rules
    as (rows that break it, message, malformed or skipped), in the order a
    row is charged."""
    # int(float(v)) truncates, and its zero has no sign
    ints = np.trunc(rows[:, _INT_COLUMNS]) + 0.0
    w, h = rows[:, 4], rows[:, 5]
    # rows the earlier rules charge may divide by zero or hold NaN here
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        huge = ((np.abs(rows[:, 2:6]) > BOX_BOUND).any(axis=1) | (h < 1.0 / BOX_BOUND)
                | (w / h > BOX_BOUND))
    return ints, (
        # int(float(v)) cannot convert these at all
        (~np.isfinite(ints).all(axis=1), "%s:%d: non-numeric field", True),
        (~((ints >= -_INT64_BOUND) & (ints < _INT64_BOUND)).all(axis=1),
         "%s:%d: frame, id or class outside the int64 range", True),
        (~np.isfinite(rows[:, 2:7]).all(axis=1),
         "%s:%d: non-finite box or score", True),
        (ints[:, 0] < 1, "%s:%d: frame indices are 1-based", True),
        ((w <= 0) | (h <= 0), "%s:%d: skipping box with non-positive extent", False),
        # boxes whose Kalman filter would overflow (motion.BOX_BOUND)
        (huge, "%s:%d: box outside the filter's range", True),
    )


def _line_rows(path: str) -> tuple[np.ndarray, np.ndarray, list]:
    """The per-line converter, for a file the bulk read rejects: each data
    line split and converted with `float` into an (R, 9) block, with the
    line of each row. A short or non-numeric row is left out and noted as
    (line, message, extra args); no rule runs here."""
    values: list[float] = []  # 9 per converted line
    linenos: list[int] = []
    notes: list[tuple[int, str, tuple]] = []
    for lineno, line in _text_lines(path):
        parts = line.split(",")
        if len(parts) != 9:
            if len(parts) < 8:
                notes.append((lineno, "%s:%d: expected >=8 columns, got %d",
                              (len(parts),)))
                continue
            parts = parts[:9] if len(parts) > 9 else parts + [""]
        if parts[8] == "":
            parts[8] = "1.0"  # visibility defaults to 1
        try:
            values += map(float, parts)
        except ValueError:
            del values[9 * len(linenos):]  # the fields read before the bad one
            notes.append((lineno, "%s:%d: non-numeric field", ()))
            continue
        linenos.append(lineno)
    return (np.array(values, dtype=np.float64).reshape(-1, 9),
            np.array(linenos, dtype=np.int64), notes)


def parse_detections(
    path: str,
    embeddings_path: Optional[str] = None,
    embedding_dim: Optional[int] = None,
    min_score: float = 0.0,
) -> list[FrameDetections]:
    """Detections grouped by frame in ascending order, one FrameDetections
    of array slices per frame that holds a row.

    A stable sort by frame makes one run of rows per frame in file order; a
    row's ordinal is its place in its run. Embeddings attach by frame run
    and ordinal before the min_score filter runs, so sidecar ordinals and
    file rows stay aligned. A detection without an embedding is fatal, kept
    or not. The sidecar is read in one pass, and the block the frames slice
    holds only the kept detections' rows, as stored.
    """
    table, stats = parse_mot_lines(path)
    order = np.argsort(table.frames, kind="stable")
    runs = np.unique(table.frames[order], return_index=True, return_counts=True)
    kept = table.scores[order] >= min_score
    stats.dropped_low_score = int(kept.size - kept.sum())
    rows = table.rows[order[kept]]  # the one gather of the detections
    del table, order  # freed before the embedding block is filled
    vectors = None
    if embeddings_path is not None:
        _, vectors = _read_sidecar(embeddings_path, embedding_dim, runs, kept)
    frames, starts, _ = runs
    # kept rows before each run, then all: each frame's slice of the kept block
    bounds = (np.cumsum(kept) - kept)[starts].tolist() + [rows.shape[0]]
    boxes, scores, classes = rows[:, 2:6], rows[:, 6], rows[:, 7].astype(np.int64)
    out = [
        FrameDetections(frame, boxes[a:b], scores[a:b], classes[a:b],
                        None if vectors is None else vectors[a:b])
        for frame, a, b in zip(frames.tolist(), bounds, bounds[1:])
    ]
    if stats.dropped_low_score:
        log.info("%s: dropped %d detections below score %g",
                 path, stats.dropped_low_score, min_score)
    return out


class Embeddings(NamedTuple):
    """A loaded sidecar, in file order: (count, 2) int64 (frame, ordinal)
    keys and a (count, D) block of the rows as stored, float32 from the
    binary form and float64 from CSV."""

    keys: np.ndarray
    vectors: np.ndarray


def parse_embeddings(path: str, expected_dim: Optional[int] = None) -> Embeddings:
    """Load an embedding sidecar (binary or CSV), its vectors as stored.

    Duplicate keys and zero-length or non-finite vectors are fatal; the
    error names the first bad record in file order.
    """
    return Embeddings(*_read_sidecar(path, expected_dim))


# records a sidecar pass holds at a time, as stored and, to check their
# norms, widened to float64
SIDECAR_CHUNK_RECORDS = 1024

# a run of consecutive sidecar records: the index of its first record, its
# (n, 2) int64 keys, its (n, D) vectors as stored and, for CSV, their lines
_Chunk = tuple[int, np.ndarray, np.ndarray, Optional[list[int]]]


def _read_sidecar(
    path: str,
    expected_dim: Optional[int],
    runs: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    keep: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The one pass over a sidecar, binary or CSV: its keys in file order
    and a block of rows as stored, in the stored dtype. Each chunk's norms
    are checked in float64, as the tracker normalizes them; a CSV chunk is
    already float64 and is not scaled.

    The block holds every record in file order, or with `runs` (the sorted
    detections' ascending frames, and each one's first row and row count),
    the records of the rows that `keep` marks: record (f, o) lands on row
    start + o of frame f when 0 <= o < count; any other record is ignored.

    The first in file order of a duplicate key, a zero-length or non-finite
    vector (a record that is both counts as a duplicate) and a broken record
    is fatal; after those, the first detection in frame-sorted order that no
    record matches."""
    if runs is not None:
        frames, starts, counts = runs
        filled = np.zeros(keep.shape[0], dtype=bool)
        slot = np.cumsum(keep) - 1  # block row of each kept detection
    key_chunks = [np.empty((0, 2), dtype=np.int64)]
    block = bad = broken = None
    try:
        for start, keys, vectors, linenos in _sidecar_chunks(path, expected_dim):
            key_chunks.append(keys)
            try:
                checked_norms(vectors.astype(np.float64, copy=False))
            except ZeroNormError as e:
                bad = (start + e.row, None if linenos is None else linenos[e.row], e)
                break
            if block is None:
                block = np.empty((0 if runs is None else int(keep.sum()), vectors.shape[1]),
                                 dtype=vectors.dtype)
            if runs is None:  # no view of the block is out, so realloc may move it
                block.resize((start + vectors.shape[0], vectors.shape[1]), refcheck=False)
                block[start:] = vectors
                continue
            run = np.searchsorted(frames, keys[:, 0])
            hit = run < frames.shape[0]
            hit[hit] = frames[run[hit]] == keys[hit, 0]
            records, run, ordinal = np.flatnonzero(hit), run[hit], keys[hit, 1]
            in_run = (ordinal >= 0) & (ordinal < counts[run])
            records, pos = records[in_run], starts[run[in_run]] + ordinal[in_run]
            filled[pos] = True
            block[slot[pos[keep[pos]]]] = vectors[records[keep[pos]]]
    except FormatError as e:  # raised after the records before it
        broken = e
    keys = np.concatenate(key_chunks)
    dup = _first_duplicate(keys)
    if bad is not None and (dup is None or bad[0] < dup):
        i, lineno, e = bad
        where = (f"{path}:{lineno}" if lineno is not None else
                 f"{path}: embedding for frame {keys[i, 0]} ordinal {keys[i, 1]}")
        raise FormatError(f"{where}: {e}") from e
    if dup is not None:
        raise FormatError(f"{path}: duplicate embedding for {tuple(keys[dup].tolist())}")
    if broken is not None:
        raise broken
    if runs is not None and not filled.all():
        row = int(np.argmin(filled))
        run = int(np.searchsorted(starts, row, side="right")) - 1
        raise FormatError(f"{path}: no embedding for frame {frames[run]} "
                          f"ordinal {row - starts[run]}")
    return keys, block


def _sidecar_chunks(path: str, expected_dim: Optional[int]) -> Iterator[_Chunk]:
    """A sidecar's records in chunks of at most SIDECAR_CHUNK_RECORDS, read
    once: binary when the file starts with the magic, read with readinto
    into one reused buffer once the header and the size are checked, else
    CSV. At least one chunk comes, so an empty sidecar still gives its width."""
    with _opened(path, binary=True) as fh:
        header = fh.read(16)
        if header[:4] == EMBEDDING_MAGIC:
            if len(header) < 16:
                raise FormatError(f"{path}: truncated embedding header")
            _, version, dim, count = struct.unpack("<4sIII", header)
            if version != EMBEDDING_VERSION:
                raise FormatError(f"{path}: unsupported embedding format version {version}")
            if expected_dim is not None and dim != expected_dim:
                raise FormatError(f"{path}: embedding dim {dim}, expected {expected_dim}")
            rec = np.dtype([("frame", "<u4"), ("ordinal", "<u4"), ("vec", "<f4", (dim,))])
            size = os.fstat(fh.fileno()).st_size
            if size - 16 != count * rec.itemsize:
                raise FormatError(
                    f"{path}: expected {count} records ({count * rec.itemsize} bytes), "
                    f"found {size - 16} bytes")
            raw = bytearray(min(count, SIDECAR_CHUNK_RECORDS) * rec.itemsize)
            view = memoryview(raw)
            for start in range(0, max(count, 1), SIDECAR_CHUNK_RECORDS):
                n = min(SIDECAR_CHUNK_RECORDS, count - start)
                if fh.readinto(view[:n * rec.itemsize]) != n * rec.itemsize:
                    raise FormatError(f"{path}: file shrank while it was read")
                records = np.frombuffer(raw, dtype=rec, count=n)
                keys = np.stack([records["frame"], records["ordinal"]], axis=1)
                yield start, keys.astype(np.int64), records["vec"], None
            return
    yield from _csv_chunks(path, expected_dim)


def _csv_chunks(path: str, expected_dim: Optional[int]) -> Iterator[_Chunk]:
    """The chunks of a CSV sidecar, SIDECAR_CHUNK_RECORDS lines at a time,
    each line converted into flat arrays of machine values. A broken line
    raises its FormatError after the records before it are yielded."""
    dim = expected_dim
    start = 0
    keys, values, linenos = array("q"), array("d"), []

    def chunk() -> _Chunk:
        n = len(linenos)
        return (start, np.array(keys, dtype=np.int64).reshape(n, 2),
                np.array(values, dtype=np.float64).reshape(n, dim or 0), linenos)

    try:
        for lineno, line in _text_lines(path):
            parts = line.split(",")
            if len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: embedding row too short")
            if dim is not None and len(parts) - 2 != dim:
                raise FormatError(
                    f"{path}:{lineno}: embedding dim {len(parts) - 2}, expected {dim}")
            try:
                key = (int(parts[0]), int(parts[1]))
                vec = [float(v) for v in parts[2:]]
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: non-numeric field") from e
            if not all(-_INT64_BOUND <= k < _INT64_BOUND for k in key):
                raise FormatError(
                    f"{path}:{lineno}: frame or ordinal outside the int64 range")
            dim = len(vec)
            keys.extend(key)
            values.extend(vec)
            linenos.append(lineno)
            if len(linenos) == SIDECAR_CHUNK_RECORDS:
                yield chunk()
                start += len(linenos)
                keys, values, linenos = array("q"), array("d"), []
    except FormatError:
        if linenos:
            yield chunk()
        raise
    if linenos or not start:
        yield chunk()


def _first_duplicate(keys: np.ndarray) -> Optional[int]:
    """Index of the first record whose key an earlier record already has."""
    order = np.lexsort((keys[:, 1], keys[:, 0]))  # stable: ties keep file order
    ranked = keys[order]
    again = (ranked[1:] == ranked[:-1]).all(axis=1)
    return int(order[1:][again].min()) if again.any() else None


def write_embeddings(
    path: str,
    records: Sequence[tuple[int, int, np.ndarray]],
    dim: int,
) -> None:
    """Write (frame, ordinal, vector) records in the binary sidecar format."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", EMBEDDING_MAGIC, EMBEDDING_VERSION,
                             dim, len(records)))
        for frame, ordinal, vec in records:
            if vec.shape != (dim,):
                raise ValueError(f"embedding for ({frame},{ordinal}) has wrong dim")
            fh.write(struct.pack("<II", frame, ordinal))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def parse_affines(path: str) -> dict[int, AffineTransform]:
    """Per-frame camera transforms. An absent file means all-identity;
    frames missing from the file are identity at lookup; a numerically
    singular row, a frame below 1 and a repeated frame are fatal."""
    if not os.path.exists(path):
        log.warning("%s: affine sidecar not found, assuming identity", path)
        return {}
    out: dict[int, AffineTransform] = {}
    for lineno, line in _text_lines(path):
        parts = line.split(",")
        if len(parts) < 7:
            raise FormatError(f"{path}:{lineno}: expected 7 columns")
        try:
            frame = int(parts[0])
            a, b, tx, c, d, ty = (float(v) for v in parts[1:7])
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: non-numeric field") from e
        if frame < 1:
            raise FormatError(f"{path}:{lineno}: frame {frame} is below 1")
        if frame in out:
            raise FormatError(f"{path}:{lineno}: frame {frame} appears twice")
        try:
            out[frame] = AffineTransform(np.array([[a, b, tx], [c, d, ty]]))
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: {e}") from e
    return out


def write_affines(path: str, affines: dict[int, AffineTransform],
                  comment: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for frame in sorted(affines):
            m = affines[frame].m
            vals = ",".join(repr(float(v)) for v in m.reshape(-1))
            fh.write(f"{frame},{vals}\n")


def write_results(rows: Iterable, path: str) -> None:
    """Write tracker output rows sorted by (frame, id), keeping the given
    order among equal keys.

    Each row is a tuple of plain Python values (frame, track_id, x, y, w, h,
    score, class_id), as Tracker.associate_frame returns them.
    """
    ordered = sorted(rows, key=itemgetter(0, 1))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, track_id, x, y, w, h, score, class_id in ordered:
            fh.write(f"{frame},{track_id},{x!r},{y!r},{w!r},{h!r},{score!r},"
                     f"{class_id},-1,-1\n")


def write_mot_file(path: str, lines: Sequence[MotLine],
                   comment: Optional[str] = None) -> None:
    """Write ground-truth/detection rows (frame,id,x,y,w,h,score,class,vis)."""
    ordered = sorted(lines, key=lambda ln: (ln.frame, ln.obj_id))
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for ln in ordered:
            b = ln.bbox
            fh.write(f"{ln.frame},{ln.obj_id},{b.x!r},{b.y!r},{b.w!r},{b.h!r},"
                     f"{float(ln.score)!r},{ln.class_id},{float(ln.visibility)!r}\n")


# -- key = value config files ------------------------------------------------


def read_key_values(path: str) -> dict[str, str]:
    """Parse a `key = value` text file; '#' comments and blanks are skipped.
    A key given twice is refused, naming its second line."""
    out: dict[str, str] = {}
    for lineno, line in _text_lines(path):
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise FormatError(f"{path}:{lineno}: key {key!r} appears twice")
        out[key] = value.strip()
    return out


def write_key_values(path: str, values: dict, comment: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


@dataclass(frozen=True)
class RunConfig(TrackerConfig):
    """Everything a tracking run needs: the tracker settings it inherits,
    plus paths, the sidecar width, the seed and the camera-motion switch:
    with use_dmp off the run hands the tracker no camera motion."""

    detections: Optional[str] = None
    embeddings: Optional[str] = None
    affines: Optional[str] = None
    output: Optional[str] = None
    embedding_dim: Optional[int] = None  # None: the sidecar's own width
    seed: int = 0
    use_dmp: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ConfigError("embedding_dim must be >= 1")

    def tracker_config(self) -> TrackerConfig:
        """The tracker settings alone, as a plain TrackerConfig."""
        return TrackerConfig(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(TrackerConfig)})


def _path(value) -> Optional[str]:
    if value is None or str(value).lower() in ("", "none"):
        return None
    return str(value)


def _flag(value) -> bool:
    lowered = str(value).strip().lower()
    if lowered not in ("true", "false", "0", "1"):
        raise ValueError("must be true/false")
    return lowered in ("true", "1")


# the reader of each plain setting type; only a path reads "none" (in any
# case) or "" as no value
_READERS = {str: _path, bool: _flag, int: int, float: float}


def field_codecs(cls, table: dict) -> dict:
    """Each field of the dataclass cls mapped to the table's entry for its
    declared type, Optional[...] unwrapped; a type not in the table is a
    KeyError, so a field without a codec fails on import."""
    codecs = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if type(None) in args:
            (hint,) = (a for a in args if a is not type(None))
        codecs[name] = table[hint]
    return codecs


def read_config_values(values: dict, source: str, readers: dict) -> dict:
    """A config's keyword arguments: each value (a string from a file, or a
    typed value from a CLI flag) read by its key's reader."""
    kwargs = {}
    for key, value in values.items():
        read = readers.get(key)
        if read is None:
            raise FormatError(f"{source}: unknown key {key!r}")
        try:
            kwargs[key] = read(value)
        except (ValueError, TypeError) as e:
            raise FormatError(f"{source}: bad value for {key!r}: {value!r}: {e}") from e
    return kwargs


_RUN_READERS = field_codecs(RunConfig, _READERS)


def run_config_from_dict(values: dict, source: str = "config") -> RunConfig:
    """Build a RunConfig from key/values, reading each by its field's type."""
    return RunConfig(**read_config_values(values, source, _RUN_READERS))

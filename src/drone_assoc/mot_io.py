"""File formats.

Detections and ground truth use MOT-style CSV rows
``frame,id,x,y,w,h,score,class,visibility`` (first 9 columns read, extras
ignored, ``#`` lines and blanks skipped). parse_mot_lines reads a file into
a MotTable: one (R, 9) float64 block in file order, with int64 frame, id and
class columns. A well-formed file is converted in one np.loadtxt call; a
file that call rejects, with a '#' after a field, or with a row a rule
charges is read line by line, which names the bad rows.

Embeddings ride in a binary sidecar keyed by (frame, ordinal-within-frame);
a CSV fallback with rows ``frame,ordinal,v0..v{D-1}`` is accepted. One
reader serves both: a first pass over fixed-size chunks of records
collects the keys and checks every norm, and a second widens to float64
only the records asked for and scatters their unit rows into the block it
returns. parse_embeddings asks for every record; parse_detections joins the
keys to its detections, asks only for the kept ones, and slices the block
into one array FrameDetections per frame. Affine sidecars are CSV rows
``frame,a,b,tx,c,d,ty``. Results are written as
``frame,id,x,y,w,h,score,class,-1,-1`` sorted by (frame, id).

Frames are 1-based; ordinals are 0-based positions of a detection within
its frame, counted in file order. Floats are written with repr so that
write -> parse round-trips exactly and reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import struct
import typing
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    BoundingBox,
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    normalize_rows,
)
from .motion import AffineTransform

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

    A file is converted in one np.loadtxt call when numpy's reader takes it
    and each '#' in it opens a comment line. The rules then run as masks
    over the converted block, each row charged to the first rule it breaks:
    a non-finite or non-int64 frame, id or class, a non-finite box field or
    score, frame < 1 (all malformed), then a non-positive extent (skipped).
    A file the bulk read rejects, or with a row a rule charges, is read
    again line by line, which names each charged row as `path:line`, in line
    order. Scores outside [0, 1] are clamped and counted.
    """
    rows = _bulk_rows(path)
    if rows is not None:
        ints, rules = _rule_masks(rows)
        if not any(broken.any() for broken, _, _ in rules):
            return _clamped_table(path, rows, ints, IngestStats(lines=rows.shape[0]))
    return _parse_line_by_line(path)


def _bulk_rows(path: str) -> Optional[np.ndarray]:
    """The file's rows as one (R, 9) block from numpy's C reader, or None
    when it rejects the file or a '#' follows a field. loadtxt cuts a line
    at any '#', where the line pass reads a '#' after a field as part of
    the field. Every value the reader does convert, float() converts to the
    same bits: both parse with the interpreter's string-to-double."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
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
                              ndmin=2, encoding="utf-8")
    except ValueError:
        return None


def _rule_masks(rows: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The truncated frame, id and class columns of the block, and the rules
    as (rows that break it, message, malformed or skipped), in the order a
    row is charged."""
    # int(float(v)) truncates, and its zero has no sign
    ints = np.trunc(rows[:, _INT_COLUMNS]) + 0.0
    return ints, (
        # int(float(v)) cannot convert these at all
        (~np.isfinite(ints).all(axis=1), "%s:%d: non-numeric field", True),
        (~((ints >= -_INT64_BOUND) & (ints < _INT64_BOUND)).all(axis=1),
         "%s:%d: frame, id or class outside the int64 range", True),
        (~np.isfinite(rows[:, 2:7]).all(axis=1),
         "%s:%d: non-finite box or score", True),
        (ints[:, 0] < 1, "%s:%d: frame indices are 1-based", True),
        ((rows[:, 4] <= 0) | (rows[:, 5] <= 0),
         "%s:%d: skipping box with non-positive extent", False),
    )


def _parse_line_by_line(path: str) -> tuple[MotTable, IngestStats]:
    """One pass over the lines splits and converts each row with `float`,
    and diagnoses short and non-numeric rows; the rule masks then charge
    the rest by line."""
    stats = IngestStats()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    values: list[float] = []  # 9 per accepted line
    linenos: list[int] = []
    # (line, message, extra args) of each row the line pass rejects
    notes: list[tuple[int, str, tuple]] = []
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
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
    stats.lines = len(linenos) + len(notes)
    stats.malformed = len(notes)

    rows = np.array(values, dtype=np.float64).reshape(-1, 9)
    ints, rules = _rule_masks(rows)
    keep = np.ones(rows.shape[0], dtype=bool)
    lines_of = np.array(linenos, dtype=np.int64)
    for broken, message, malformed in rules:
        hit = broken & keep
        keep &= ~hit
        hit_lines = lines_of[hit].tolist()
        notes.extend((ln, message, ()) for ln in hit_lines)
        if malformed:
            stats.malformed += len(hit_lines)
        else:
            stats.skipped_empty_box += len(hit_lines)
    notes.sort(key=lambda note: note[0])
    for lineno, message, args in notes:
        log.warning(message, path, lineno, *args)

    if stats.lines and stats.malformed / stats.lines > MALFORMED_FATAL_RATIO:
        raise FormatError(
            f"{path}: {stats.malformed} of {stats.lines} rows malformed "
            f"(limit {MALFORMED_FATAL_RATIO:.0%})"
        )
    return _clamped_table(path, rows[keep], ints[keep], stats)


def _clamped_table(path: str, rows: np.ndarray, ints: np.ndarray,
                   stats: IngestStats) -> tuple[MotTable, IngestStats]:
    """The kept rows, with the truncated integer columns written back and
    the scores clamped to [0, 1]."""
    rows[:, _INT_COLUMNS] = ints
    scores = rows[:, 6]
    low, high = scores < 0.0, scores > 1.0
    stats.clamped_scores = int(low.sum() + high.sum())
    scores[low] = 0.0
    scores[high] = 1.0
    if stats.clamped_scores:
        log.warning("%s: clamped %d out-of-range scores", path, stats.clamped_scores)
    return MotTable(rows), stats


def parse_detections(
    path: str,
    embeddings_path: Optional[str] = None,
    embedding_dim: Optional[int] = None,
    min_score: float = 0.0,
) -> list[FrameDetections]:
    """Detections grouped by frame in ascending order, one FrameDetections
    of array slices per frame that holds a row.

    Rows take their ordinals from a stable sort by frame, so each frame keeps
    its file order. When an embedding sidecar is given, vectors are attached
    by (frame, ordinal) before the min_score filter runs, so sidecar
    ordinals and file rows stay aligned. A detection without an embedding is
    fatal. Only the kept detections' vectors are widened to float64.
    """
    table, stats = parse_mot_lines(path)
    sidecar = None
    if embeddings_path is not None:
        sidecar = _open_sidecar(embeddings_path, embedding_dim)

    order = np.argsort(table.frames, kind="stable")
    frames = table.frames[order]
    first = np.ones(frames.shape[0], dtype=bool)
    first[1:] = frames[1:] != frames[:-1]
    starts = np.flatnonzero(first)
    ordinals = np.arange(frames.shape[0]) - starts[np.cumsum(first) - 1]
    emb_rows = None
    if sidecar is not None:
        emb_rows = _embedding_rows(embeddings_path, sidecar.keys, frames, ordinals)

    dropped = table.scores[order] < min_score
    stats.dropped_low_score = int(dropped.sum())
    kept = ~dropped
    rows = table.rows[order[kept]]  # the one gather of the detections
    del table, order  # freed before the embedding block is filled
    vectors = None if sidecar is None else _unit_rows(sidecar, emb_rows[kept])
    keys = frames[starts]
    lo = np.searchsorted(frames[kept], keys)
    hi = np.append(lo[1:], rows.shape[0])
    boxes, scores, classes = rows[:, 2:6], rows[:, 6], rows[:, 7].astype(np.int64)
    out = [
        FrameDetections(frame, boxes[a:b], scores[a:b], classes[a:b],
                        None if vectors is None else vectors[a:b])
        for frame, a, b in zip(keys.tolist(), lo.tolist(), hi.tolist())
    ]
    if stats.dropped_low_score:
        log.info("%s: dropped %d detections below score %g",
                 path, stats.dropped_low_score, min_score)
    return out


def _embedding_rows(
    path: str, keys: np.ndarray, frames: np.ndarray, ordinals: np.ndarray
) -> np.ndarray:
    """Sidecar row of each (frame, ordinal) pair, found by searchsorted over
    the sidecar keys packed as frame << 32 | ordinal. Keys outside the u32
    range of the binary format never match. A missing pair is fatal; the
    error names the first one in (frame, ordinal) order."""
    shift = np.uint64(32)
    fits = ((keys >= 0) & (keys < 2 ** 32)).all(axis=1)
    packed = (keys[fits, 0].astype(np.uint64) << shift) | keys[fits, 1].astype(np.uint64)
    by_key = np.argsort(packed, kind="stable")
    packed, row_of = packed[by_key], np.flatnonzero(fits)[by_key]
    want_fits = frames < 2 ** 32
    want = (np.where(want_fits, frames, 0).astype(np.uint64) << shift) \
        | ordinals.astype(np.uint64)
    pos = np.searchsorted(packed, want)
    found = want_fits & (pos < packed.shape[0])
    found[found] = packed[pos[found]] == want[found]
    if not found.all():
        i = int(np.argmin(found))
        raise FormatError(
            f"{path}: no embedding for frame {int(frames[i])} "
            f"ordinal {int(ordinals[i])}"
        )
    return row_of[pos]


class Embeddings(NamedTuple):
    """A loaded sidecar, in file order: (count, 2) int64 (frame, ordinal)
    keys and a (count, D) float64 block of unit rows."""

    keys: np.ndarray
    vectors: np.ndarray


def parse_embeddings(path: str, expected_dim: Optional[int] = None) -> Embeddings:
    """Load an embedding sidecar (binary or CSV), unit-normalizing vectors.

    Duplicate keys and zero-length or non-finite vectors are fatal; the
    error names the first bad record in file order.
    """
    sidecar = _open_sidecar(path, expected_dim)
    return Embeddings(sidecar.keys, _unit_rows(sidecar, np.arange(sidecar.keys.shape[0])))


# records a sidecar pass holds at a time, as stored and widened to float64
SIDECAR_CHUNK_RECORDS = 1024

# one run of consecutive sidecar records: the index of its first record,
# its (n, 2) keys and its (n, D) vectors as stored
_Chunk = tuple[int, np.ndarray, np.ndarray]


class _Sidecar(NamedTuple):
    """A sidecar that passed the first pass: its (count, 2) int64 keys in
    file order, the vector width, and chunks(), which reads the records
    again as runs of at most SIDECAR_CHUNK_RECORDS."""

    keys: np.ndarray
    dim: int
    chunks: Callable[[], Iterator[_Chunk]]


def _open_sidecar(path: str, expected_dim: Optional[int]) -> _Sidecar:
    """The first pass over a sidecar (binary or CSV): collect the keys and
    check every vector's norm, one chunk at a time.

    Duplicate keys and zero-length or non-finite vectors are fatal; the
    error names the first bad record in file order (a record that is both
    counts as a duplicate)."""
    try:
        with open(path, "rb") as fh:
            binary = fh.read(4) == EMBEDDING_MAGIC
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    loader = _binary_sidecar if binary else _csv_sidecar
    count, dim, chunks, linenos, broken = loader(path, expected_dim)
    keys = np.empty((count, 2), dtype=np.int64)
    bad: Optional[tuple[int, ZeroNormError]] = None
    for start, chunk_keys, vectors in chunks():
        keys[start:start + len(chunk_keys)] = chunk_keys
        if bad is None:
            try:
                normalize_rows(vectors.astype(np.float64))
            except ZeroNormError as e:
                bad = (start + e.row, e)
    dup = _first_duplicate(keys)
    if bad is not None and (dup is None or bad[0] < dup):
        i, e = bad
        where = (f"{path}:{linenos[i]}" if linenos is not None else
                 f"{path}: embedding for frame {keys[i, 0]} ordinal {keys[i, 1]}")
        raise FormatError(f"{where}: {e}") from e
    if dup is not None:
        key = tuple(keys[dup].tolist())
        raise FormatError(f"{path}: duplicate embedding for {key}")
    if broken is not None:
        raise broken
    return _Sidecar(keys, dim, chunks)


def _unit_rows(sidecar: _Sidecar, records: np.ndarray) -> np.ndarray:
    """The second pass: a (len(records), D) float64 block whose row i is
    record records[i] unit-normalized. Each chunk widens only the records
    it holds that are asked for, and scatters them into the block."""
    out = np.empty((records.shape[0], sidecar.dim), dtype=np.float64)
    order = np.argsort(records, kind="stable")
    wanted = records[order]
    for start, _, vectors in sidecar.chunks():
        lo, hi = np.searchsorted(wanted, [start, start + len(vectors)]).tolist()
        if lo < hi:
            out[order[lo:hi]] = normalize_rows(
                vectors[wanted[lo:hi] - start].astype(np.float64, copy=False))
    return out


def _binary_sidecar(path: str, expected_dim: Optional[int]):
    """(count, dim, chunks, None, None) of a binary sidecar, after its
    header and its size are checked; chunks() reads the records with
    readinto into one reused buffer."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        size = os.fstat(fh.fileno()).st_size
    if len(header) < 16:
        raise FormatError(f"{path}: truncated embedding header")
    magic, version, dim, count = struct.unpack("<4sIII", header)
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported embedding format version {version}")
    if expected_dim is not None and dim != expected_dim:
        raise FormatError(f"{path}: embedding dim {dim}, expected {expected_dim}")
    rec = np.dtype([("frame", "<u4"), ("ordinal", "<u4"), ("vec", "<f4", (dim,))])
    if size - 16 != count * rec.itemsize:
        raise FormatError(
            f"{path}: expected {count} records ({count * rec.itemsize} bytes), "
            f"found {size - 16} bytes"
        )

    def chunks() -> Iterator[_Chunk]:
        raw = bytearray(min(count, SIDECAR_CHUNK_RECORDS) * rec.itemsize)
        view = memoryview(raw)
        with open(path, "rb") as fh:
            fh.seek(16)
            for start in range(0, count, SIDECAR_CHUNK_RECORDS):
                n = min(SIDECAR_CHUNK_RECORDS, count - start)
                if fh.readinto(view[:n * rec.itemsize]) != n * rec.itemsize:
                    raise FormatError(f"{path}: file shrank while it was read")
                records = np.frombuffer(raw, dtype=rec, count=n)
                yield start, np.stack([records["frame"], records["ordinal"]], axis=1), \
                    records["vec"]

    return count, dim, chunks, None, None


def _csv_sidecar(path: str, expected_dim: Optional[int]):
    """(count, dim, chunks, line numbers, broken) of a CSV sidecar, read in
    one pass over its lines. The first structurally broken line ends the
    pass; its error is raised unless an earlier record is a duplicate or
    has a bad norm."""
    keys: list[tuple[int, int]] = []
    values: list[list[float]] = []
    linenos: list[int] = []
    dim: Optional[int] = expected_dim
    broken: Optional[FormatError] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                broken = FormatError(f"{path}:{lineno}: embedding row too short")
                break
            if dim is None:
                dim = len(parts) - 2
            if len(parts) - 2 != dim:
                broken = FormatError(
                    f"{path}:{lineno}: embedding dim {len(parts) - 2}, expected {dim}"
                )
                break
            try:
                key = (int(parts[0]), int(parts[1]))
                vec = [float(v) for v in parts[2:]]
            except ValueError as e:
                broken = FormatError(f"{path}:{lineno}: non-numeric field")
                broken.__cause__ = e
                break
            if not all(-_INT64_BOUND <= k < _INT64_BOUND for k in key):
                broken = FormatError(
                    f"{path}:{lineno}: frame or ordinal outside the int64 range")
                break
            keys.append(key)
            values.append(vec)
            linenos.append(lineno)
    key_block = np.array(keys, dtype=np.int64).reshape(-1, 2)
    block = np.array(values, dtype=np.float64).reshape(len(values), dim or 0)

    def chunks() -> Iterator[_Chunk]:
        for start in range(0, len(block), SIDECAR_CHUNK_RECORDS):
            stop = start + SIDECAR_CHUNK_RECORDS
            yield start, key_block[start:stop], block[start:stop]

    return len(block), dim or 0, chunks, linenos, broken


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
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
    score, class_id), such as association.TrackRecord.
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
    """Parse a `key = value` text file; '#' comments and blanks are skipped."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise FormatError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
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
    plus paths, the sidecar width and the seed."""

    detections: Optional[str] = None
    embeddings: Optional[str] = None
    affines: Optional[str] = None
    output: Optional[str] = None
    embedding_dim: Optional[int] = None  # None: the sidecar's own width
    seed: int = 0

    def tracker_config(self) -> TrackerConfig:
        """The tracker settings alone, as a plain TrackerConfig."""
        return TrackerConfig(**{f.name: getattr(self, f.name)
                                for f in dataclasses.fields(TrackerConfig)})


def _path(value) -> Optional[str]:
    if value is None or str(value).lower() in ("", "none"):
        return None
    return str(value)


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    lowered = str(value).strip().lower()
    if lowered not in ("true", "false", "0", "1"):
        raise ValueError("must be true/false")
    return lowered in ("true", "1")


# each setting's coercion, picked by the type RunConfig declares for it with
# Optional unwrapped; only a path reads "none" (in any case) or "" as no value
_COERCIONS = {
    name: {str: _path, bool: _flag, int: int, float: float}[
        next((a for a in typing.get_args(hint) if a is not type(None)), hint)]
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def run_config_from_dict(values: dict, source: str = "config") -> RunConfig:
    """Build a RunConfig from key/values (strings from a file, typed values
    from CLI flags), coercing each to its field's declared type."""
    kwargs = {}
    for key, value in values.items():
        coerce = _COERCIONS.get(key)
        if coerce is None:
            raise FormatError(f"{source}: unknown key {key!r}")
        try:
            kwargs[key] = coerce(value)
        except (ValueError, TypeError) as e:
            if coerce is _flag:
                raise FormatError(f"{source}: {key} must be true/false") from e
            raise FormatError(f"{source}: bad value for {key!r}: {value!r}") from e
    return RunConfig(**kwargs)

"""File formats.

Detections and ground truth use MOT-style CSV rows
``frame,id,x,y,w,h,score,class,visibility`` (first 9 columns read, extras
ignored, ``#`` lines and blanks skipped). parse_mot_lines reads a file into
a MotTable: one (R, 9) float64 block in file order, with int64 frame, id and
class columns. Embeddings ride in a binary sidecar keyed by
(frame, ordinal-within-frame); a CSV fallback with rows
``frame,ordinal,v0..v{D-1}`` is accepted. parse_embeddings loads either
into the (count, 2) keys and one (count, D) block of unit rows.
parse_detections joins the two and slices them into one array
FrameDetections per frame. Affine sidecars are CSV rows
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
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

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

    One pass over the lines splits and converts each row with `float`, and
    diagnoses short and non-numeric rows. The remaining rules run as masks
    over the converted block, each row charged to the first rule it breaks:
    a non-finite or non-int64 frame, id or class, a non-finite box field or
    score, frame < 1 (all malformed), then a non-positive extent (skipped).
    Every charged row is logged as `path:line`, in line order. Scores
    outside [0, 1] are clamped and counted.
    """
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
    # int(float(v)) truncates, and its zero has no sign
    ints = np.trunc(rows[:, _INT_COLUMNS]) + 0.0
    rules = (
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
    rows = rows[keep]
    rows[:, _INT_COLUMNS] = ints[keep]
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
    fatal.
    """
    table, stats = parse_mot_lines(path)
    emb = None
    if embeddings_path is not None:
        emb = parse_embeddings(embeddings_path, embedding_dim)

    order = np.argsort(table.frames, kind="stable")
    frames = table.frames[order]
    first = np.ones(frames.shape[0], dtype=bool)
    first[1:] = frames[1:] != frames[:-1]
    starts = np.flatnonzero(first)
    ordinals = np.arange(frames.shape[0]) - starts[np.cumsum(first) - 1]
    emb_rows = None
    if emb is not None:
        emb_rows = _embedding_rows(embeddings_path, emb.keys, frames, ordinals)

    dropped = table.scores[order] < min_score
    stats.dropped_low_score = int(dropped.sum())
    kept = ~dropped
    rows = table.rows[order[kept]]  # the one gather of the detections
    vectors = None if emb is None else emb.vectors[emb_rows[kept]]
    del emb
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
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
            mode = "binary" if head == EMBEDDING_MAGIC else "csv"
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    loader = _parse_embeddings_binary if mode == "binary" else _parse_embeddings_csv
    return loader(path, expected_dim)


def _parse_embeddings_binary(path: str, expected_dim: Optional[int]) -> Embeddings:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise FormatError(f"{path}: truncated embedding header")
    magic, version, dim, count = struct.unpack("<4sIII", blob[:16])
    if magic != EMBEDDING_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != EMBEDDING_VERSION:
        raise FormatError(f"{path}: unsupported embedding format version {version}")
    if expected_dim is not None and dim != expected_dim:
        raise FormatError(f"{path}: embedding dim {dim}, expected {expected_dim}")
    rec = np.dtype([("frame", "<u4"), ("ordinal", "<u4"), ("vec", "<f4", (dim,))])
    payload = memoryview(blob)[16:]
    if len(payload) != count * rec.itemsize:
        raise FormatError(
            f"{path}: expected {count} records ({count * rec.itemsize} bytes), "
            f"found {len(payload)} bytes"
        )
    records = np.frombuffer(payload, dtype=rec)
    keys = np.column_stack([records["frame"], records["ordinal"]]).astype(np.int64)
    vectors = records["vec"].astype(np.float64)
    del records, payload, blob
    return _checked_embeddings(
        path, keys, vectors,
        lambda i: f"{path}: embedding for frame {keys[i, 0]} ordinal {keys[i, 1]}",
    )


def _parse_embeddings_csv(path: str, expected_dim: Optional[int]) -> Embeddings:
    """One pass over the lines; the first structurally broken line ends it,
    and its error is raised unless an earlier record is a duplicate or has a
    bad norm."""
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
    emb = _checked_embeddings(
        path,
        np.array(keys, dtype=np.int64).reshape(-1, 2),
        np.array(values, dtype=np.float64).reshape(len(values), dim or 0),
        lambda i: f"{path}:{linenos[i]}",
    )
    if broken is not None:
        raise broken
    return emb


def _checked_embeddings(
    path: str, keys: np.ndarray, vectors: np.ndarray, where: Callable[[int], str]
) -> Embeddings:
    """Normalize the rows in place; raise for the first duplicate key or
    bad vector in file order, whichever comes first (a record that is both
    counts as a duplicate). `where(i)` names record i in errors."""
    dup = _first_duplicate(keys)
    try:
        normalize_rows(vectors)
    except ZeroNormError as e:
        if dup is None or e.row < dup:
            raise FormatError(f"{where(e.row)}: {e}") from e
    if dup is not None:
        key = tuple(keys[dup].tolist())
        raise FormatError(f"{path}: duplicate embedding for {key}")
    return Embeddings(keys, vectors)


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
    return None if value in (None, "", "none") else str(value)


def _flag(value) -> bool:
    if isinstance(value, bool):
        return value
    lowered = str(value).strip().lower()
    if lowered not in ("true", "false", "0", "1"):
        raise ValueError("must be true/false")
    return lowered in ("true", "1")


# each setting's coercion, picked by the type RunConfig declares for it with
# Optional unwrapped; only a path reads "none" or "" as no value
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

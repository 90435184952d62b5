"""File formats.

Detections and ground truth use MOT-style CSV rows
``frame,id,x,y,w,h,score,class,visibility`` (first 9 columns read, extras
ignored, ``#`` lines and blanks skipped). Embeddings ride in a binary
sidecar keyed by (frame, ordinal-within-frame); a CSV fallback with rows
``frame,ordinal,v0..v{D-1}`` is accepted. Affine sidecars are CSV rows
``frame,a,b,tx,c,d,ty``. Results are written as
``frame,id,x,y,w,h,score,class,-1,-1`` sorted by (frame, id).

Frames are 1-based; ordinals are 0-based positions of a detection within
its frame, counted in file order. Floats are written with repr so that
write -> parse round-trips exactly and reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    BoundingBox,
    Detection,
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    normalize,
)
from .motion import AffineTransform

log = logging.getLogger("drone_assoc.io")

EMBEDDING_MAGIC = b"DEMB"
EMBEDDING_VERSION = 1
MALFORMED_FATAL_RATIO = 0.10


class FormatError(ValueError):
    """Raised for unreadable or structurally broken input files."""


@dataclass(frozen=True)
class MotLine:
    frame: int
    obj_id: int
    bbox: BoundingBox
    score: float
    class_id: int
    visibility: float = 1.0


@dataclass
class IngestStats:
    lines: int = 0
    malformed: int = 0
    skipped_empty_box: int = 0
    clamped_scores: int = 0
    dropped_low_score: int = 0


def parse_mot_lines(path: str) -> tuple[list[MotLine], IngestStats]:
    """Read a MOT CSV file leniently; fatal when >10% of rows are malformed."""
    stats = IngestStats()
    out: list[MotLine] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    fin = math.isfinite
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stats.lines += 1
        parts = line.split(",")
        if len(parts) < 8:
            stats.malformed += 1
            log.warning("%s:%d: expected >=8 columns, got %d", path, lineno, len(parts))
            continue
        try:
            frame = int(float(parts[0]))
            obj_id = int(float(parts[1]))
            x, y, w, h = map(float, parts[2:6])
            score = float(parts[6])
            class_id = int(float(parts[7]))
            vis = float(parts[8]) if len(parts) > 8 and parts[8] != "" else 1.0
        except (ValueError, OverflowError):  # int(float("inf")) overflows
            stats.malformed += 1
            log.warning("%s:%d: non-numeric field", path, lineno)
            continue
        if not (fin(x) and fin(y) and fin(w) and fin(h) and fin(score)):
            stats.malformed += 1
            log.warning("%s:%d: non-finite box or score", path, lineno)
            continue
        if frame < 1:
            stats.malformed += 1
            log.warning("%s:%d: frame indices are 1-based", path, lineno)
            continue
        if w <= 0 or h <= 0:
            stats.skipped_empty_box += 1
            log.warning("%s:%d: skipping box with non-positive extent", path, lineno)
            continue
        if score < 0.0 or score > 1.0:
            stats.clamped_scores += 1
            score = min(1.0, max(0.0, score))
        out.append(MotLine(frame, obj_id, BoundingBox(x, y, w, h), score, class_id, vis))
    if stats.lines and stats.malformed / stats.lines > MALFORMED_FATAL_RATIO:
        raise FormatError(
            f"{path}: {stats.malformed} of {stats.lines} rows malformed "
            f"(limit {MALFORMED_FATAL_RATIO:.0%})"
        )
    if stats.clamped_scores:
        log.warning("%s: clamped %d out-of-range scores", path, stats.clamped_scores)
    return out, stats


def parse_detections(
    path: str,
    embeddings_path: Optional[str] = None,
    embedding_dim: Optional[int] = None,
    min_score: float = 0.0,
) -> list[FrameDetections]:
    """Detections grouped by frame in ascending order.

    When an embedding sidecar is given, vectors are attached by
    (frame, ordinal) before the min_score filter runs, so sidecar ordinals
    and file rows stay aligned. A detection without an embedding is fatal.
    """
    lines, stats = parse_mot_lines(path)
    emb = None
    if embeddings_path is not None:
        emb = parse_embeddings(embeddings_path, embedding_dim)

    by_frame: dict[int, list[MotLine]] = {}
    for ln in lines:
        by_frame.setdefault(ln.frame, []).append(ln)

    frames: list[FrameDetections] = []
    for frame in sorted(by_frame):
        dets = []
        for ordinal, ln in enumerate(by_frame[frame]):
            vec = None
            if emb is not None:
                vec = emb.get((frame, ordinal))
                if vec is None:
                    raise FormatError(
                        f"{embeddings_path}: no embedding for frame {frame} "
                        f"ordinal {ordinal}"
                    )
            if ln.score < min_score:
                stats.dropped_low_score += 1
                continue
            dets.append(Detection(ln.bbox, ln.score, ln.class_id, vec))
        frames.append(FrameDetections(frame, tuple(dets)))
    if stats.dropped_low_score:
        log.info("%s: dropped %d detections below score %g",
                 path, stats.dropped_low_score, min_score)
    return frames


def parse_embeddings(
    path: str, expected_dim: Optional[int] = None
) -> dict[tuple[int, int], np.ndarray]:
    """Load an embedding sidecar (binary or CSV), unit-normalizing vectors."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
            mode = "binary" if head == EMBEDDING_MAGIC else "csv"
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from e
    loader = _parse_embeddings_binary if mode == "binary" else _parse_embeddings_csv
    return loader(path, expected_dim)


def _parse_embeddings_binary(path: str, expected_dim: Optional[int]):
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
    payload = blob[16:]
    if len(payload) != count * rec.itemsize:
        raise FormatError(
            f"{path}: expected {count} records ({count * rec.itemsize} bytes), "
            f"found {len(payload)} bytes"
        )
    records = np.frombuffer(payload, dtype=rec)
    out: dict[tuple[int, int], np.ndarray] = {}
    try:
        for key, vec in zip(zip(records["frame"].tolist(),
                                records["ordinal"].tolist()), records["vec"]):
            if key in out:
                raise FormatError(f"{path}: duplicate embedding for {key}")
            out[key] = normalize(np.asarray(vec, dtype=np.float64))
    except ZeroNormError as e:
        raise FormatError(
            f"{path}: embedding for frame {key[0]} ordinal {key[1]}: {e}"
        ) from e
    return out


def _parse_embeddings_csv(path: str, expected_dim: Optional[int]):
    out: dict[tuple[int, int], np.ndarray] = {}
    dim: Optional[int] = expected_dim
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: embedding row too short")
            if dim is None:
                dim = len(parts) - 2
            if len(parts) - 2 != dim:
                raise FormatError(
                    f"{path}:{lineno}: embedding dim {len(parts) - 2}, expected {dim}"
                )
            try:
                frame = int(parts[0])
                ordinal = int(parts[1])
                vec = np.array([float(v) for v in parts[2:]], dtype=np.float64)
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: non-numeric field") from e
            key = (frame, ordinal)
            if key in out:
                raise FormatError(f"{path}: duplicate embedding for {key}")
            try:
                out[key] = normalize(vec)
            except ZeroNormError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
    return out


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
    singular row is fatal."""
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


def write_results(records: Iterable, path: str) -> None:
    """Write tracker output rows sorted by (frame, id).

    Records need frame, track_id, bbox, score, class_id attributes.
    """
    rows = sorted(records, key=lambda r: (r.frame, r.track_id))
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            b = r.bbox
            fh.write(f"{r.frame},{r.track_id},{b.x!r},{b.y!r},{b.w!r},{b.h!r},"
                     f"{float(r.score)!r},{r.class_id},-1,-1\n")


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
class RunConfig:
    """Everything a tracking run needs: paths, tracker knobs, seed."""

    detections: Optional[str] = None
    embeddings: Optional[str] = None
    affines: Optional[str] = None
    output: Optional[str] = None
    embedding_dim: Optional[int] = None  # None: the sidecar's own width
    seed: int = 0
    theta_high: float = 0.6
    theta_low: float = 0.1
    alpha_f: float = 0.9
    w_a: float = 0.5
    w_r: float = 0.1
    radius_R: float = 100.0
    key_bank_capacity: int = 10
    novelty_threshold: float = 0.25
    iou_gate: float = 0.1
    confirm_hits: int = 3
    max_lost_age: int = 30
    use_afs: bool = True
    use_dmp: bool = True

    def tracker_config(self) -> TrackerConfig:
        fields = {f.name for f in dataclasses.fields(TrackerConfig)}
        return TrackerConfig(**{
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(RunConfig) if f.name in fields
        })


_PATH_KEYS = {"detections", "embeddings", "affines", "output"}
_BOOL_KEYS = {"use_afs", "use_dmp"}


def run_config_from_dict(values: dict, source: str = "config") -> RunConfig:
    """Build a RunConfig from key/values (strings from a file, typed values
    from CLI flags), with typed coercion."""
    kwargs = {}
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    for key, value in values.items():
        if key not in field_names:
            raise FormatError(f"{source}: unknown key {key!r}")
        try:
            if key in _PATH_KEYS:
                kwargs[key] = str(value) if value not in (None, "", "none") else None
            elif key in _BOOL_KEYS:
                if isinstance(value, bool):
                    kwargs[key] = value
                else:
                    lowered = str(value).strip().lower()
                    if lowered not in ("true", "false", "0", "1"):
                        raise FormatError(f"{source}: {key} must be true/false")
                    kwargs[key] = lowered in ("true", "1")
            elif key in ("embedding_dim", "seed", "key_bank_capacity",
                         "confirm_hits", "max_lost_age"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        except (ValueError, TypeError) as e:
            if isinstance(e, FormatError):
                raise
            raise FormatError(f"{source}: bad value for {key!r}: {value!r}") from e
    return RunConfig(**kwargs)

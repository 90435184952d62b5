"""Shared helpers for the test suite, and the reference implementations
that the batched code is checked against."""

import logging
import math
from typing import NamedTuple, Optional

import numpy as np
import pytest

from drone_assoc.appearance import BankEntry, KeyFeatureBank
from drone_assoc.core import (
    BoundingBox,
    FrameDetections,
    Track,
    TrackState,
    ZeroNormError,
    boxes_array,
)
from drone_assoc.mot_io import (
    MALFORMED_FATAL_RATIO,
    FormatError,
    IngestStats,
    MotLine,
    MotTable,
)
from drone_assoc.motion import (
    AffineEstimationError,
    AffineTransform,
    _fit_affine_lstsq,
    kalman_init,
)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(0.0, 1.0, dim)
    return v / np.linalg.norm(v)


def make_track(
    bbox=BoundingBox(0.0, 0.0, 10.0, 10.0),
    track_id=1,
    class_id=1,
    state=TrackState.CONFIRMED,
    local_feature=None,
    bank_features=(),
    rotation=None,
) -> Track:
    bank = KeyFeatureBank(capacity=10)
    bank.entries = [BankEntry(np.asarray(f, dtype=np.float64), i)
                    for i, f in enumerate(bank_features)]
    return Track(
        track_id=track_id,
        class_id=class_id,
        state=state,
        motion=kalman_init(bbox),
        local_feature=None if local_feature is None
        else np.asarray(local_feature, dtype=np.float64),
        key_bank=bank,
        rotation=None if rotation is None else np.asarray(rotation, dtype=np.float64),
        consecutive_hits=1,
        last_frame=1,
        last_score=0.9,
    )


class Det(NamedTuple):
    """One detection as a test writes it; frame_detections stacks a frame's."""

    bbox: BoundingBox
    score: float
    class_id: int
    embedding: Optional[np.ndarray] = None


def det(x, y, w=10.0, h=10.0, score=0.9, class_id=1, embedding=None) -> Det:
    return Det(BoundingBox(x, y, w, h), score, class_id, embedding)


def frame_detections(frame: int, dets) -> FrameDetections:
    """The array FrameDetections of a list of Det; embeddings are stacked
    when every detection has one and left out when none has."""
    dets = list(dets)
    embeddings = [d.embedding for d in dets]
    if any(e is None for e in embeddings) and any(e is not None for e in embeddings):
        raise ValueError("a frame's detections carry embeddings all or none")
    return FrameDetections(
        frame,
        boxes_array(d.bbox for d in dets),
        [d.score for d in dets],
        [d.class_id for d in dets],
        np.array(embeddings, dtype=np.float64) if dets and embeddings[0] is not None
        else None,
    )


def mot_table(lines) -> MotTable:
    """The MotTable of a list of MotLine records, in the same order."""
    return MotTable(np.array(
        [(ln.frame, ln.obj_id, ln.bbox.x, ln.bbox.y, ln.bbox.w, ln.bbox.h,
          ln.score, ln.class_id, ln.visibility) for ln in lines],
        dtype=np.float64,
    ).reshape(-1, 9))


def embedding_dict(emb) -> dict:
    """{(frame, ordinal): unit vector} of a parse_embeddings result."""
    return {tuple(k): v for k, v in zip(emb.keys.tolist(), emb.vectors)}


def reference_normalize(values) -> np.ndarray:
    """A vector scaled to unit L2 norm, one `dot` and one `sqrt`; each row
    of normalize_rows must equal it bit for bit."""
    v = np.asarray(values, dtype=np.float64)
    n = math.sqrt(float(v.dot(v)))
    if n < 1e-12 or not math.isfinite(n):
        raise ZeroNormError("zero-length" if n < 1e-12 else "non-finite")
    return v / n


def reference_parse_mot_lines(path: str):
    """The per-row MOT reader that parse_mot_lines replaces with masks:
    returns (MotLine list, IngestStats) and logs its warnings to the same
    logger, or raises the same FormatError. One rule is newer than the
    per-row reader: a frame, id or class past the int64 range is malformed
    rather than kept as a Python int."""
    stats = IngestStats()
    out = []
    warn = logging.getLogger("drone_assoc.io").warning

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
            warn("%s:%d: expected >=8 columns, got %d", path, lineno, len(parts))
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
            warn("%s:%d: non-numeric field", path, lineno)
            continue
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (frame, obj_id, class_id)):
            stats.malformed += 1
            warn("%s:%d: frame, id or class outside the int64 range", path, lineno)
            continue
        if not (fin(x) and fin(y) and fin(w) and fin(h) and fin(score)):
            stats.malformed += 1
            warn("%s:%d: non-finite box or score", path, lineno)
            continue
        if frame < 1:
            stats.malformed += 1
            warn("%s:%d: frame indices are 1-based", path, lineno)
            continue
        if w <= 0 or h <= 0:
            stats.skipped_empty_box += 1
            warn("%s:%d: skipping box with non-positive extent", path, lineno)
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
        warn("%s: clamped %d out-of-range scores", path, stats.clamped_scores)
    return out, stats


def reference_estimate_affine(
    prev_points, cur_points, rng=None, inlier_threshold=3.0, max_iterations=100
) -> AffineTransform:
    """One-model-at-a-time RANSAC loop that estimate_affine batches; the
    batched version must return the same matrix and leave `rng` in the same
    state."""
    prev = np.asarray(prev_points, dtype=np.float64).reshape(-1, 2)
    cur = np.asarray(cur_points, dtype=np.float64).reshape(-1, 2)
    if prev.shape != cur.shape:
        raise ValueError("point arrays must have matching shapes")
    n = prev.shape[0]
    if n < 3:
        raise AffineEstimationError("need at least 3 point pairs")
    rng = rng if rng is not None else np.random.default_rng(0)

    best_inliers = None
    for _ in range(max_iterations):
        pick = rng.choice(n, size=3, replace=False)
        model = _fit_affine_lstsq(prev[pick], cur[pick])
        if model is None:
            continue
        resid = np.linalg.norm(model.apply_points(prev) - cur, axis=1)
        inliers = resid <= inlier_threshold
        if best_inliers is None or inliers.sum() > best_inliers.sum():
            best_inliers = inliers
        if inliers.sum() == n:
            break

    if best_inliers is None or best_inliers.sum() < 3:
        raise AffineEstimationError("no 3-pair support found for an affine fit")
    refit = _fit_affine_lstsq(prev[best_inliers], cur[best_inliers])
    if refit is None:
        raise AffineEstimationError("consensus points are collinear")
    return refit


def grid_error(m: np.ndarray, truth: np.ndarray, extent: float = 600.0) -> float:
    """Mean displacement (px) between two 2x3 affines over an 11 x 11 grid
    spanning [0, extent]^2, as the benchmark scores camera motion."""
    axis = np.linspace(0.0, extent, 11)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    diff = grid @ (m[:, :2] - truth[:, :2]).T + (m[:, 2] - truth[:, 2])
    return float(np.mean(np.linalg.norm(diff, axis=1)))


_F8 = np.eye(8)
_F8[:4, 4:] = np.eye(4)
_H48 = np.eye(4, 8)


def box_measurement(box: BoundingBox) -> np.ndarray:
    return np.array(
        [box.x + box.w / 2.0, box.y + box.h / 2.0, box.w / box.h, box.h]
    )


def textbook_init(z: np.ndarray):
    mean = np.zeros(8)
    mean[:4] = z
    h = z[3]
    std = np.array([h / 10, h / 10, 1e-2, h / 10, h / 16, h / 16, 1e-5, h / 16])
    return mean, np.diag(std**2)


def textbook_predict(mean, cov):
    h = mean[3]
    std = np.array(
        [h / 20, h / 20, 1e-2, h / 20, h / 160, h / 160, 1e-5, h / 160]
    )
    return _F8 @ mean, _F8 @ cov @ _F8.T + np.diag(std**2)


def textbook_update(mean, cov, z):
    h = mean[3]
    std = np.array([h / 20, h / 20, 1e-1, h / 20])
    innov_cov = _H48 @ cov @ _H48.T + np.diag(std**2)
    gain = cov @ _H48.T @ np.linalg.inv(innov_cov)
    new_mean = mean + gain @ (z - _H48 @ mean)
    new_cov = (np.eye(8) - gain @ _H48) @ cov
    return new_mean, new_cov


def textbook_warp(mean, cov, m: AffineTransform):
    """Camera compensation written out: the linear part moves the centre and
    the centre velocity, the translation shifts the centre, the height and
    its velocity scale by sqrt|det|, and the aspect ratio stays."""
    a = m.m[:, :2]
    scale = math.sqrt(abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
    t8 = np.eye(8)
    t8[0:2, 0:2] = a
    t8[4:6, 4:6] = a
    t8[3, 3] = t8[7, 7] = scale
    new_mean = t8 @ mean
    new_mean[0:2] += m.m[:, 2]
    return new_mean, t8 @ cov @ t8.T


def reference_rotation_descriptor(subject, neighbors, radius: float):
    """Per-subject rotation descriptor, one triangle at a time; the batched
    frame_descriptors must give the same rows and the same Nones."""
    p0 = np.asarray(subject, dtype=np.float64)
    pts = np.asarray(list(neighbors), dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] < 2:
        return None
    d = np.linalg.norm(pts - p0, axis=1)
    keep = (d > 0.0) & (d <= radius)
    if keep.sum() < 2:
        return None
    pts = pts[keep]
    d = d[keep]
    order = np.argsort(d, kind="stable")
    p1 = pts[order[0]]
    p2 = pts[order[-1]]

    e1 = p1 - p0
    e2 = p2 - p0
    area = 0.5 * abs(float(e1[0] * e2[1] - e1[1] * e2[0]))
    if area < 1e-6:
        return None

    def edge(a, b):
        dx = float(a[0] - b[0])
        dy = float(a[1] - b[1])
        return math.sqrt(dx * dx + dy * dy)

    def angle(opposite, b, c):
        cos_a = (b * b + c * c - opposite * opposite) / (2.0 * b * c)
        return math.acos(min(1.0, max(-1.0, cos_a)))

    # side lengths opposite each vertex: s0 faces the subject
    s0, s1, s2 = edge(p1, p2), edge(p0, p2), edge(p0, p1)
    angles = np.array([angle(s0, s1, s2), angle(s1, s2, s0), angle(s2, s0, s1)])
    sides = np.array([s0, s1, s2])
    two_smallest = np.sort(angles)[:2]
    return np.array(
        [two_smallest[0], two_smallest[1], sides[int(np.argmax(angles))] / radius]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(7)

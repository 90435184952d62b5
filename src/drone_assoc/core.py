"""Core domain types and geometry for the association engine.

Boxes are axis-aligned, top-left (x, y, w, h) in pixels. Frames are 1-based,
detection ordinals within a frame are 0-based. Embeddings are held as
read, at their stored width: float32 rows from the binary sidecar, float64
from CSV or from a caller. The tracker scales a frame's rows to unit L2
norm when it reads them, so every feature it stores is unit-norm float64.

A frame's detections are columns, not objects: FrameDetections holds an
(M, 4) box block, (M,) scores and classes, and an (M, D) embedding block or
None, in file order. The tracker splits and gathers them with masks.
normalize_rows scales a whole embedding block in place, for the tracker's
frame rows and its feature blend; normalize is its one-row call on a copy.
checked_norms is its norm and check alone, for a loader that keeps the rows
as stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


class ZeroNormError(ValueError):
    """Raised when a zero-length or non-finite vector is asked to be
    normalized."""


class ConfigError(ValueError):
    """Raised when a configuration value violates its contract."""


def _norm_error(n: float) -> ZeroNormError:
    what = "zero-length" if n < 1e-12 else "non-finite"
    return ZeroNormError(f"cannot normalize a {what} embedding")


def normalize(values: np.ndarray) -> np.ndarray:
    """Return a float64 copy of `values` scaled to unit L2 norm, in their
    shape: the one-row call of normalize_rows."""
    v = np.array(values, dtype=np.float64, order="C")
    return normalize_rows(v.reshape(1, -1)).reshape(v.shape)


def checked_norms(block: np.ndarray) -> np.ndarray:
    """The (N,) L2 norms of the rows of a float64 (N, D) block, each checked.

    The stacked (1, D) @ (D, 1) products run the same dot kernel as a
    vector's own `v.dot(v)`, row by row. A zero-length or non-finite row
    raises ZeroNormError with `row` set to the first such index.
    """
    norms = np.sqrt((block[:, None, :] @ block[:, :, None]).reshape(-1))
    bad = ~(norms >= 1e-12) | ~np.isfinite(norms)
    if bad.any():
        row = int(np.argmax(bad))
        err = _norm_error(float(norms[row]))
        err.row = row
        raise err
    return norms


def normalize_rows(block: np.ndarray) -> np.ndarray:
    """Scale every row of a C-contiguous float64 (N, D) block to unit L2
    norm, in place, and return it. A zero-length or non-finite row raises
    checked_norms' ZeroNormError, and the block is left untouched then."""
    block /= checked_norms(block)[:, None]
    return block


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box, top-left corner plus extent, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        # plain python floats, so repr-based writers stay clean
        values = (float(self.x), float(self.y), float(self.w), float(self.h))
        if not all(map(math.isfinite, values)):
            for name, value in zip(("x", "y", "w", "h"), values):
                if not math.isfinite(value):
                    raise ValueError(f"bounding box field {name} must be finite")
        setattr_ = object.__setattr__
        setattr_(self, "x", values[0])
        setattr_(self, "y", values[1])
        setattr_(self, "w", values[2])
        setattr_(self, "h", values[3])
        if self.w <= 0 or self.h <= 0:
            raise ValueError("bounding box extent must be positive")

    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def boxes_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """(N, 4) float64 array of xywh rows, in the given order."""
    return np.array(
        [(b.x, b.y, b.w, b.h) for b in boxes], dtype=np.float64
    ).reshape(-1, 4)


def box_centers(xywh: np.ndarray) -> np.ndarray:
    """(N, 2) centres of (N, 4) xywh rows, in BoundingBox.center's arithmetic."""
    return np.column_stack([xywh[:, 0] + xywh[:, 2] / 2.0, xywh[:, 1] + xywh[:, 3] / 2.0])


def iou_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of xywh boxes a[..., :4] and b[..., :4] elementwise, broadcasting
    their leading dimensions: (K, 4) with (K, 4) gives the K pairs' IoUs,
    iou_matrix passes (N, 1, 4) and (1, M, 4)."""
    ax1, ay1, aw, ah = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bx1, by1, bw, bh = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    iw = np.minimum(ax1 + aw, bx1 + bw) - np.maximum(ax1, bx1)
    ih = np.minimum(ay1 + ah, by1 + bh) - np.maximum(ay1, by1)
    # np.maximum/np.minimum clip exactly as np.clip does, at a third of its
    # call overhead on frame-sized matrices
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (aw * ah) + (bw * bh) - inter
    return np.minimum(np.maximum(inter / union, 0.0), 1.0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) arrays of xywh boxes.

    Returns an (N, M) float64 matrix. Empty inputs give an empty matrix.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    return iou_pairs(a[:, None, :], b[None, :, :])


@dataclass(frozen=True, eq=False)
class FrameDetections:
    """All detections of one frame, in file order, as columns: boxes (M, 4)
    xywh float64, scores (M,) in [0, 1], classes (M,) int64 and embeddings
    (M, D) finite rows as given, or None. Float32 and float64 embeddings keep
    their dtype, any other is widened to float64; the rows need not be unit
    norm, since the tracker normalizes the rows it reads.
    `FrameDetections(t, ())` is an empty frame."""

    frame: int
    boxes: np.ndarray = ()
    scores: np.ndarray = ()
    classes: np.ndarray = ()
    embeddings: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError("frame indices are 1-based")
        boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        classes = np.asarray(self.classes, dtype=np.int64).reshape(-1)
        m = boxes.shape[0]
        if scores.shape[0] != m or classes.shape[0] != m:
            raise ValueError("boxes, scores and classes need one row per detection")
        if not np.isfinite(boxes).all():
            raise ValueError("bounding boxes must be finite")
        if not (boxes[:, 2:] > 0).all():
            raise ValueError("bounding box extent must be positive")
        if not ((scores >= 0.0) & (scores <= 1.0)).all():
            raise ValueError("detection score must lie in [0, 1]")
        setattr_ = object.__setattr__
        setattr_(self, "boxes", boxes)
        setattr_(self, "scores", scores)
        setattr_(self, "classes", classes)
        if self.embeddings is not None:
            emb = np.asarray(self.embeddings)
            if emb.dtype not in (np.float32, np.float64):
                emb = emb.astype(np.float64)
            if emb.ndim != 2 or emb.shape[0] != m:
                raise ValueError("embeddings need one row per detection")
            if not np.isfinite(emb).all():
                raise ValueError("embeddings must be finite")
            setattr_(self, "embeddings", emb)

    def __len__(self) -> int:
        return self.boxes.shape[0]


@dataclass(frozen=True)
class TrackerConfig:
    """Engine knobs. Defaults are the tuned operating point.

    theta_high/theta_low split detections into the two association stages;
    alpha_f is the floor of the adaptive feature-blend weight; w_a and w_r
    weight the appearance and rotation terms of the fused cost; radius_R is
    the neighborhood radius (px) for the rotation descriptor.
    """

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

    def __post_init__(self):
        if not 0.0 <= self.theta_low < self.theta_high <= 1.0:
            raise ConfigError("need 0 <= theta_low < theta_high <= 1")
        if not 0.0 < self.alpha_f <= 1.0:
            raise ConfigError("alpha_f must lie in (0, 1]")
        # an infinite weight turns a neutral 0 term into NaN
        if not (0 <= self.w_a < math.inf and 0 <= self.w_r < math.inf):
            raise ConfigError("cost weights must be finite and non-negative")
        if not self.radius_R > 0:
            raise ConfigError("radius_R must be positive")
        if self.key_bank_capacity < 1:
            raise ConfigError("key_bank_capacity must be >= 1")
        if not 0.0 <= self.iou_gate < 1.0:
            raise ConfigError("iou_gate must lie in [0, 1)")
        if self.confirm_hits < 1:
            raise ConfigError("confirm_hits must be >= 1")
        if self.max_lost_age < 0:
            raise ConfigError("max_lost_age must be >= 0")
        if not self.novelty_threshold >= 0:
            raise ConfigError("novelty_threshold must be >= 0")

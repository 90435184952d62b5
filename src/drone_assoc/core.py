"""Core domain types and geometry for the association engine.

Boxes are axis-aligned, top-left (x, y, w, h) in pixels. Frames are 1-based,
detection ordinals within a frame are 0-based. Embeddings are float64 numpy
vectors kept at unit L2 norm once ingested.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

if TYPE_CHECKING:
    from .appearance import KeyFeatureBank
    from .motion import MotionState

DEFAULT_EMBEDDING_DIM = 128


class ZeroNormError(ValueError):
    """Raised when a zero-length or non-finite vector is asked to be
    normalized."""


class ConfigError(ValueError):
    """Raised when a configuration value violates its contract."""


def normalize(values: np.ndarray) -> np.ndarray:
    """Return `values` scaled to unit L2 norm as a float64 array."""
    v = np.asarray(values, dtype=np.float64)
    flat = v.ravel(order="K")
    n = math.sqrt(float(flat.dot(flat)))  # np.linalg.norm's own arithmetic
    if n < 1e-12 or not math.isfinite(n):
        what = "zero-length" if n < 1e-12 else "non-finite"
        raise ZeroNormError(f"cannot normalize a {what} embedding")
    return v / n


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


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) arrays of xywh boxes.

    Returns an (N, M) float64 matrix. Empty inputs give an empty matrix.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
    ax1, ay1 = a[:, 0:1], a[:, 1:2]
    ax2, ay2 = ax1 + a[:, 2:3], ay1 + a[:, 3:4]
    bx1, by1 = b[None, :, 0], b[None, :, 1]
    bx2, by2 = bx1 + b[None, :, 2], by1 + b[None, :, 3]
    iw = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    ih = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    # np.maximum/np.minimum clip exactly as np.clip does, at a third of its
    # call overhead on frame-sized matrices
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (a[:, 2:3] * a[:, 3:4]) + (b[None, :, 2] * b[None, :, 3]) - inter
    return np.minimum(np.maximum(inter / union, 0.0), 1.0)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]; the 1x1 iou_matrix."""
    return float(iou_matrix(a.as_array(), b.as_array())[0, 0])


@dataclass(frozen=True)
class Detection:
    """One detector output: box, confidence, class, optional embedding."""

    bbox: BoundingBox
    score: float
    class_id: int
    embedding: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("detection score must lie in [0, 1]")


@dataclass(frozen=True)
class FrameDetections:
    """All detections of one frame, in file order."""

    frame: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError("frame indices are 1-based")


class TrackState(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


@dataclass
class Track:
    """Mutable per-identity state. Only the association engine writes it."""

    track_id: int
    class_id: int
    state: TrackState
    motion: "MotionState"
    local_feature: Optional[np.ndarray] = None
    key_bank: Optional["KeyFeatureBank"] = None
    rotation: Optional[np.ndarray] = None
    consecutive_hits: int = 0
    lost_age: int = 0
    last_frame: int = 0
    last_score: float = 0.0


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
    use_dmp: bool = True

    def __post_init__(self):
        if not 0.0 <= self.theta_low < self.theta_high <= 1.0:
            raise ConfigError("need 0 <= theta_low < theta_high <= 1")
        if not 0.0 < self.alpha_f <= 1.0:
            raise ConfigError("alpha_f must lie in (0, 1]")
        if self.w_a < 0 or self.w_r < 0:
            raise ConfigError("cost weights must be non-negative")
        if self.radius_R <= 0:
            raise ConfigError("radius_R must be positive")
        if self.key_bank_capacity < 1:
            raise ConfigError("key_bank_capacity must be >= 1")
        if not 0.0 <= self.iou_gate < 1.0:
            raise ConfigError("iou_gate must lie in [0, 1)")
        if self.confirm_hits < 1:
            raise ConfigError("confirm_hits must be >= 1")
        if self.max_lost_age < 0:
            raise ConfigError("max_lost_age must be >= 0")
        if self.novelty_threshold < 0:
            raise ConfigError("novelty_threshold must be >= 0")

"""Shared helpers for the test suite, and the reference implementations
that the batched code is checked against."""

import math

import numpy as np
import pytest

from drone_assoc.appearance import BankEntry, KeyFeatureBank
from drone_assoc.core import BoundingBox, Detection, Track, TrackState
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


def det(x, y, w=10.0, h=10.0, score=0.9, class_id=1, embedding=None) -> Detection:
    return Detection(BoundingBox(x, y, w, h), score, class_id, embedding)


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

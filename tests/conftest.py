"""Shared helpers for the test suite."""

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


@pytest.fixture
def rng():
    return np.random.default_rng(7)

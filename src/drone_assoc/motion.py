"""Motion models: constant-velocity Kalman filter on (cx, cy, a, h),
camera-motion compensation via 2x3 affine warps, and a triangle-based
rotation descriptor over neighboring object centers.

Each operation has one batched implementation: multi_init, multi_predict
(warp, then predict), multi_update, frame_descriptors and
rotation_pair_costs. Boxes enter them as (N, 4) xywh arrays; descriptors
are (N, 3) rows, a zero row where a point has none. The rotation term is
scored on (track, detection) pairs, the ones that pass the tracker's gates.
The single-item functions (kalman_init, kalman_predict, kalman_update,
rotation_descriptor, rotation_cost) are one-row calls of it.

Camera motion without a sidecar comes from estimate_affine, a RANSAC search
that draws all of its minimal 3-point models in one generator call and fits
and scores them in one batch. A determinant bound certifies the minimal
samples' rank test for all but near-collinear triples, so the SVD that
defines that test runs only on the few the bound cannot decide.

The filter state is [cx, cy, a, h, vcx, vcy, va, vh] where a = w / h.
Noise scales with box height: weight 1/20 on position terms, 1/160 on
velocity terms. Camera compensation always runs before prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import BoundingBox, boxes_array

STD_WEIGHT_POSITION = 1.0 / 20.0
STD_WEIGHT_VELOCITY = 1.0 / 160.0

# smallest box extent reconstructed from a filter state
_MIN_EXTENT = 1e-3

# per-component height weights of the batched noise terms; the aspect-ratio
# components are constants and get overwritten
_Q_WEIGHTS = np.array([STD_WEIGHT_POSITION] * 4 + [STD_WEIGHT_VELOCITY] * 4)
_R_WEIGHTS = _Q_WEIGHTS[:4]

_F = np.eye(8, dtype=np.float64)
_F[:4, 4:] = np.eye(4)
_H = np.eye(4, 8, dtype=np.float64)


class DegenerateTransformError(ValueError):
    """Raised for affine transforms with |det| <= 1e-9."""


class AffineEstimationError(RuntimeError):
    """Raised when no affine can be estimated; callers fall back to identity."""


@dataclass(frozen=True)
class MotionState:
    """Kalman mean (8,) and covariance (8, 8) for one track."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        if self.mean.shape != (8,) or self.covariance.shape != (8, 8):
            raise ValueError("motion state must be mean (8,) and covariance (8, 8)")


@dataclass(frozen=True)
class AffineTransform:
    """2x3 matrix [[a, b, tx], [c, d, ty]] mapping previous-frame points
    to current-frame points."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (2, 3):
            raise ValueError("affine matrix must have shape (2, 3)")
        if not np.all(np.isfinite(m)):
            raise DegenerateTransformError("affine matrix has non-finite entries")
        object.__setattr__(self, "m", m)
        if abs(self.det()) <= 1e-9:
            raise DegenerateTransformError("affine transform is numerically singular")

    @classmethod
    def identity(cls) -> "AffineTransform":
        return cls(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def det(self) -> float:
        m = self.m
        return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    @property
    def linear(self) -> np.ndarray:
        return self.m[:, :2]

    @property
    def translation(self) -> np.ndarray:
        return self.m[:, 2]

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        """Transform an (N, 2) point array."""
        pts = np.asarray(pts, dtype=np.float64)
        return pts @ self.linear.T + self.translation

    def inverse(self) -> "AffineTransform":
        inv = np.linalg.inv(self.linear)
        t = -inv @ self.translation
        return AffineTransform(np.column_stack([inv, t]))


def _measurements(xywh: np.ndarray) -> np.ndarray:
    """(N, 4) measurements [cx, cy, a, h] of (N, 4) xywh box rows."""
    w, h = xywh[:, 2], xywh[:, 3]
    return np.column_stack([xywh[:, 0] + w / 2.0, xywh[:, 1] + h / 2.0, w / h, h])


def states_to_xywh(means: np.ndarray) -> np.ndarray:
    """(N, 4) xywh boxes of (N, 8) filter means, clamped to positive extent."""
    h = np.maximum(means[:, 3], _MIN_EXTENT)
    w = np.maximum(means[:, 2] * h, _MIN_EXTENT)
    return np.column_stack([means[:, 0] - w / 2.0, means[:, 1] - h / 2.0, w, h])


def kalman_init(box: BoundingBox) -> MotionState:
    """Start a filter at a measured box with zero velocity; the one-row
    call of multi_init."""
    means, covs = multi_init(box.as_array()[None])
    return MotionState(means[0], covs[0])


# initial standard deviations per unit of box height; the aspect-ratio
# components are constants and get overwritten
_INIT_WEIGHTS = np.array([2 * STD_WEIGHT_POSITION] * 4 + [10 * STD_WEIGHT_VELOCITY] * 4)


def multi_init(xywh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filters started at (N, 4) xywh boxes with zero velocity: means (N, 8)
    and diagonal covariances (N, 8, 8).

    The initial uncertainty scales with box height: doubled position weight
    on the observed components, 10x velocity weight on the unobserved ones.
    """
    z = _measurements(np.asarray(xywh, dtype=np.float64).reshape(-1, 4))
    means = np.zeros((z.shape[0], 8), dtype=np.float64)
    if z.shape[0] == 0:
        return means, np.zeros((0, 8, 8), dtype=np.float64)
    means[:, :4] = z
    std = np.multiply.outer(z[:, 3], _INIT_WEIGHTS)
    std[:, 2] = 1e-2
    std[:, 6] = 1e-5
    covs = np.zeros((z.shape[0], 8, 8), dtype=np.float64)
    idx = np.arange(8)
    covs[:, idx, idx] = std * std
    return means, covs


def kalman_predict(s: MotionState) -> MotionState:
    """One constant-velocity step: mean <- F mean, cov <- F cov F' + Q; the
    one-row call of multi_predict without a camera transform."""
    means, covs = multi_predict(s.mean[None], s.covariance[None], None)
    return MotionState(means[0], covs[0])


def kalman_update(s: MotionState, box: BoundingBox) -> MotionState:
    """Fold a measured box into the state (standard Kalman correction)."""
    means, covs = multi_update(s.mean[None], s.covariance[None], boxes_array([box]))
    return MotionState(means[0], covs[0])


def multi_update(
    means: np.ndarray, covs: np.ndarray, xywh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman correction of stacked (N, 8) means and (N, 8, 8) covs by one
    measured (N, 4) xywh box per state, in the same order; kalman_update is
    its one-row call."""
    means = np.array(means, dtype=np.float64)
    covs = np.array(covs, dtype=np.float64)
    if means.shape[0] == 0:
        return means, covs
    z = _measurements(np.asarray(xywh, dtype=np.float64).reshape(-1, 4))
    std = np.multiply.outer(means[:, 3], _R_WEIGHTS)
    std[:, 2] = 1e-1
    pht = covs[:, :, :4]
    innov_cov = pht[:, :4, :].copy()
    idx = np.arange(4)
    innov_cov[:, idx, idx] += std * std
    gain = np.linalg.solve(innov_cov, np.transpose(pht, (0, 2, 1)))
    gain = np.transpose(gain, (0, 2, 1))
    means = means + np.einsum("nij,nj->ni", gain, z - means[:, :4])
    covs = covs - gain @ innov_cov @ np.transpose(gain, (0, 2, 1))
    covs = (covs + np.transpose(covs, (0, 2, 1))) * 0.5
    return means, covs


def _warp_matrix(m: AffineTransform) -> np.ndarray:
    """8x8 linear map applied to the filter state under a viewport affine:
    the linear part acts on position and velocity, h and vh pick up the
    isotropic scale factor, the aspect ratio is left alone."""
    scale = math.sqrt(abs(m.det()))
    t8 = np.eye(8, dtype=np.float64)
    t8[0:2, 0:2] = m.linear
    t8[3, 3] = scale
    t8[4:6, 4:6] = m.linear
    t8[7, 7] = scale
    return t8


def multi_predict(
    means: np.ndarray, covs: np.ndarray, m: Optional[AffineTransform]
) -> tuple[np.ndarray, np.ndarray]:
    """Warp (when a transform is given) then predict stacked (N, 8) means and
    (N, 8, 8) covs; kalman_predict is its one-row call without a transform.
    The process noise scales with the warped height."""
    means = np.array(means, dtype=np.float64)
    covs = np.array(covs, dtype=np.float64)
    if means.shape[0] == 0:
        return means, covs
    if m is not None:
        means, covs = _multi_warp(means, covs, m)
    std = np.multiply.outer(means[:, 3], _Q_WEIGHTS)
    std[:, 2] = 1e-2
    std[:, 6] = 1e-5
    means = means @ _F.T
    covs = _F @ covs @ _F.T
    idx = np.arange(8)
    covs[:, idx, idx] += std * std
    return means, covs


def _multi_warp(
    means: np.ndarray, covs: np.ndarray, m: AffineTransform
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked filter states re-expressed in the next frame's coordinates."""
    t8 = _warp_matrix(m)
    means = means @ t8.T
    means[:, 0:2] += m.translation
    return means, t8 @ covs @ t8.T


def estimate_affine(
    prev_points: np.ndarray,
    cur_points: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    inlier_threshold: float = 3.0,
    max_iterations: int = 100,
) -> AffineTransform:
    """Robust least-squares affine from matched point pairs.

    Draws `max_iterations` minimal 3-point models in one call on `rng`, fits
    and scores them in one batch, keeps the first one with the largest
    consensus set under `inlier_threshold` (px), and refits on that set by
    least squares.

    A pair with a non-finite coordinate supports no model, so one such pair
    is outvoted. Raises AffineEstimationError with fewer than 3 pairs, with
    no models to draw, or when every candidate support is collinear; callers
    treat that as identity.
    """
    prev = np.asarray(prev_points, dtype=np.float64).reshape(-1, 2)
    cur = np.asarray(cur_points, dtype=np.float64).reshape(-1, 2)
    if prev.shape != cur.shape:
        raise ValueError("point arrays must have matching shapes")
    n = prev.shape[0]
    if n < 3:
        raise AffineEstimationError("need at least 3 point pairs")
    if max_iterations < 1:
        raise AffineEstimationError("no minimal models to draw")
    rng = rng if rng is not None else np.random.default_rng(0)

    picks = _draw_picks(rng, n, max_iterations)
    homog = np.column_stack([prev, np.ones(n)])  # rows [x y 1]
    coef, valid = _fit_minimal_models(homog[picks], cur[picks])
    diff = homog @ coef - cur  # (K, N, 2), one matmul
    # np.linalg.norm's arithmetic over the last axis
    dx, dy = diff[:, :, 0], diff[:, :, 1]
    resid = np.sqrt(dx * dx + dy * dy)
    inliers = (resid <= inlier_threshold) & valid[:, None]
    # a skipped pick counts 0 inliers; only a count of 3 or more is kept
    best_inliers = inliers[np.argmax(inliers.sum(axis=1))]
    if best_inliers.sum() < 3:
        raise AffineEstimationError("no 3-pair support found for an affine fit")
    refit = _fit_affine_lstsq(prev[best_inliers], cur[best_inliers])
    if refit is None:
        raise AffineEstimationError("consensus points are collinear")
    return refit


# a triple with |det B| > this * |B|_F^3 passes the SVD rank rule for certain
_RANK_CERTIFICATE = 1e-12


def _draw_picks(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, 3) index triples from one (count, n) draw of uniform keys:
    each row holds the positions of its 3 smallest keys, so its indices are
    distinct and every 3-subset is equally likely."""
    return np.argpartition(rng.random((count, n)), 2, axis=1)[:, :3]


def _fit_minimal_models(
    basis: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact affines through K triples of pairs, and which of them count.

    `basis` (K, 3, 3) holds rows [x y 1] of the previous points, `targets`
    (K, 3, 2) the current points; coef (K, 3, 2) solves basis @ coef =
    targets, so coef[k].T is the 2x3 matrix. A model is skipped under the
    rules _fit_affine_lstsq applies to 3 pairs: its 6x6 system has the
    singular values of the 3x3 basis, each twice, so it is rank-deficient
    when the smallest of those is <= the largest * 6 * eps; and the model
    must be finite with |det| > 1e-9.

    A determinant bound decides the rank rule for most triples without the
    SVD. Since |det B| = s1 s2 s3 <= s_max^2 s_min and s_max <= |B|_F,

        s_min / s_max >= |det B| / |B|_F^3.

    det B is computed from coordinate differences, (x1 - x0)(y2 - y0) -
    (x2 - x0)(y1 - y0), with a rounding error of at most about
    32 eps |B|_F^3 (|B|_F >= sqrt(3) for the column of ones). A triple with
    det^2 > c^2 |B|_F^6, c = _RANK_CERTIFICATE = 1e-12, therefore has
    s_min / s_max above c - 32 eps, about 4470 eps: some 700x above the
    6 eps cut, which covers LAPACK's singular-value error of order 100 eps
    relative to s_max with a wide margin. Such a triple meets the SVD rule
    for certain. Only the others go through the SVD, which stays the
    definition of the rule: near-collinear triples, and those whose
    coordinates are so large or small that the bound overflows or
    underflows. An undecided triple with a non-finite coordinate is invalid
    without the SVD, which gives that verdict for +-inf and raises
    LinAlgError for NaN; a pair with a NaN coordinate is thus outvoted as an
    infinite one is.
    """
    x, y = basis[:, :, 0], basis[:, :, 1]
    # a bound that overflows is inf or NaN, certifies nothing and is not an error
    with np.errstate(over="ignore", invalid="ignore"):
        det_b = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])
        frob2 = (basis * basis).sum(axis=(1, 2))
        valid = det_b * det_b > _RANK_CERTIFICATE**2 * (frob2 * frob2 * frob2)
    unsure = np.flatnonzero(~valid)
    if unsure.size:
        # a non-finite triple is invalid; the SVD cannot converge on NaN
        unsure = unsure[np.isfinite(basis[unsure]).all(axis=(1, 2))]
        sv = np.linalg.svd(basis[unsure], compute_uv=False)
        valid[unsure] = sv[:, -1] > sv[:, 0] * (6 * np.finfo(np.float64).eps)
    coef = np.linalg.solve(np.where(valid[:, None, None], basis, np.eye(3)), targets)
    det = coef[:, 0, 0] * coef[:, 1, 1] - coef[:, 1, 0] * coef[:, 0, 1]
    valid &= np.isfinite(coef).all(axis=(1, 2)) & (np.abs(det) > 1e-9)
    return coef, valid


def _fit_affine_lstsq(prev: np.ndarray, cur: np.ndarray) -> Optional[AffineTransform]:
    """Exact/least-squares affine fit; None when the system is degenerate."""
    n = prev.shape[0]
    a = np.zeros((2 * n, 6), dtype=np.float64)
    a[0::2, 0:2] = prev
    a[0::2, 2] = 1.0
    a[1::2, 3:5] = prev
    a[1::2, 5] = 1.0
    b = cur.reshape(-1)
    if np.linalg.matrix_rank(a) < 6:
        return None
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    m = np.array([[sol[0], sol[1], sol[2]], [sol[3], sol[4], sol[5]]])
    try:
        return AffineTransform(m)
    except DegenerateTransformError:
        return None


def rotation_descriptor(
    subject: tuple[float, float],
    neighbors: Iterable[tuple[float, float]],
    radius: float,
) -> Optional[np.ndarray]:
    """Triangle shape descriptor of a point among its neighbors.

    Builds the triangle {subject, nearest neighbor, farthest neighbor} over
    neighbors at distance in (0, radius], and returns
    [smallest angle, second-smallest angle, side opposite the largest angle
    divided by radius]. Returns None when fewer than two distinct neighbors
    qualify or the triangle is degenerate (area < 1e-6 px^2). This is row 0
    of frame_descriptors over [subject, *neighbors], None for a zero row.
    """
    pts = np.vstack([
        np.reshape(np.asarray(subject, dtype=np.float64), (1, 2)),
        np.asarray(list(neighbors), dtype=np.float64).reshape(-1, 2),
    ])
    row = frame_descriptors(pts, radius)[0]
    return row if row.any() else None


def frame_descriptors(centers: np.ndarray, radius: float) -> np.ndarray:
    """rotation_descriptor of every point in a frame against the others, as
    (M, 3) rows.

    Shares one pairwise-distance matrix across subjects. A row is zero when
    fewer than two neighbors qualify or the triangle is degenerate; a valid
    descriptor never is, since its third entry, a side, is positive.
    """
    pts = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if n < 3:
        return np.zeros((n, 3))
    # np.linalg.norm's arithmetic over the last axis, without its (n, n, 2)
    # intermediate
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    d = np.sqrt(dx * dx + dy * dy)
    qual = (d > 0.0) & (d <= radius)
    valid = qual.sum(axis=1) >= 2
    if not valid.any():
        return np.zeros((n, 3))

    nearest = np.argmin(np.where(qual, d, np.inf), axis=1)
    # ties on the farthest distance resolve to the last qualifying index
    farthest = n - 1 - np.argmax(np.where(qual, d, -np.inf)[:, ::-1], axis=1)

    p1 = pts[nearest]
    p2 = pts[farthest]
    e1 = p1 - pts
    e2 = p2 - pts
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    valid &= area >= 1e-6

    s0 = _edge_lengths(p1, p2)
    s1 = _edge_lengths(pts, p2)
    s2 = _edge_lengths(pts, p1)
    angles = np.column_stack(
        [
            _triangle_angles(s0, s1, s2),
            _triangle_angles(s1, s2, s0),
            _triangle_angles(s2, s0, s1),
        ]
    )
    sides = np.column_stack([s0, s1, s2])
    two_smallest = np.sort(angles, axis=1)
    opposite = sides[np.arange(n), np.argmax(angles, axis=1)] / radius
    desc = np.column_stack([two_smallest[:, 0], two_smallest[:, 1], opposite])
    desc[~valid] = 0.0
    return desc


def _triangle_angles(opposite: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Angle opposite the first side, by the law of cosines, over aligned
    arrays; zero denominators are masked to keep degenerate (already
    invalid) rows from raising."""
    denom = 2.0 * b * c
    denom = np.where(denom > 0.0, denom, 1.0)
    cos_a = (b * b + c * c - opposite * opposite) / denom
    return np.arccos(np.clip(cos_a, -1.0, 1.0))


def _edge_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dx = a[:, 0] - b[:, 0]
    dy = a[:, 1] - b[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def rotation_cost(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> float:
    """1 - cosine similarity between two descriptors, clamped to [0, 1]; the
    one-row call of rotation_pair_costs, with a missing (None) descriptor as
    a zero row."""
    rows = [np.zeros(3) if d is None else np.asarray(d, dtype=np.float64) for d in (a, b)]
    return float(rotation_pair_costs(rows[0][None], rows[1][None])[0])


def rotation_pair_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(P,) 1 - cosine similarity between paired (P, 3) descriptor rows a[p]
    and b[p], clamped to [0, 1].

    A missing descriptor is a zero row. It, or any pair whose norms multiply
    to under 1e-12, contributes a neutral 0 cost. Each similarity is a
    (1, 3) @ (3, 1) product.
    """
    # row norms in np.linalg.norm's arithmetic
    denom = np.sqrt((a * a).sum(axis=1)) * np.sqrt((b * b).sum(axis=1))
    neutral = denom < 1e-12
    denom[neutral] = 1.0
    costs = 1.0 - (a[:, None, :] @ b[:, :, None])[:, 0, 0] / denom
    np.clip(costs, 0.0, 1.0, out=costs)
    costs[neutral] = 0.0
    return costs

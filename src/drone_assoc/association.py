"""Two-stage association engine.

Stage 1 matches high-confidence detections against every live track
(tentative, confirmed, and lost) under the fused cost

    cost = (1 - IoU) + w_a * appearance + w_r * rotation

with pairs forbidden when IoU falls below the gate or classes differ.
Stage 2 sweeps the remaining low-confidence detections against the
still-unmatched tentative/confirmed tracks on IoU alone. Unmatched
high-confidence detections found new tracks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import appearance as ap
from . import motion as mo
from .core import (
    BoundingBox,
    Detection,
    FrameDetections,
    Track,
    TrackState,
    TrackerConfig,
    boxes_array,
    iou_matrix,
)

log = logging.getLogger("drone_assoc.association")

INFEASIBLE = np.inf
_LARGE = 1e9


class FrameOrderError(ValueError):
    """Raised when frames are fed out of order."""


@dataclass(frozen=True)
class AssignmentResult:
    matches: list[tuple[int, int]]
    unmatched_rows: list[int]
    unmatched_cols: list[int]


@dataclass(frozen=True)
class TrackRecord:
    """One output line: a confirmed track observed at a frame."""

    frame: int
    track_id: int
    bbox: BoundingBox
    score: float
    class_id: int


def linear_assignment(cost: np.ndarray) -> AssignmentResult:
    """Minimum-cost one-to-one assignment; +inf entries are never matched.

    Infeasible entries are lifted to a large finite constant so the solver
    always runs, then any match landing on one is dropped afterwards.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    n, m = cost.shape
    if n == 0 or m == 0:
        return AssignmentResult([], list(range(n)), list(range(m)))
    solvable = np.where(np.isfinite(cost), cost, _LARGE)
    rows, cols = linear_sum_assignment(solvable)
    ok = np.isfinite(cost[rows, cols])
    matched_r, matched_c = rows[ok].tolist(), cols[ok].tolist()
    free_r = np.ones(n, dtype=bool)
    free_r[matched_r] = False
    free_c = np.ones(m, dtype=bool)
    free_c[matched_c] = False
    return AssignmentResult(
        list(zip(matched_r, matched_c)),
        np.flatnonzero(free_r).tolist(),
        np.flatnonzero(free_c).tolist(),
    )


def iou_cost_matrix(
    tracks: Sequence[Track],
    predicted_boxes: np.ndarray,
    detections: Sequence[Detection],
    config: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-2 cost, shape (len(tracks), len(detections)): 1 - IoU, +inf
    where IoU falls below the gate or classes differ. Returned with the IoU
    matrix it was built from."""
    shape = (len(tracks), len(detections))
    if 0 in shape:
        return np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64)
    ious = iou_matrix(predicted_boxes, boxes_array(d.bbox for d in detections))
    cost = 1.0 - ious
    cost[ious < config.iou_gate] = INFEASIBLE
    t_cls = np.array([t.class_id for t in tracks])
    d_cls = np.array([d.class_id for d in detections])
    cost[t_cls[:, None] != d_cls[None, :]] = INFEASIBLE
    return cost, ious


def fused_cost_matrix(
    tracks: Sequence[Track],
    predicted_boxes: np.ndarray,
    detections: Sequence[Detection],
    det_descriptors: Sequence[Optional[np.ndarray]],
    config: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 cost: the gated stage-2 block plus the weighted appearance
    and rotation terms (inf + finite stays inf, so gating first changes no
    feasible cell). Returned with the IoU matrix it was built from."""
    cost, ious = iou_cost_matrix(tracks, predicted_boxes, detections, config)
    if cost.size == 0:
        return cost, ious
    if config.w_a > 0:
        cost += config.w_a * _appearance_block(tracks, detections)
    if config.w_r > 0:
        cost += config.w_r * mo.rotation_cost_matrix(
            [t.rotation for t in tracks], det_descriptors
        )
    return cost, ious


def _appearance_block(tracks, detections) -> np.ndarray:
    dims = {d.embedding.shape[0] for d in detections if d.embedding is not None}
    block = np.zeros((len(tracks), len(detections)), dtype=np.float64)
    if not dims:
        return block
    dim = dims.pop()
    has_emb = np.array([d.embedding is not None for d in detections])
    feats = np.array(
        [d.embedding if d.embedding is not None else np.zeros(dim) for d in detections]
    )
    block = ap.appearance_cost_matrix(list(tracks), feats)
    block[:, ~has_emb] = 0.0
    return block


def lifecycle_step(track: Track, matched: bool, config: TrackerConfig) -> Track:
    """Advance one track through the state table for this frame."""
    if matched:
        track.consecutive_hits += 1
        track.lost_age = 0
        if track.state is TrackState.LOST:
            track.state = TrackState.CONFIRMED
        elif track.state is TrackState.TENTATIVE:
            if track.consecutive_hits >= config.confirm_hits:
                track.state = TrackState.CONFIRMED
        return track
    track.consecutive_hits = 0
    if track.state is TrackState.TENTATIVE:
        track.state = TrackState.REMOVED
    elif track.state is TrackState.CONFIRMED:
        track.state = TrackState.LOST
        track.lost_age = 1
    elif track.state is TrackState.LOST:
        track.lost_age += 1
        if track.lost_age > config.max_lost_age:
            track.state = TrackState.REMOVED
    return track


class Tracker:
    """Holds live tracks and consumes frames in strictly increasing order."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config if config is not None else TrackerConfig()
        self.tracks: list[Track] = []
        self.next_id = 1
        self.last_frame = 0
        self._first_frame: Optional[int] = None
        # (frame, IoU of predicted box vs matched detection) per stage-1 match
        self.stage1_match_ious: list[tuple[int, float]] = []

    def associate_frame(
        self, frame_detections: FrameDetections, m: Optional[mo.AffineTransform]
    ) -> list[TrackRecord]:
        """Process one frame; returns the confirmed-track records for it."""
        cfg = self.config
        frame = frame_detections.frame
        if frame <= self.last_frame:
            raise FrameOrderError(
                f"frame {frame} arrived after frame {self.last_frame}"
            )
        if self._first_frame is None:
            self._first_frame = frame
        self.last_frame = frame

        dets = [d for d in frame_detections.detections if d.score >= cfg.theta_low]
        high = [d for d in dets if d.score >= cfg.theta_high]
        low = [d for d in dets if d.score < cfg.theta_high]
        descriptors = self._descriptors(dets) if cfg.w_r > 0 else [None] * len(dets)
        desc_of = {id(d): desc for d, desc in zip(dets, descriptors)}

        m_eff = m if cfg.use_dmp else None
        pool = list(self.tracks)
        means, covs, predicted = self._predict_pool(pool, m_eff)

        cost, ious = fused_cost_matrix(
            pool, predicted, high, [desc_of[id(d)] for d in high], cfg
        )
        stage1 = linear_assignment(cost)
        for j, i in stage1.matches:
            self.stage1_match_ious.append((frame, float(ious[j, i])))

        leftover_idx = [j for j in stage1.unmatched_rows
                        if pool[j].state is not TrackState.LOST]
        leftovers = [pool[j] for j in leftover_idx]
        leftover_boxes = predicted[leftover_idx] if leftover_idx else np.zeros((0, 4))
        cost2, _ = iou_cost_matrix(leftovers, leftover_boxes, low, cfg)
        stage2 = linear_assignment(cost2)

        matched_idx = [j for j, _ in stage1.matches]
        matched_idx += [leftover_idx[j] for j, _ in stage2.matches]
        matched_dets = [high[i] for _, i in stage1.matches]
        matched_dets += [low[i] for _, i in stage2.matches]
        if matched_idx:
            means[matched_idx], covs[matched_idx] = mo.multi_update(
                means[matched_idx], covs[matched_idx], [d.bbox for d in matched_dets]
            )
        for t, mean, cov in zip(pool, means, covs):
            t.motion = mo.MotionState(mean, cov)
        for j, det in zip(matched_idx, matched_dets):
            self._absorb(pool[j], det, desc_of[id(det)], frame)

        for t in pool:
            if t.last_frame != frame:
                lifecycle_step(t, False, cfg)

        for i in stage1.unmatched_cols:
            self._spawn(high[i], desc_of[id(high[i])], frame)

        self.tracks = [t for t in self.tracks if t.state is not TrackState.REMOVED]
        emitted = [t for t in self.tracks
                   if t.state is TrackState.CONFIRMED and t.last_frame == frame]
        boxes = mo.states_to_boxes([t.motion.mean for t in emitted])
        records = [
            TrackRecord(frame, t.track_id, box, t.last_score, t.class_id)
            for t, box in zip(emitted, boxes)
        ]
        log.debug("frame %d: %d dets, %d live tracks, %d emitted",
                  frame, len(dets), len(self.tracks), len(records))
        return records

    # -- internals ---------------------------------------------------------

    def _descriptors(self, dets: Sequence[Detection]) -> list[Optional[np.ndarray]]:
        centers = np.array(
            [d.bbox.center() for d in dets], dtype=np.float64
        ).reshape(-1, 2)
        return mo.frame_descriptors(centers, self.config.radius_R)

    def _predict_pool(
        self, pool: Sequence[Track], m: Optional[mo.AffineTransform]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Warp+predict every track; returns the predicted means (N, 8),
        covariances (N, 8, 8) and boxes (N, 4). The tracks' own states are
        written back once the matched rows are corrected."""
        if not pool:
            return np.zeros((0, 8)), np.zeros((0, 8, 8)), np.zeros((0, 4))
        means = np.array([t.motion.mean for t in pool])
        covs = np.array([t.motion.covariance for t in pool])
        means, covs = mo.multi_predict(means, covs, m)
        return means, covs, mo.states_to_xywh(means)

    def _absorb(
        self, track: Track, det: Detection, desc: Optional[np.ndarray], frame: int
    ) -> None:
        """Feature, descriptor, and lifecycle effects of a match; the motion
        correction itself happens in associate_frame beforehand."""
        cfg = self.config
        was_lost = track.state is TrackState.LOST
        if det.embedding is not None and det.score >= cfg.theta_high:
            if cfg.use_afs:
                ap.update_local_feature(
                    track, det.embedding, det.score, cfg.theta_high, cfg.alpha_f
                )
                # the bank stays frozen through the frame that re-acquires a
                # lost track; inserts resume once it is confirmed again
                if not was_lost and track.key_bank is not None:
                    ap.maybe_insert_key(
                        track.key_bank, det.embedding, frame, cfg.novelty_threshold
                    )
            else:
                if track.local_feature is None:
                    track.local_feature = det.embedding
                else:
                    track.local_feature = ap.blend_feature(
                        track.local_feature, det.embedding, cfg.alpha_f
                    )
        if desc is not None:
            track.rotation = desc
        track.last_frame = frame
        track.last_score = det.score
        lifecycle_step(track, True, cfg)

    def _spawn(self, det: Detection, desc: Optional[np.ndarray], frame: int) -> None:
        state = (
            TrackState.CONFIRMED if frame == self._first_frame else TrackState.TENTATIVE
        )
        track = Track(
            track_id=self.next_id,
            class_id=det.class_id,
            state=state,
            motion=mo.kalman_init(det.bbox),
            local_feature=det.embedding,
            key_bank=ap.KeyFeatureBank(self.config.key_bank_capacity),
            rotation=desc,
            consecutive_hits=1,
            lost_age=0,
            last_frame=frame,
            last_score=det.score,
        )
        if self.config.use_afs and det.embedding is not None:
            ap.maybe_insert_key(
                track.key_bank, det.embedding, frame, self.config.novelty_threshold
            )
        self.next_id += 1
        self.tracks.append(track)

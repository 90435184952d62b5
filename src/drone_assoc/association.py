"""Two-stage association engine.

Stage 1 matches high-confidence detections against every live track
(tentative, confirmed, and lost) under the fused cost

    cost = (1 - IoU) + w_a * appearance + w_r * rotation

with pairs forbidden when IoU falls below the gate or classes differ.
Stage 2 sweeps the remaining low-confidence detections against the
still-unmatched tentative/confirmed tracks on IoU alone. Unmatched
high-confidence detections found new tracks.

A frame arrives as the arrays of a FrameDetections; the stages are masks
over them, and the cost functions and the Kalman correction take the
gathered (M, 4) box, class and embedding blocks directly.
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
    FrameDetections,
    Track,
    TrackState,
    TrackerConfig,
    box_centers,
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
    det_boxes: np.ndarray,
    det_classes: np.ndarray,
    config: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-2 cost, shape (len(tracks), len(det_boxes)): 1 - IoU of the
    (N, 4) predicted and (M, 4) detected xywh boxes, +inf where IoU falls
    below the gate or classes differ. Returned with the IoU matrix it was
    built from."""
    shape = (len(tracks), det_boxes.shape[0])
    if 0 in shape:
        return np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64)
    ious = iou_matrix(predicted_boxes, det_boxes)
    cost = 1.0 - ious
    cost[ious < config.iou_gate] = INFEASIBLE
    t_cls = np.array([t.class_id for t in tracks])
    cost[t_cls[:, None] != det_classes[None, :]] = INFEASIBLE
    return cost, ious


def fused_cost_matrix(
    tracks: Sequence[Track],
    predicted_boxes: np.ndarray,
    det_boxes: np.ndarray,
    det_classes: np.ndarray,
    det_embeddings: Optional[np.ndarray],
    det_descriptors: Sequence[Optional[np.ndarray]],
    config: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 cost: the gated stage-2 block plus the weighted appearance
    and rotation terms (inf + finite stays inf, so gating first changes no
    feasible cell). Detections without embeddings (None) add no appearance
    term. Returned with the IoU matrix it was built from."""
    cost, ious = iou_cost_matrix(tracks, predicted_boxes, det_boxes, det_classes, config)
    if cost.size == 0:
        return cost, ious
    if config.w_a > 0 and det_embeddings is not None:
        cost += config.w_a * ap.appearance_cost_matrix(list(tracks), det_embeddings)
    if config.w_r > 0:
        cost += config.w_r * mo.rotation_cost_matrix(
            [t.rotation for t in tracks], det_descriptors
        )
    return cost, ious


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

        # the frame's rows at or above theta_low; positions below index
        # them, and hi and lo split the positions between the two stages
        fd = frame_detections
        kept = np.flatnonzero(fd.scores >= cfg.theta_low)
        boxes, classes, scores = fd.boxes[kept], fd.classes[kept], fd.scores[kept]
        high = scores >= cfg.theta_high
        hi, lo = np.flatnonzero(high), np.flatnonzero(~high)
        hi_pos, lo_pos = hi.tolist(), lo.tolist()
        scores = scores.tolist()
        emb = fd.embeddings
        # views into the frame's block, not a gathered copy: tracks keep
        # them, and would keep a per-frame copy alive with them
        features = ([None] * len(scores) if emb is None
                    else [emb[r] for r in kept.tolist()])
        descriptors = (mo.frame_descriptors(box_centers(boxes), cfg.radius_R)
                       if cfg.w_r > 0 else [None] * len(scores))

        m_eff = m if cfg.use_dmp else None
        pool = list(self.tracks)
        means, covs, predicted = self._predict_pool(pool, m_eff)

        cost, ious = fused_cost_matrix(
            pool, predicted, boxes[hi], classes[hi],
            None if emb is None else emb[kept[hi]],
            [descriptors[p] for p in hi_pos], cfg,
        )
        stage1 = linear_assignment(cost)
        for j, i in stage1.matches:
            self.stage1_match_ious.append((frame, float(ious[j, i])))

        leftover_idx = [j for j in stage1.unmatched_rows
                        if pool[j].state is not TrackState.LOST]
        leftovers = [pool[j] for j in leftover_idx]
        leftover_boxes = predicted[leftover_idx] if leftover_idx else np.zeros((0, 4))
        cost2, _ = iou_cost_matrix(leftovers, leftover_boxes, boxes[lo], classes[lo], cfg)
        stage2 = linear_assignment(cost2)

        matched_idx = [j for j, _ in stage1.matches]
        matched_idx += [leftover_idx[j] for j, _ in stage2.matches]
        matched_pos = [hi_pos[i] for _, i in stage1.matches]
        matched_pos += [lo_pos[i] for _, i in stage2.matches]
        if matched_idx:
            means[matched_idx], covs[matched_idx] = mo.multi_update(
                means[matched_idx], covs[matched_idx], boxes[matched_pos]
            )
        for t, mean, cov in zip(pool, means, covs):
            t.motion = mo.MotionState(mean, cov)
        for j, p in zip(matched_idx, matched_pos):
            self._absorb(pool[j], features[p], scores[p], descriptors[p], frame)

        for t in pool:
            if t.last_frame != frame:
                lifecycle_step(t, False, cfg)

        spawn = [hi_pos[i] for i in stage1.unmatched_cols]
        if spawn:
            spawn_means, spawn_covs = mo.multi_init(boxes[spawn])
            for p, mean, cov in zip(spawn, spawn_means, spawn_covs):
                self._spawn(int(classes[p]), mo.MotionState(mean, cov), features[p],
                            scores[p], descriptors[p], frame)

        self.tracks = [t for t in self.tracks if t.state is not TrackState.REMOVED]
        emitted = [t for t in self.tracks
                   if t.state is TrackState.CONFIRMED and t.last_frame == frame]
        records = [
            TrackRecord(frame, t.track_id, box, t.last_score, t.class_id)
            for t, box in zip(emitted, mo.states_to_boxes([t.motion.mean for t in emitted]))
        ]
        log.debug("frame %d: %d dets, %d live tracks, %d emitted",
                  frame, len(scores), len(self.tracks), len(records))
        return records

    # -- internals ---------------------------------------------------------

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
        self,
        track: Track,
        embedding: Optional[np.ndarray],
        score: float,
        desc: Optional[np.ndarray],
        frame: int,
    ) -> None:
        """Feature, descriptor, and lifecycle effects of a match; the motion
        correction itself happens in associate_frame beforehand."""
        cfg = self.config
        was_lost = track.state is TrackState.LOST
        if embedding is not None and score >= cfg.theta_high:
            if cfg.use_afs:
                ap.update_local_feature(
                    track, embedding, score, cfg.theta_high, cfg.alpha_f
                )
                # the bank stays frozen through the frame that re-acquires a
                # lost track; inserts resume once it is confirmed again
                if not was_lost and track.key_bank is not None:
                    ap.maybe_insert_key(
                        track.key_bank, embedding, frame, cfg.novelty_threshold
                    )
            else:
                if track.local_feature is None:
                    track.local_feature = embedding
                else:
                    track.local_feature = ap.blend_feature(
                        track.local_feature, embedding, cfg.alpha_f
                    )
        if desc is not None:
            track.rotation = desc
        track.last_frame = frame
        track.last_score = score
        lifecycle_step(track, True, cfg)

    def _spawn(
        self,
        class_id: int,
        motion: mo.MotionState,
        embedding: Optional[np.ndarray],
        score: float,
        desc: Optional[np.ndarray],
        frame: int,
    ) -> None:
        state = (
            TrackState.CONFIRMED if frame == self._first_frame else TrackState.TENTATIVE
        )
        track = Track(
            track_id=self.next_id,
            class_id=class_id,
            state=state,
            motion=motion,
            local_feature=embedding,
            key_bank=ap.KeyFeatureBank(self.config.key_bank_capacity),
            rotation=desc,
            consecutive_hits=1,
            lost_age=0,
            last_frame=frame,
            last_score=score,
        )
        if self.config.use_afs and embedding is not None:
            ap.maybe_insert_key(
                track.key_bank, embedding, frame, self.config.novelty_threshold
            )
        self.next_id += 1
        self.tracks.append(track)

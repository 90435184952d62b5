"""Shared helpers for the test suite, and the reference implementations
that the batched code is checked against."""

import enum
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import pytest

from drone_assoc import association
from drone_assoc import motion as mo
from drone_assoc.appearance import BankEntry, KeyFeatureBank
from drone_assoc.association import (
    FrameOrderError,
    TrackRecord,
    TrackTable,
    linear_assignment,
)
from drone_assoc.core import (
    BoundingBox,
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    box_centers,
    boxes_array,
    iou_matrix,
    normalize,
)
from drone_assoc.metrics import EvaluationError
from drone_assoc.mot_io import (
    MALFORMED_FATAL_RATIO,
    FormatError,
    IngestStats,
    MotLine,
    MotTable,
)
from drone_assoc.motion import (
    BOX_BOUND,
    AffineEstimationError,
    AffineTransform,
    MotionState,
    _fit_affine_lstsq,
    kalman_init,
)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(0.0, 1.0, dim)
    return v / np.linalg.norm(v)


def apply_affine(m: AffineTransform, pts) -> np.ndarray:
    """(N, 2) points mapped by the 2x3 matrix of m."""
    return np.asarray(pts, dtype=np.float64) @ m.linear.T + m.translation


class TrackState(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


# the code of each state in a TrackTable's `states` column
STATE_CODES = {TrackState.TENTATIVE: association.TENTATIVE,
               TrackState.CONFIRMED: association.CONFIRMED,
               TrackState.LOST: association.LOST,
               TrackState.REMOVED: association.REMOVED}


@dataclass
class Track:
    """One track as one object: the model of ReferenceTracker, and what the
    one-row appearance and lifecycle references take. track_table turns a
    list of them into the tracker's TrackTable."""

    track_id: int
    class_id: int
    state: TrackState
    motion: MotionState
    local_feature: Optional[np.ndarray] = None
    key_bank: Optional[KeyFeatureBank] = None
    rotation: Optional[np.ndarray] = None
    consecutive_hits: int = 0
    lost_age: int = 0
    last_frame: int = 0
    last_score: float = 0.0


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


def track_table(tracks, capacity: int = 10) -> TrackTable:
    """The TrackTable holding `tracks` as rows, in the given order: a track
    without a descriptor holds a zero row, and the gallery's D is that of
    the tracks' features, 0 when they hold none."""
    n = len(tracks)
    dims = {len(f) for t in tracks
            for f in ([] if t.local_feature is None else [t.local_feature])
            + [e.feature for e in t.key_bank.entries]}
    table = TrackTable(capacity, n, dims.pop() if dims else 0)
    for j, t in enumerate(tracks):
        table.ids[j] = t.track_id
        table.classes[j] = t.class_id
        table.states[j] = STATE_CODES[t.state]
        table.hits[j] = t.consecutive_hits
        table.lost_age[j] = t.lost_age
        table.last_frame[j] = t.last_frame
        table.last_score[j] = t.last_score
        table.means[j] = t.motion.mean
        table.covs[j] = t.motion.covariance
        if t.local_feature is not None:
            table.local[j] = t.local_feature
            table.has_local[j] = True
        entries = t.key_bank.entries
        table.fill[j] = len(entries)
        for k, e in enumerate(entries):
            table.bank[j, k] = e.feature
            table.last_used[j, k] = e.last_used
        if t.rotation is not None:
            table.rotation[j] = t.rotation
    return table


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
    logger, or raises the same FormatError. Two rules are newer than the
    per-row reader: a frame, id or class past the int64 range is malformed
    rather than kept as a Python int, and so is a box past BOX_BOUND, whose
    filter would overflow."""
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
        if not (abs(x) <= BOX_BOUND and abs(y) <= BOX_BOUND and w <= BOX_BOUND
                and 1.0 / BOX_BOUND <= h <= BOX_BOUND and w / h <= BOX_BOUND):
            stats.malformed += 1
            warn("%s:%d: box outside the filter's range", path, lineno)
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
        resid = np.linalg.norm(apply_affine(model, prev) - cur, axis=1)
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


def reference_fit_minimal_models(basis: np.ndarray, targets: np.ndarray):
    """_fit_minimal_models by the rule that defines it, with the SVD run on
    every triple without a NaN: rank-deficient when the smallest singular
    value of the (3, 3) [x y 1] block is <= the largest * 6 * eps, and
    always with a NaN, on which the SVD cannot converge; then finite models
    with |det| > 1e-9."""
    nan = np.isnan(basis).any(axis=(1, 2))
    sv = np.linalg.svd(np.where(nan[:, None, None], 0.0, basis), compute_uv=False)
    valid = ~nan & (sv[:, -1] > sv[:, 0] * (6 * np.finfo(np.float64).eps))
    coef = np.linalg.solve(np.where(valid[:, None, None], basis, np.eye(3)), targets)
    det = coef[:, 0, 0] * coef[:, 1, 1] - coef[:, 1, 0] * coef[:, 0, 1]
    valid &= np.isfinite(coef).all(axis=(1, 2)) & (np.abs(det) > 1e-9)
    return coef, valid


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


# -- the per-track tracker the columnar Tracker replaced -----------------------


def reference_adaptive_alpha(s, theta, alpha_f):
    return min(1.0, alpha_f + (1.0 - alpha_f) * math.exp(theta - s))


def reference_blend_feature(prev, f, alpha):
    return normalize(alpha * prev + (1.0 - alpha) * f)


def reference_maybe_insert_key(bank: KeyFeatureBank, f, frame, novelty_threshold):
    """The list-based novelty test: one np.dot per entry, the first maximum,
    and eviction of the first least-recently-used entry by list.pop."""
    f = np.asarray(f, dtype=np.float64)
    if not bank.entries:
        bank.entries.append(BankEntry(f, frame))
        return True
    sims = [float(np.dot(e.feature, f)) for e in bank.entries]
    best = max(sims)
    closest = sims.index(best)
    if 1.0 - best > novelty_threshold:
        if len(bank.entries) >= bank.capacity:
            ages = [e.last_used for e in bank.entries]
            bank.entries.pop(ages.index(min(ages)))
        bank.entries.append(BankEntry(f, frame))
        return True
    bank.entries[closest].last_used = frame
    return False


def reference_appearance_cost_matrix(tracks, feats):
    """One np.dot per (gallery row, detection) cell: each track's best
    similarity over its local feature, then its key-bank features, as a
    cost clamped to [0, 1]; a track without a feature scores 0."""
    block = np.zeros((len(tracks), len(feats)), dtype=np.float64)
    for j, t in enumerate(tracks):
        gallery = ([] if t.local_feature is None else [t.local_feature])
        gallery += [e.feature for e in t.key_bank.entries]
        if gallery:
            for i, f in enumerate(feats):
                best = max(float(np.dot(g, f)) for g in gallery)
                block[j, i] = min(1.0, max(0.0, 1.0 - best))
    return block


def reference_rotation_cost_matrix(track_descriptors, det_descriptors):
    """rotation_pair_costs of every (track, detection) pair, dense; a
    missing (None) descriptor is a zero row."""
    a, b = _descriptor_block(track_descriptors), _descriptor_block(det_descriptors)
    shape = (a.shape[0], b.shape[0])
    rows, cols = np.indices(shape).reshape(2, -1)
    return mo.rotation_pair_costs(a[rows], b[cols]).reshape(shape)


def _descriptor_block(descriptors) -> np.ndarray:
    return np.array([np.zeros(3) if d is None else d for d in descriptors],
                    dtype=np.float64).reshape(-1, 3)


def reference_lifecycle_step(track: Track, matched: bool, config) -> Track:
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


def reference_record(frame: int, track: Track) -> TrackRecord:
    """A confirmed track's output row, one track at a time: the posterior box
    in Python float arithmetic, validated by BoundingBox as records were
    before they became plain rows."""
    cx, cy, a, h = track.motion.mean[:4].tolist()
    h = max(h, 1e-3)
    w = max(a * h, 1e-3)
    box = BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)
    return TrackRecord(frame, track.track_id, box.x, box.y, box.w, box.h,
                       track.last_score, track.class_id)


class ReferenceTracker:
    """One Track object per live track, updated one at a time: the tracker
    as it was before its tracks became a table. The columnar Tracker must
    emit the same records and hold the same per-track state, bit for bit.
    `stats` counts what perfbench's trace counted: gallery rows per
    appearance block and key-bank inserts and refreshes."""

    def __init__(self, config=None):
        self.config = config if config is not None else TrackerConfig()
        self.tracks: list[Track] = []
        self.next_id = 1
        self.last_frame = 0
        self._first_frame = None
        self.stage1_match_ious: list = []
        self.stats = {"gallery_rows": 0, "bank_inserts": 0, "bank_refreshes": 0}
        # what a stream exercised: lost tracks matched again, full-bank inserts
        self.events = {"reacquired": 0, "evictions": 0}

    def _offer(self, bank, embedding, frame):
        full = len(bank.entries) >= bank.capacity
        inserted = reference_maybe_insert_key(bank, embedding, frame,
                                              self.config.novelty_threshold)
        self.stats["bank_inserts" if inserted else "bank_refreshes"] += 1
        self.events["evictions"] += full and inserted

    def _costs(self, tracks, predicted, boxes, classes, emb, descs, stage1):
        cfg = self.config
        shape = (len(tracks), boxes.shape[0])
        if 0 in shape:
            return np.zeros(shape), np.zeros(shape)
        ious = iou_matrix(predicted, boxes)
        cost = 1.0 - ious
        cost[ious < cfg.iou_gate] = np.inf
        t_cls = np.array([t.class_id for t in tracks])
        cost[t_cls[:, None] != classes[None, :]] = np.inf
        if not stage1:
            return cost, ious
        if cfg.w_a > 0 and emb is not None:
            self.stats["gallery_rows"] += sum(
                (t.local_feature is not None) + len(t.key_bank.entries) for t in tracks)
            cost += cfg.w_a * reference_appearance_cost_matrix(tracks, emb)
        if cfg.w_r > 0:
            cost += cfg.w_r * reference_rotation_cost_matrix(
                [t.rotation for t in tracks], descs)
        return cost, ious

    def associate_frame(self, fd: FrameDetections, m):
        cfg = self.config
        frame = fd.frame
        if frame <= self.last_frame:
            raise FrameOrderError(f"frame {frame} arrived after frame {self.last_frame}")
        if self._first_frame is None:
            self._first_frame = frame
        self.last_frame = frame

        kept = np.flatnonzero(fd.scores >= cfg.theta_low)
        boxes, classes, scores = fd.boxes[kept], fd.classes[kept], fd.scores[kept]
        high = scores >= cfg.theta_high
        hi_pos, lo_pos = np.flatnonzero(high).tolist(), np.flatnonzero(~high).tolist()
        scores = scores.tolist()
        emb = fd.embeddings
        features = ([None] * len(scores) if emb is None
                    else [emb[r] for r in kept.tolist()])
        if cfg.w_r > 0:
            rows = mo.frame_descriptors(box_centers(boxes), cfg.radius_R)
            descriptors = [r if r.any() else None for r in rows]
        else:
            descriptors = [None] * len(scores)

        pool = list(self.tracks)
        if pool:
            means, covs = mo.multi_predict(np.array([t.motion.mean for t in pool]),
                                           np.array([t.motion.covariance for t in pool]),
                                           m)
        else:
            means, covs = np.zeros((0, 8)), np.zeros((0, 8, 8))
        predicted = mo.states_to_xywh(means)

        hi = np.array(hi_pos, dtype=np.intp)
        cost, ious = self._costs(pool, predicted, boxes[hi], classes[hi],
                                 None if emb is None else emb[kept[hi]],
                                 [descriptors[p] for p in hi_pos], True)
        stage1 = linear_assignment(cost)
        matches1 = stage1.matches.tolist()
        for j, i in matches1:
            self.stage1_match_ious.append((frame, float(ious[j, i])))

        leftover_idx = [j for j in stage1.unmatched_rows.tolist()
                        if pool[j].state is not TrackState.LOST]
        leftovers = [pool[j] for j in leftover_idx]
        lo = np.array(lo_pos, dtype=np.intp)
        cost2, _ = self._costs(leftovers, predicted[leftover_idx], boxes[lo], classes[lo],
                               None, None, False)
        matches2 = linear_assignment(cost2).matches.tolist()

        matched_idx = [j for j, _ in matches1]
        matched_idx += [leftover_idx[j] for j, _ in matches2]
        matched_pos = [hi_pos[i] for _, i in matches1]
        matched_pos += [lo_pos[i] for _, i in matches2]
        if matched_idx:
            means[matched_idx], covs[matched_idx] = mo.multi_update(
                means[matched_idx], covs[matched_idx], boxes[matched_pos])
        for t, mean, cov in zip(pool, means, covs):
            t.motion = mo.MotionState(mean, cov)
        for j, p in zip(matched_idx, matched_pos):
            self._absorb(pool[j], features[p], scores[p], descriptors[p], frame)
        for t in pool:
            if t.last_frame != frame:
                reference_lifecycle_step(t, False, cfg)

        spawn = [hi_pos[i] for i in stage1.unmatched_cols.tolist()]
        if spawn:
            spawn_means, spawn_covs = mo.multi_init(boxes[spawn])
            for p, mean, cov in zip(spawn, spawn_means, spawn_covs):
                self._spawn(int(classes[p]), mo.MotionState(mean, cov), features[p],
                            scores[p], descriptors[p], frame)

        self.tracks = [t for t in self.tracks if t.state is not TrackState.REMOVED]
        emitted = [t for t in self.tracks
                   if t.state is TrackState.CONFIRMED and t.last_frame == frame]
        return [reference_record(frame, t) for t in emitted]

    def _absorb(self, track, embedding, score, desc, frame):
        cfg = self.config
        was_lost = track.state is TrackState.LOST
        self.events["reacquired"] += was_lost
        if embedding is not None and score >= cfg.theta_high:
            if cfg.use_afs:
                if track.local_feature is None:
                    track.local_feature = np.asarray(embedding, dtype=np.float64)
                else:
                    track.local_feature = reference_blend_feature(
                        track.local_feature, embedding,
                        reference_adaptive_alpha(score, cfg.theta_high, cfg.alpha_f))
                if not was_lost:
                    self._offer(track.key_bank, embedding, frame)
            elif track.local_feature is None:
                track.local_feature = embedding
            else:
                track.local_feature = reference_blend_feature(
                    track.local_feature, embedding, cfg.alpha_f)
        if desc is not None:
            track.rotation = desc
        track.last_frame = frame
        track.last_score = score
        reference_lifecycle_step(track, True, cfg)

    def _spawn(self, class_id, motion, embedding, score, desc, frame):
        state = (TrackState.CONFIRMED if frame == self._first_frame
                 else TrackState.TENTATIVE)
        track = Track(
            track_id=self.next_id, class_id=class_id, state=state, motion=motion,
            local_feature=embedding,
            key_bank=KeyFeatureBank(self.config.key_bank_capacity),
            rotation=desc, consecutive_hits=1, lost_age=0, last_frame=frame,
            last_score=score,
        )
        if self.config.use_afs and embedding is not None:
            self._offer(track.key_bank, embedding, frame)
        self.next_id += 1
        self.tracks.append(track)


# -- the CLEAR sweep that clear_mot now runs on array blocks -------------------


def by_frame(table: MotTable) -> dict:
    """{frame: (ids as a list, (K, 4) boxes)}, frames ascending, rows in
    input order within a frame."""
    order = np.argsort(table.frames, kind="stable")
    frames = table.frames[order]
    ids = table.ids[order].tolist()
    boxes = table.rows[order, 2:6]
    keys, starts = np.unique(frames, return_index=True)
    ends = np.append(starts[1:], frames.shape[0]).tolist()
    return {f: (ids[s:e], boxes[s:e]) for f, s, e in zip(keys.tolist(), starts.tolist(), ends)}


def reference_clear_mot(gt, results, iou_threshold: float = 0.5) -> dict:
    """Per-frame full ground-truth x result IoU blocks and a Python walk over
    the ids: clear_mot before it matched the carried-over pairs elementwise."""
    gt_frames = by_frame(gt)
    res_frames = by_frame(results)
    gt_total = sum(len(ids) for ids, _ in gt_frames.values())
    if gt_total == 0:
        raise EvaluationError("ground truth contains no boxes")

    fp = fn = switches = 0
    iou_sum = 0.0
    matches_total = 0
    prev: dict = {}
    last_match: dict = {}
    present: dict = {}
    covered: dict = {}

    for frame in sorted(set(gt_frames) | set(res_frames)):
        g_ids, g_boxes = gt_frames.get(frame, ([], np.zeros((0, 4))))
        r_ids, r_boxes = res_frames.get(frame, ([], np.zeros((0, 4))))
        for g in g_ids:
            present[g] = present.get(g, 0) + 1
        ious = iou_matrix(g_boxes, r_boxes)

        matched_g: dict = {}
        used_r: set = set()
        first_row: dict = {}
        for ri, r in enumerate(r_ids):
            first_row.setdefault(r, ri)
        for gi, g in enumerate(g_ids):
            ri = first_row.get(prev.get(g))
            if ri is None or ri in used_r:
                continue
            if ious[gi, ri] >= iou_threshold:
                matched_g[gi] = ri
                used_r.add(ri)

        free_g = [gi for gi in range(len(g_ids)) if gi not in matched_g]
        free_r = [ri for ri in range(len(r_ids)) if ri not in used_r]
        if free_g and free_r:
            sub = 1.0 - ious[np.ix_(free_g, free_r)]
            sub[ious[np.ix_(free_g, free_r)] < iou_threshold] = np.inf
            for a, b in linear_assignment(sub).matches.tolist():
                matched_g[free_g[a]] = free_r[b]
                used_r.add(free_r[b])

        prev = {}
        for gi, ri in matched_g.items():
            g, r = g_ids[gi], r_ids[ri]
            if g in last_match and last_match[g] != r:
                switches += 1
            last_match[g] = r
            prev[g] = r
            covered[g] = covered.get(g, 0) + 1
            iou_sum += float(ious[gi, ri])
            matches_total += 1

        fp += len(r_ids) - len(matched_g)
        fn += len(g_ids) - len(matched_g)

    coverage = {g: covered.get(g, 0) / present[g] for g in present}
    return {
        "fp": fp,
        "fn": fn,
        "id_switches": switches,
        "gt_total": gt_total,
        "motp": iou_sum / matches_total if matches_total else 0.0,
        "mota": 1.0 - (fp + fn + switches) / gt_total,
        "mt": sum(1 for c in coverage.values() if c >= 0.8),
        "ml": sum(1 for c in coverage.values() if c <= 0.2),
        "coverage": coverage,
    }


def reference_id_measures(gt, results, iou_threshold: float = 0.5):
    """Overlap counts in a dict keyed by id pairs: id_measures before it
    counted the pairs with one bincount."""
    gt_frames = by_frame(gt)
    res_frames = by_frame(results)
    gt_len: dict = {}
    res_len: dict = {}
    overlap: dict = {}
    for frame, (g_ids, g_boxes) in gt_frames.items():
        for g in g_ids:
            gt_len[g] = gt_len.get(g, 0) + 1
        if frame not in res_frames:
            continue
        r_ids, r_boxes = res_frames[frame]
        hits = iou_matrix(g_boxes, r_boxes) >= iou_threshold
        for gi, ri in zip(*np.nonzero(hits)):
            key = (g_ids[int(gi)], r_ids[int(ri)])
            overlap[key] = overlap.get(key, 0) + 1
    for frame, (r_ids, _) in res_frames.items():
        for r in r_ids:
            res_len[r] = res_len.get(r, 0) + 1
    if not gt_len:
        raise EvaluationError("ground truth contains no boxes")
    g_index = {g: i for i, g in enumerate(sorted(gt_len))}
    r_index = {r: i for i, r in enumerate(sorted(res_len))}
    idtp = 0
    if r_index:
        gain = np.zeros((len(g_index), len(r_index)))
        for (g, r), n in overlap.items():
            gain[g_index[g], r_index[r]] = n
        result = linear_assignment(-gain)
        idtp = int(sum(gain[r, c] for r, c in result.matches.tolist()))
    total_gt = sum(gt_len.values())
    total_res = sum(res_len.values())
    return idtp, total_res - idtp, total_gt - idtp

"""Two-stage association engine over a columnar track table.

Stage 1 matches high-confidence detections against every live track
(tentative, confirmed, and lost) under the fused cost

    cost = (1 - IoU) + w_a * appearance + w_r * rotation

with pairs forbidden when IoU falls below the gate or classes differ.
Stage 2 sweeps the remaining low-confidence detections against the
still-unmatched tentative/confirmed tracks on IoU alone. Unmatched
high-confidence detections found new tracks.

Gating comes first. One gated IoU block, every live track against every
kept detection, serves both stages: stage 1 reads its high-confidence
columns, stage 2 the sub-block of its leftover tracks and low-confidence
columns. Appearance and rotation are scored only at the cells that pass
the gates, pair by pair, and added into them. On dense scenes the gates
reject nearly every pair, and most of those that remain are a track and a
detection with no other feasible partner: linear_assignment matches such
isolated pairs directly and solves only the contested rest. The solver is
in the package: a plain-Python port of the shortest augmenting path method
of Crouse (IEEE TAES 52(4), 2016) in SciPy's order of operations, which
breaks a tie between columns for an unassigned one and so returns what
scipy.optimize.linear_sum_assignment returns, ties included.

The live tracks are a TrackTable, one row per track in creation order:
(N,) ids, classes, state codes, consecutive hits, lost ages, last frames and
last scores; (N, 8) Kalman means and (N, 8, 8) covariances; the appearance
gallery of appearance.py; and (N, 3) rotation descriptors, a zero row where
a track has none. A frame arrives as the arrays of a FrameDetections, with
the camera motion the run hands the tracker (None for none), and each step
is an array operation over rows: predict every row under that motion, score
the galleries, match, correct the matched rows and advance the lifecycle by
masks, into locals. Once every kept and new row's filter and box are finite
and the stage-1 matches' local features are blended, the locals are
written; one rebuild drops the removed rows and appends a row per new
track, and the new rows take the writes of the matched ones: with
the stage-1 matches, the local feature and one key-bank offer call; with
every matched row, the descriptor, last frame and last score. Creation order
keeps the cost-matrix row order, so assignment ties resolve as they did when
tracks were objects.

linear_assignment returns index arrays: the matches as (K, 2) (row, column)
pairs, and the unmatched rows and columns. A frame's output is one
TrackRecord per confirmed track matched that frame: a tuple of plain values
in MOT result order (frame, id, x, y, w, h, score, class), taken from one
(K, 4) block of posterior boxes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import appearance as ap
from . import motion as mo
from .core import FrameDetections, TrackerConfig, box_centers, iou_matrix

log = logging.getLogger("drone_assoc.association")

INFEASIBLE = np.inf
_LARGE = 1e9

# state codes of the table's `states` column
TENTATIVE, CONFIRMED, LOST, REMOVED = range(4)


class FrameOrderError(ValueError):
    """Raised when frames are fed out of order."""


@dataclass(frozen=True, eq=False)
class AssignmentResult:
    """Matches as a (K, 2) intp array of (row, column) pairs in solver
    order; the unmatched rows and columns as ascending intp arrays."""

    matches: np.ndarray
    unmatched_rows: np.ndarray
    unmatched_cols: np.ndarray


class TrackRecord(NamedTuple):
    """One output row: a confirmed track's posterior xywh box at a frame."""

    frame: int
    track_id: int
    x: float
    y: float
    w: float
    h: float
    score: float
    class_id: int


@dataclass(frozen=True)
class FrameStats:
    """What the tracker did with one frame. Gallery rows are the stored
    features present when the stage-1 appearance term ran (0 when it did
    not), whether or not a feasible pair read them; bank inserts and
    refreshes count the key-bank offers of matched and spawned tracks.
    stage1_ious holds the IoU of each stage-1 match's predicted box and
    detection, in match order."""

    frame: int
    stage1_matches: int
    stage2_matches: int
    spawned: int
    removed: int
    live_tracks: int
    gallery_rows: int
    bank_inserts: int
    bank_refreshes: int
    stage1_ious: tuple[float, ...]


def linear_assignment(cost: np.ndarray) -> AssignmentResult:
    """Minimum-cost one-to-one assignment; +inf entries are never matched.

    Of the matchings with the most feasible pairs, returns one of least
    total cost, its matches in ascending row order. A feasible cell that is
    the only one in its row and in its column belongs to every such
    matching and is taken directly. The other rows and columns holding
    feasible cells go through one solve of their sub-block by
    _shortest_augmenting_path, the in-package port of Crouse's method, with
    the infeasible cells lifted to a large finite constant so the solver
    always runs; a match landing on one is dropped afterwards. Among tied
    columns the solver prefers an unassigned one, and its column order is
    SciPy's, so ties resolve as linear_sum_assignment resolves them.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    n, m = cost.shape
    if n == 0 or m == 0:
        return AssignmentResult(np.zeros((0, 2), dtype=np.intp),
                                np.arange(n, dtype=np.intp), np.arange(m, dtype=np.intp))
    feasible = np.isfinite(cost)
    row_n, col_n = feasible.sum(axis=1), feasible.sum(axis=0)
    rows, cols = np.nonzero(feasible)
    alone = (row_n[rows] == 1) & (col_n[cols] == 1)
    if not alone.all():
        live_r, live_c = row_n > 0, col_n > 0
        live_r[rows[alone]] = False
        live_c[cols[alone]] = False
        sub_r, sub_c = np.flatnonzero(live_r), np.flatnonzero(live_c)
        sub = cost[np.ix_(sub_r, sub_c)]
        a, b = _shortest_augmenting_path(np.where(np.isfinite(sub), sub, _LARGE))
        ok = np.isfinite(sub[a, b])
        rows = np.concatenate([rows[alone], sub_r[a[ok]]])
        cols = np.concatenate([cols[alone], sub_c[b[ok]]])
        order = np.argsort(rows)
        rows, cols = rows[order], cols[order]
    free_r = np.ones(n, dtype=bool)
    free_r[rows] = False
    free_c = np.ones(m, dtype=bool)
    free_c[cols] = False
    return AssignmentResult(np.column_stack([rows, cols]),
                            np.flatnonzero(free_r), np.flatnonzero(free_c))


def _shortest_augmenting_path(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a minimum-cost assignment of a dense float64 block,
    in ascending row order, min(N, M) pairs.

    The shortest augmenting path method of Crouse ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4), 2016), a variant of
    the Hungarian method, in the order of operations of SciPy's
    linear_sum_assignment, so it returns what SciPy returns, ties included.
    A block with fewer columns than rows is solved transposed. Each search
    scans the free columns, kept in a list filled in reverse index order
    from which a taken column is removed by moving the last entry into its
    place; the reduced cost is ((min_val + c) - u) - v, and a column wins
    when its path cost is strictly lower than the best so far, or equal to
    it and the column is unassigned. Plain Python over lists: the blocks
    are small, and a numpy call per scan costs more than the loop.

    Raises ValueError for a NaN or -inf entry, and when some row has no
    finite column left to take.
    """
    if not (cost > -math.inf).all():
        raise ValueError("cost matrix contains NaN or -inf")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    c = cost.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        spc = [math.inf] * nc  # shortest path cost to each column
        remaining = list(range(nc - 1, -1, -1))
        seen_rows, seen_cols = [cur], []
        min_val, i, sink = 0.0, cur, -1
        while sink < 0:
            ci, ui = c[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r, best = min_val + ci[j] - ui - v[j], spc[j]
                if r < best:
                    path[j] = i
                    spc[j] = best = r
                if best < lowest or (best == lowest and row4col[j] < 0):
                    lowest, index = best, it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
                seen_rows.append(i)
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        rows = [col4row[j] for j in cols]
    else:
        rows, cols = range(nr), col4row
    return np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)


class TrackTable:
    """The live tracks as columns, one row per track in creation order.

    `states` holds the module's state codes. `gallery` is (N, 1 + K, D):
    slot 0 the local feature (present where `has_local`), slots 1..K the key
    bank, filled to `fill` with `last_used` frames. D is 0 until the first
    embedding arrives.
    """

    _COLUMNS = ("ids", "classes", "states", "hits", "lost_age", "last_frame",
                "last_score", "means", "covs", "gallery", "has_local", "fill",
                "last_used", "rotation")

    def __init__(self, capacity: int, n: int = 0, dim: int = 0):
        self.capacity = capacity
        self.ids = np.zeros(n, dtype=np.int64)
        self.classes = np.zeros(n, dtype=np.int64)
        self.states = np.zeros(n, dtype=np.int8)
        self.hits = np.zeros(n, dtype=np.int64)
        self.lost_age = np.zeros(n, dtype=np.int64)
        self.last_frame = np.zeros(n, dtype=np.int64)
        self.last_score = np.zeros(n, dtype=np.float64)
        self.means = np.zeros((n, 8), dtype=np.float64)
        self.covs = np.zeros((n, 8, 8), dtype=np.float64)
        self.gallery = np.zeros((n, 1 + capacity, dim), dtype=np.float64)
        self.has_local = np.zeros(n, dtype=bool)
        self.fill = np.zeros(n, dtype=np.int64)
        self.last_used = np.zeros((n, capacity), dtype=np.int64)
        self.rotation = np.zeros((n, 3), dtype=np.float64)

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def local(self) -> np.ndarray:
        """(N, D) view of the local features."""
        return self.gallery[:, 0]

    @property
    def bank(self) -> np.ndarray:
        """(N, K, D) view of the key banks."""
        return self.gallery[:, 1:]

    def gallery_mask(self) -> np.ndarray:
        """(N, 1 + K) mask of the present gallery slots."""
        slots = np.arange(self.capacity)[None, :] < self.fill[:, None]
        return np.column_stack([self.has_local, slots])

    def sized_gallery(self, dim: int) -> np.ndarray:
        """The gallery sized for D-dimensional embeddings; only a gallery that
        holds no feature yet can change its D, and it comes back new."""
        if self.gallery.shape[2] == dim:
            return self.gallery
        if self.has_local.any() or self.fill.any():
            raise ValueError(f"embeddings of dimension {dim} reached tracks "
                             f"holding dimension {self.gallery.shape[2]}")
        return np.zeros((len(self), 1 + self.capacity, dim))

    def rebuild(self, keep: np.ndarray, new: "TrackTable") -> None:
        """Drop the rows where `keep` is false and append the rows of `new`,
        which has the same K and D. A column is copied once, unless rows are
        both dropped and appended."""
        if keep.all():
            keep = slice(None)
        for name in self._COLUMNS:
            kept, added = getattr(self, name)[keep], getattr(new, name)
            setattr(self, name, np.concatenate([kept, added]) if len(added) else kept)


def iou_cost_matrix(
    track_classes: np.ndarray,
    predicted_boxes: np.ndarray,
    det_boxes: np.ndarray,
    det_classes: np.ndarray,
    config: TrackerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The gated IoU block, shape (N, M): 1 - IoU of the (N, 4) predicted
    and (M, 4) detected xywh boxes, +inf where IoU falls below the gate or
    the (N,) track and (M,) detection classes differ. Returned with the IoU
    matrix it was built from. Stage 2 is a sub-block of it as it stands;
    stage 1 adds the fused terms to its high-confidence columns."""
    shape = (track_classes.shape[0], det_boxes.shape[0])
    if 0 in shape:
        return np.zeros(shape, dtype=np.float64), np.zeros(shape, dtype=np.float64)
    ious = iou_matrix(predicted_boxes, det_boxes)
    cost = 1.0 - ious
    cost[ious < config.iou_gate] = INFEASIBLE
    cost[track_classes[:, None] != det_classes[None, :]] = INFEASIBLE
    return cost, ious


def fused_cost_matrix(
    tracks: TrackTable,
    cost: np.ndarray,
    det_embeddings: Optional[np.ndarray],
    det_descriptors: np.ndarray,
    config: TrackerConfig,
) -> np.ndarray:
    """Stage-1 cost: adds the weighted appearance and rotation terms of
    each feasible (finite) cell of the gated (N, M) block `cost` into it, in
    place, and returns it; infeasible cells stay +inf. Only the feasible
    (track, detection) pairs are scored. A frame without embeddings (None)
    adds no appearance term; (M, 3) detection descriptors are zero rows
    where missing."""
    rows, cols = np.nonzero(np.isfinite(cost))
    if rows.size == 0:
        return cost
    fused = cost[rows, cols]
    if config.w_a > 0 and det_embeddings is not None:
        fused += config.w_a * ap.gallery_pair_costs(
            tracks.gallery, tracks.gallery_mask(), rows, det_embeddings[cols])
    if config.w_r > 0:
        fused += config.w_r * mo.rotation_pair_costs(tracks.rotation[rows],
                                                     det_descriptors[cols])
    cost[rows, cols] = fused
    return cost


def lifecycle(
    states: np.ndarray,
    hits: np.ndarray,
    lost_age: np.ndarray,
    matched: np.ndarray,
    config: TrackerConfig,
) -> None:
    """Advance (N,) state codes, consecutive hits and lost ages through the
    state table for one frame, in place; `matched` (N,) marks the rows
    matched this frame."""
    missed = ~matched
    tentative, confirmed, lost = states == TENTATIVE, states == CONFIRMED, states == LOST
    hits[matched] += 1
    hits[missed] = 0
    lost_age[matched] = 0
    lost_age[missed & confirmed] = 1
    lost_age[missed & lost] += 1
    states[matched & (lost | (tentative & (hits >= config.confirm_hits)))] = CONFIRMED
    states[missed & confirmed] = LOST
    states[missed & (tentative | (lost & (lost_age > config.max_lost_age)))] = REMOVED


class Tracker:
    """Holds live tracks and consumes frames in strictly increasing order."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config if config is not None else TrackerConfig()
        self.tracks = TrackTable(self.config.key_bank_capacity)
        self.next_id = 1
        self.last_frame = 0
        self.last_stats: Optional[FrameStats] = None

    def associate_frame(
        self, frame_detections: FrameDetections, m: Optional[mo.AffineTransform]
    ) -> list[TrackRecord]:
        """Process one frame; returns the confirmed-track records for it. A frame
        refused for its order, embedding width or a non-finite row writes nothing."""
        cfg = self.config
        frame = frame_detections.frame
        if frame <= self.last_frame:
            raise FrameOrderError(
                f"frame {frame} arrived after frame {self.last_frame}"
            )

        # the frame's rows at or above theta_low; positions below index
        # them, and hi and lo split the positions between the two stages
        fd = frame_detections
        kept = np.flatnonzero(fd.scores >= cfg.theta_low)
        boxes, classes, scores = fd.boxes[kept], fd.classes[kept], fd.scores[kept]
        high = scores >= cfg.theta_high
        hi, lo = np.flatnonzero(high), np.flatnonzero(~high)
        emb = None if fd.embeddings is None else fd.embeddings[kept]
        descriptors = (mo.frame_descriptors(box_centers(boxes), cfg.radius_R)
                       if cfg.w_r > 0 else np.zeros((kept.shape[0], 3)))

        t = self.tracks
        gallery = t.gallery if emb is None else t.sized_gallery(emb.shape[1])
        means, covs = mo.multi_predict(t.means, t.covs, m)
        predicted = mo.states_to_xywh(means)

        # one gated block for both stages
        gated, ious = iou_cost_matrix(t.classes, predicted, boxes, classes, cfg)
        emb_hi = None if emb is None else emb[hi]
        cost = fused_cost_matrix(t, gated[:, hi], emb_hi, descriptors[hi], cfg)
        gallery_rows = (int(t.has_local.sum() + t.fill.sum())
                        if cfg.w_a > 0 and emb is not None and cost.size else 0)
        stage1 = linear_assignment(cost)
        rows1, cols1 = stage1.matches.T
        spawn = hi[stage1.unmatched_cols]

        free = stage1.unmatched_rows
        leftover = free[t.states[free] != LOST]
        rows2, cols2 = linear_assignment(gated[np.ix_(leftover, lo)]).matches.T

        rows = np.concatenate([rows1, leftover[rows2]])
        pos = np.concatenate([hi[cols1], lo[cols2]])
        if rows.size:
            means[rows], covs[rows] = mo.multi_update(means[rows], covs[rows], boxes[pos])
        # the bank stays frozen through the frame that re-acquires a lost
        # track, so the offers are read before the lifecycle step; inserts
        # resume once it is confirmed again. A new track offers its first.
        offer = np.concatenate([t.states[rows1] != LOST, np.ones(spawn.size, dtype=bool)])
        matched = np.zeros(len(t), dtype=bool)
        matched[rows] = True
        states, hits, lost_age = t.states.copy(), t.hits.copy(), t.lost_age.copy()
        lifecycle(states, hits, lost_age, matched, cfg)

        keep = states != REMOVED
        born = mo.multi_init(boxes[spawn])  # the new tracks' filters
        after = np.concatenate([means[keep], born[0]])  # the means after the rebuild
        xywh = mo.states_to_xywh(after)
        finite = (np.isfinite(after).all(axis=1) & np.isfinite(xywh).all(axis=1)
                  & np.isfinite(np.concatenate([covs[keep], born[1]])).all(axis=(1, 2)))
        if not finite.all():
            bad = np.append(t.ids[keep], self.next_id + np.arange(spawn.size))[~finite][0]
            raise ValueError(f"frame {frame}: the box of track {bad} must be finite")

        # the stage-1 matches and the new tracks fold in their embeddings:
        # blended into a present local feature, else adopted; a blend that
        # cancels keeps the feature it had
        if emb is not None and offer.size:
            feats = emb[np.concatenate([hi[cols1], spawn])]
            had = np.flatnonzero(t.has_local[rows1])  # stage-1 matches only
            if cfg.use_afs:
                alphas = ap.adaptive_alphas(scores[hi[cols1[had]]], cfg.theta_high, cfg.alpha_f)
            else:
                alphas = np.full(had.size, cfg.alpha_f)
            local = feats.copy()
            local[had] = ap.blend_rows(gallery[rows1[had], 0], feats[had], alphas)

        t.means, t.covs, t.gallery = means, covs, gallery
        t.states, t.hits, t.lost_age = states, hits, lost_age
        # one rebuild drops the removed rows and appends the new ones; a
        # matched row is never removed, so its index becomes its count of
        # kept rows before it
        n_removed = len(t) - int(keep.sum())
        if n_removed or spawn.size:
            t.rebuild(keep, self._spawn(born, classes[spawn], gallery.shape[2]))
            rows = (np.cumsum(keep) - 1)[rows]
        self.last_frame = frame
        self.next_id += spawn.size

        # the new rows take the matched rows' writes, placed after the
        # stage-1 matches: those two store their local features and, with
        # AFS, offer their embeddings to the key banks; every row takes its
        # descriptor, frame and score
        new, n1 = np.arange(len(t) - spawn.size, len(t)), rows1.size
        rows = np.concatenate([rows[:n1], new, rows[n1:]])
        pos = np.concatenate([pos[:n1], spawn, pos[n1:]])
        inserted = np.zeros(0, dtype=bool)
        if emb is not None and offer.size:
            fed = rows[:offer.size]
            t.local[fed] = local
            t.has_local[fed] = True
            if cfg.use_afs:
                inserted = ap.insert_keys(t.bank, t.last_used, t.fill, fed[offer],
                                          feats[offer], frame, cfg.novelty_threshold)
        desc = descriptors[pos]
        has_desc = desc.any(axis=1)
        t.rotation[rows[has_desc]] = desc[has_desc]
        t.last_frame[rows] = frame
        t.last_score[rows] = scores[pos]

        emit = np.flatnonzero((t.states == CONFIRMED) & (t.last_frame == frame))
        records = [
            TrackRecord(frame, track_id, x, y, w, h, score, class_id)
            for track_id, (x, y, w, h), score, class_id in zip(
                t.ids[emit].tolist(), xywh[emit].tolist(),
                t.last_score[emit].tolist(), t.classes[emit].tolist())
        ]
        n_inserts = int(inserted.sum())
        self.last_stats = FrameStats(
            frame, rows1.size, rows2.size, spawn.size, n_removed, len(t),
            gallery_rows, n_inserts, inserted.size - n_inserts,
            tuple(ious[rows1, hi[cols1]].tolist()),
        )
        log.debug("frame %d: %d dets, %d live tracks, %d emitted",
                  frame, kept.shape[0], len(t), len(records))
        return records

    # -- internals ---------------------------------------------------------

    def _spawn(self, filters: tuple, classes: np.ndarray, dim: int) -> TrackTable:
        """The rows of new tracks with the given filters and classes: ids from
        next_id, initial state and hits, and D-wide galleries."""
        n = classes.shape[0]
        new = TrackTable(self.config.key_bank_capacity, n, dim)
        new.ids[:] = np.arange(self.next_id, self.next_id + n)
        new.classes[:] = classes
        new.states[:] = CONFIRMED if self.last_frame == 0 else TENTATIVE
        new.hits[:] = 1
        new.means, new.covs = filters
        return new

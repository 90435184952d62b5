"""Two-stage association engine over a columnar track table.

Stage 1 matches high-confidence detections against every live track
(tentative, confirmed, and lost) under the fused cost

    cost = (1 - IoU) + w_a * appearance + w_r * rotation

with pairs forbidden when IoU falls below the gate or classes differ.
Stage 2 sweeps the remaining low-confidence detections against the
still-unmatched tentative/confirmed tracks on IoU alone. Unmatched
high-confidence detections found new tracks.

Gating comes first, and the work grows with the pairs that pass it, not
with tracks x detections. gated_pairs lists every (track, detection) pair
that passes the gates, with its IoU, ascending by (track, detection): above
a zero gate it cuts each track's window out of the detections sorted by
left edge, since a nonzero IoU needs the boxes to overlap in x; at a zero
gate every same-class pair is a candidate. Both stages read those pairs:
stage 1 the high-confidence ones, whose appearance and rotation terms are
scored pair by pair and added in, stage 2 those of its leftover tracks and
the low-confidence detections. assign_pairs solves an assignment given as
pairs. On dense scenes most pairs are a track and a detection with no other
feasible partner; such isolated pairs are matched directly and only the
contested rest is laid out as a block for one solve. linear_assignment is
its dense call. The solver is in the package: a plain-Python port of the
shortest augmenting path method of Crouse (IEEE TAES 52(4), 2016) in SciPy's
order of operations, which breaks a tie between columns for an unassigned
one and so returns what scipy.optimize.linear_sum_assignment returns, ties
included.

The live tracks are a TrackTable, one row per track in creation order:
(N,) ids, classes, state codes, consecutive hits, lost ages, last frames and
last scores; (N, 8) Kalman means and (N, 8, 8) covariances; the appearance
gallery of appearance.py; and (N, 3) rotation descriptors, a zero row where
a track has none. A frame arrives as the arrays of a FrameDetections, with
the camera motion the run hands the tracker (None for none), and each step
is an array operation over rows: scale the high-confidence detections'
embeddings, the only ones the tracker reads, as given, to unit norm in
float64, predict every row under that motion, score the gated pairs,
match, correct the matched rows and advance the lifecycle by masks, into
locals. Once every kept and new row's filter and box are finite
and the stage-1 matches' local features are blended, the locals are
written; one rebuild drops the removed rows and appends a row per new
track, and the new rows take the writes of the matched ones: with
the stage-1 matches, the local feature and one key-bank offer call; with
every matched row, the descriptor, last frame and last score. Creation order
keeps the pairs' row order, so assignment ties resolve as they did when
tracks were objects.

assign_pairs returns index arrays: the matches as (K, 2) (row, column)
pairs, and the unmatched rows and columns. A frame's output is one record
per confirmed track matched that frame: a plain tuple of Python ints and
floats in MOT result order (frame, id, x, y, w, h, score, class), zipped
from columns of the (K, 4) block of posterior boxes. A tuple of atomic
values is one the garbage collector stops tracking, so the records a
caller holds cost its collections nothing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from . import appearance as ap
from . import motion as mo
from .core import (
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    box_centers,
    iou_matrix,  # noqa: F401  a module attribute: the benchmark's tracer wraps it by name
    iou_pairs,
    normalize_rows,
    window_pairs,
)

log = logging.getLogger("drone_assoc.association")

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
    """Minimum-cost one-to-one assignment of a dense (N, M) block; +inf
    (any non-finite) entries are never matched: assign_pairs over the
    block's finite cells."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-dimensional")
    rows, cols = np.nonzero(np.isfinite(cost))
    return assign_pairs(cost.shape[0], cost.shape[1], rows, cols, cost[rows, cols])


def assign_pairs(n: int, m: int, rows: np.ndarray, cols: np.ndarray,
                 costs: np.ndarray) -> AssignmentResult:
    """Minimum-cost one-to-one assignment of an (n, m) block given by its
    feasible cells: distinct (row, column) pairs in ascending row order,
    with (P,) costs; a pair whose cost is not finite is infeasible.

    Of the matchings with the most feasible pairs, returns one of least
    total cost, its matches in ascending row order. A pair that is the
    only one in its row and in its column belongs to every such matching
    and is taken directly. The other pairs' rows and columns go through one
    solve of their sub-block by _shortest_augmenting_path, the in-package
    port of Crouse's method, with the cells no pair names lifted to a large
    finite constant so the solver always runs; a match landing on one is
    dropped afterwards. Among tied columns the solver prefers an unassigned
    one, and its column order is SciPy's, so ties resolve as
    linear_sum_assignment resolves them on the dense block.
    """
    feasible = np.isfinite(costs)
    if not feasible.all():
        rows, cols, costs = rows[feasible], cols[feasible], costs[feasible]
    if rows.size == 0:
        return AssignmentResult(np.zeros((0, 2), dtype=np.intp),
                                np.arange(n, dtype=np.intp), np.arange(m, dtype=np.intp))
    row_n, col_n = np.bincount(rows, minlength=n), np.bincount(cols, minlength=m)
    alone = (row_n[rows] == 1) & (col_n[cols] == 1)
    if not alone.all():
        live_r, live_c = row_n > 0, col_n > 0
        live_r[rows[alone]] = False
        live_c[cols[alone]] = False
        sub_r, sub_c = np.flatnonzero(live_r), np.flatnonzero(live_c)
        # each contested pair's cell in the sub-block
        contested = ~alone
        i = (np.cumsum(live_r) - 1)[rows[contested]]
        j = (np.cumsum(live_c) - 1)[cols[contested]]
        sub = np.full((sub_r.size, sub_c.size), _LARGE)
        sub[i, j] = costs[contested]
        present = np.zeros(sub.shape, dtype=bool)
        present[i, j] = True
        a, b = _shortest_augmenting_path(sub)
        ok = present[a, b]
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


def gated_pairs(
    track_classes: np.ndarray,
    predicted_boxes: np.ndarray,
    det_boxes: np.ndarray,
    det_classes: np.ndarray,
    iou_gate: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (track, detection) pairs that pass the gates: (P,) rows into the
    (N, 4) predicted and (N,) track classes, (P,) columns into the (M, 4)
    detected xywh boxes and (M,) detection classes, and the pairs' (P,)
    IoUs, ascending by (row, column). A pair passes when the classes agree
    and its IoU, core.iou_pairs' arithmetic and so iou_matrix's cell for
    cell, is at least the gate.

    Above a zero gate an IoU must be nonzero, so the candidates are the
    x-windows of core.window_pairs over one block, same-class pairs among
    them. At a zero gate the candidates are every same-class pair.
    """
    n, m = predicted_boxes.shape[0], det_boxes.shape[0]
    if n == 0 or m == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0, dtype=np.float64)
    if iou_gate > 0:
        rows, cols = window_pairs(predicted_boxes, det_boxes)
        same = track_classes[rows] == det_classes[cols]
        rows, cols = rows[same], cols[same]
        ious = iou_pairs(predicted_boxes[rows], det_boxes[cols])
    else:
        # every same-class pair is a candidate, so the IoUs are scored as
        # one broadcast block, which gathers no box rows
        same = track_classes[:, None] == det_classes[None, :]
        rows, cols = np.nonzero(same)
        ious = iou_pairs(predicted_boxes[:, None, :], det_boxes[None, :, :])[same]
    keep = ious >= iou_gate
    rows, cols, ious = rows[keep], cols[keep], ious[keep]
    if iou_gate > 0:
        order = np.argsort(rows * m + cols)
        rows, cols, ious = rows[order], cols[order], ious[order]
    return rows, cols, ious


def fused_pair_costs(
    tracks: TrackTable,
    rows: np.ndarray,
    ious: np.ndarray,
    feats: Optional[np.ndarray],
    descriptors: np.ndarray,
    config: TrackerConfig,
) -> np.ndarray:
    """Stage-1 costs of P gated pairs: for pair p, 1 - ious[p], then plus
    w_a times the appearance cost of track rows[p]'s gallery against
    feats[p], then plus w_r times the rotation cost of its descriptor
    against descriptors[p]. feats (P, D) is None for a frame without
    embeddings, which adds no appearance term; (P, 3) descriptors are zero
    rows where missing."""
    costs = 1.0 - ious
    if rows.size == 0:
        return costs
    if config.w_a > 0 and feats is not None:
        costs += config.w_a * ap.gallery_pair_costs(
            tracks.gallery, tracks.gallery_mask(), rows, feats)
    if config.w_r > 0:
        costs += config.w_r * mo.rotation_pair_costs(tracks.rotation[rows], descriptors)
    return costs


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


def _first_singular(means: np.ndarray, covs: np.ndarray, boxes: np.ndarray) -> int:
    """The first row whose one-row multi_update meets a singular innovation
    covariance, for a batch whose update raised; the batched solve fails
    exactly when some row's does."""
    for i in range(means.shape[0]):
        try:
            mo.multi_update(means[i:i + 1], covs[i:i + 1], boxes[i:i + 1])
        except np.linalg.LinAlgError:
            return i
    raise AssertionError("the batched update raised, but no row does alone")


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
    ) -> list[tuple]:
        """Process one frame; returns the confirmed-track records for it, plain
        (frame, id, x, y, w, h, score, class) tuples. A frame refused for its
        order, embedding width, a zero-length embedding on a high-confidence
        row, a non-finite row or a singular filter writes nothing."""
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
        emb = None  # the high-confidence rows' unit embeddings
        if fd.embeddings is not None:
            # stage 2 is IoU alone, so only these rows are read; the gather
            # copies, so the caller's rows are not scaled
            read = kept[hi]
            try:
                emb = normalize_rows(fd.embeddings[read].astype(np.float64, copy=False))
            except ZeroNormError as e:
                raise ZeroNormError(f"frame {frame}: detection {read[e.row]}: {e}") from e
        descriptors = (mo.frame_descriptors(box_centers(boxes), cfg.radius_R)
                       if cfg.w_r > 0 else np.zeros((kept.shape[0], 3)))

        t = self.tracks
        gallery = t.gallery if emb is None else t.sized_gallery(emb.shape[1])
        means, covs = mo.multi_predict(t.means, t.covs, m)
        predicted = mo.states_to_xywh(means)

        # one list of gated pairs for both stages; a pair's column becomes
        # its detection's place among hi or lo
        pair_rows, pair_cols, ious = gated_pairs(t.classes, predicted, boxes, classes,
                                                 cfg.iou_gate)
        place = np.empty(kept.shape[0], dtype=np.intp)
        place[hi], place[lo] = np.arange(hi.size), np.arange(lo.size)
        at_hi = high[pair_cols]
        r1, c1, iou1 = pair_rows[at_hi], place[pair_cols[at_hi]], ious[at_hi]
        costs = fused_pair_costs(t, r1, iou1, None if emb is None else emb[c1],
                                 descriptors[hi[c1]], cfg)
        gallery_rows = (int(t.has_local.sum() + t.fill.sum())
                        if cfg.w_a > 0 and emb is not None and len(t) and hi.size else 0)
        stage1 = assign_pairs(len(t), hi.size, r1, c1, costs)
        rows1, cols1 = stage1.matches.T
        spawn = hi[stage1.unmatched_cols]

        # stage 2: the pairs of unmatched tracks that are not lost with
        # low-confidence detections
        open_rows = np.zeros(len(t), dtype=bool)
        open_rows[stage1.unmatched_rows] = True
        open_rows &= t.states != LOST
        at_lo = ~at_hi & open_rows[pair_rows]
        rows2, cols2 = assign_pairs(len(t), lo.size, pair_rows[at_lo], place[pair_cols[at_lo]],
                                    1.0 - ious[at_lo]).matches.T

        rows = np.concatenate([rows1, rows2])
        pos = np.concatenate([hi[cols1], lo[cols2]])
        if rows.size:
            try:
                means[rows], covs[rows] = mo.multi_update(means[rows], covs[rows], boxes[pos])
            except np.linalg.LinAlgError as e:
                bad = rows[_first_singular(means[rows], covs[rows], boxes[pos])]
                raise ValueError(f"frame {frame}: the filter of track {t.ids[bad]} "
                                 "is singular") from e
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
            feats = emb[np.concatenate([cols1, stage1.unmatched_cols])]
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
        x, y, w, h = xywh[emit].T.tolist()
        records = list(zip(repeat(frame), t.ids[emit].tolist(), x, y, w, h,
                           t.last_score[emit].tolist(), t.classes[emit].tolist()))
        n_inserts = int(inserted.sum())
        # each stage-1 match is one of the pairs, which ascend by (row, column)
        match_pairs = np.searchsorted(r1 * hi.size + c1, rows1 * hi.size + cols1)
        self.last_stats = FrameStats(
            frame, rows1.size, rows2.size, spawn.size, n_removed, len(t),
            gallery_rows, n_inserts, inserted.size - n_inserts,
            tuple(iou1[match_pairs].tolist()),
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

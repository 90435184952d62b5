"""Tracking evaluation: CLEAR measures (MOTA/MOTP/FP/FN/switches, MT/ML)
and identity measures (IDF1/IDP/IDR).

Per-frame correspondence keeps the previous frame's matches while their
IoU stays at or above the threshold, then assigns the remainder by minimum
(1 - IoU); pairs below the threshold never match. An identity switch is
counted when a ground-truth identity is matched to a different result id
than the last one it was ever matched to. Identity measures use one global
bipartite assignment between ground-truth and result ids that maximizes
the number of co-located frames. The threshold lies in (0, 1].

Both sides come in as MotTables, the arrays parse_mot_lines returns; each
is sorted by frame once, and the frames of either side are ranked densely.
A sequence is scored from its pairs: every same-frame (gt row, result row)
whose IoU, core.iou_pairs' arithmetic and so iou_matrix's cell for cell,
is at least the threshold, ascending by (gt row, result row). Since the
threshold is positive, a pair overlaps in x, and the candidates are the
x-windows of core.window_pairs keyed by frame rank; a box that is not
finite pairs with nothing. The pairs are listed for chunks of consecutive
frames of about PAIR_CHUNK_ROWS rows, and the counts carry from chunk to
chunk, so memory stays bounded on long sequences.

The identity counts are one bincount of the pairs' (gt id, result id)
codes. For CLEAR, a pair that is the only pair of its gt row and of its
result row is matched by every sweep: carried over, or taken alone by the
assignment. A frame whose pairs are all such, and which repeats no gt id
and no result id, is matched in bulk, and a match there is carried over
when its gt id's last match, in the frame before, was its result id. Any
other frame holding pairs runs the per-frame sweep: the carried-over pairs
first, then assign_pairs over the pairs the carried ones leave free.
Matched IoUs are summed in the sweep's order, frame by frame, carried-over
matches by gt row before new ones by gt row.

All rates are emitted as fractions; the table printer formats percents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .association import assign_pairs, linear_assignment
from .core import (
    iou_matrix,  # noqa: F401  a module attribute: the benchmark's tracer wraps it by name
    iou_pairs,
    window_pairs,
)
from .mot_io import MotTable

# about this many rows of both sides per chunk of consecutive frames; a
# frame is never split, so a larger frame makes a larger chunk
PAIR_CHUNK_ROWS = 4096


class EvaluationError(ValueError):
    """Raised for unevaluable inputs (e.g. empty ground truth)."""


@dataclass(frozen=True)
class EvalReport:
    mota: float
    motp: float
    idf1: float
    idp: float
    idr: float
    fp: int
    fn: int
    id_switches: int
    mt: int
    ml: int
    gt_total: int


@dataclass(frozen=True, eq=False)
class _Side:
    """One table in frame order, a stable sort: table row order[i] is sorted
    row i, whose dense id, its index among the distinct `ids`, is dense[i];
    frame rank k holds sorted rows spans[k]:spans[k + 1]."""

    table: MotTable
    order: np.ndarray
    dense: np.ndarray
    ids: np.ndarray
    spans: np.ndarray


@dataclass(frozen=True, eq=False)
class _Rows:
    """The sorted rows of consecutive frames of one side: each row's frame
    rank, dense id and (n, 4) box."""

    ranks: np.ndarray
    dense: np.ndarray
    boxes: np.ndarray


def _sides(gt: MotTable, results: MotTable) -> tuple[_Side, _Side]:
    """Both tables sorted by frame, with spans over the ranks of the frames
    either one holds."""
    orders = [np.argsort(t.frames, kind="stable") for t in (gt, results)]
    frames = [t.frames[o] for t, o in zip((gt, results), orders)]
    ranked = np.union1d(*(f[np.diff(f, prepend=f[:1] - 1) != 0] for f in frames))
    sides = []
    for table, order, sorted_frames in zip((gt, results), orders, frames):
        ids, dense = np.unique(table.ids, return_inverse=True)
        spans = np.append(np.searchsorted(sorted_frames, ranked), sorted_frames.shape[0])
        sides.append(_Side(table, order, dense.reshape(-1)[order], ids, spans))
    return sides[0], sides[1]


def _rows(side: _Side, k0: int, k1: int) -> _Rows:
    """The rows of frame ranks k0..k1 - 1."""
    a, b = int(side.spans[k0]), int(side.spans[k1])
    ranks = np.repeat(np.arange(k0, k1), np.diff(side.spans[k0:k1 + 1]))
    return _Rows(ranks, side.dense[a:b], side.table.rows[side.order[a:b], 2:6])


def _pairs(g: _Rows, r: _Rows, iou_threshold: float):
    """(gt rows, result rows, IoUs) of the same-frame pairs at or above the
    threshold, ascending by (gt row, result row), as indices into g and r."""
    gi = np.flatnonzero(np.isfinite(g.boxes).all(axis=1))
    ri = np.flatnonzero(np.isfinite(r.boxes).all(axis=1))
    rows, cols = window_pairs(g.boxes[gi], r.boxes[ri], g.ranks[gi], r.ranks[ri])
    rows, cols = gi[rows], ri[cols]
    ious = iou_pairs(g.boxes[rows], r.boxes[cols])
    keep = ious >= iou_threshold
    rows, cols, ious = rows[keep], cols[keep], ious[keep]
    order = np.argsort(rows * r.ranks.shape[0] + cols)
    return rows[order], cols[order], ious[order]


def _chunks(gt: MotTable, results: MotTable, iou_threshold: float):
    """The two sides, and an iterator over chunks of consecutive frames:
    (gt _Rows, result _Rows, pairs)."""
    _check_threshold(iou_threshold)
    g, r = _sides(gt, results)
    if g.dense.shape[0] == 0:
        raise EvaluationError("ground truth contains no boxes")
    # a chunk ends where a frame starts past a multiple of PAIR_CHUNK_ROWS
    bucket = (g.spans + r.spans)[:-1] // PAIR_CHUNK_ROWS
    bounds = np.concatenate([[0], np.flatnonzero(np.diff(bucket)) + 1, [bucket.shape[0]]])

    def chunks() -> Iterator:
        for k0, k1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            g_rows, r_rows = _rows(g, k0, k1), _rows(r, k0, k1)
            yield g_rows, r_rows, _pairs(g_rows, r_rows, iou_threshold)

    return g, r, chunks()


def _check_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise EvaluationError(f"iou_threshold must lie in (0, 1], got {iou_threshold!r}")


def _repeat_ranks(rows: _Rows, n_ids: int) -> np.ndarray:
    """The frame ranks in which some dense id appears twice."""
    if rows.ranks.shape[0] == 0:
        return rows.ranks
    k0 = rows.ranks[0]
    keys = np.sort((rows.ranks - k0) * n_ids + rows.dense)
    return keys[1:][keys[1:] == keys[:-1]] // n_ids + k0


def _carried_over(g_boxes, r_ids, r_boxes, want, iou_threshold):
    """Yesterday's pairs that still overlap enough: (gt rows, result rows,
    IoUs), gt rows ascending. `want` holds the result id each gt row was
    matched to in the previous frame, or -1; a gt row looks up the first
    row of that id, and a result row goes to the first gt row that keeps
    it."""
    seen, first = np.unique(r_ids, return_index=True)
    pos = np.minimum(np.searchsorted(seen, want), seen.shape[0] - 1)
    gi = np.flatnonzero((want >= 0) & (seen[pos] == want))
    ri = first[pos[gi]]
    ious = iou_pairs(g_boxes[gi], r_boxes[ri])
    ok = ious >= iou_threshold
    gi, ri, ious = gi[ok], ri[ok], ious[ok]
    keep = np.sort(np.unique(ri, return_index=True)[1])
    return gi[keep], ri[keep], ious[keep]


class _ClearSweep:
    """The CLEAR counts of a sequence, fed chunk by chunk in frame order.

    Per gt id it keeps the result id it was last matched to (-1 for none,
    whatever the rank) and the frame rank of that match; the frame before
    rank K is rank K - 1, so a match in rank K - 1 is the previous frame's.
    """

    def __init__(self, g: _Side, r: _Side, iou_threshold: float):
        self.g, self.r, self.iou_threshold = g, r, iou_threshold
        n = g.ids.shape[0]
        self.last_r = np.full(n, -1)
        self.last_rank = np.full(n, -1)
        self.covered = np.zeros(n, dtype=np.int64)
        self.switches = self.matches = 0
        self.iou_sum = 0.0

    def add_chunk(self, g: _Rows, r: _Rows, pairs) -> None:
        """Match the chunk's frames: runs of frames in bulk, and the frames
        holding a contested pair or a repeated id one at a time."""
        pg, pr, piou = pairs
        ranks = g.ranks[pg]
        contested = (np.bincount(pg)[pg] > 1) | (np.bincount(pr)[pr] > 1)
        swept = np.unique(np.concatenate([ranks[contested],
                                          _repeat_ranks(g, self.g.ids.shape[0]),
                                          _repeat_ranks(r, self.r.ids.shape[0])]))
        lo = np.searchsorted(ranks, swept, side="left").tolist()
        hi = np.searchsorted(ranks, swept, side="right").tolist()
        done = 0
        for k, a, b in zip(swept.tolist(), lo, hi):
            if a == b:
                continue  # no pairs, no matches
            self._add(ranks[done:a], g.dense[pg[done:a]], r.dense[pr[done:a]], piou[done:a])
            self._sweep_frame(k, g, r, pg[a:b], pr[a:b], piou[a:b])
            done = b
        self._add(ranks[done:], g.dense[pg[done:]], r.dense[pr[done:]], piou[done:])

    def _sweep_frame(self, k, g: _Rows, r: _Rows, pg, pr, piou) -> None:
        """Frame rank k as the per-frame sweep matches it, from its pairs."""
        g0, g1 = np.searchsorted(g.ranks, [k, k + 1]).tolist()
        r0, r1 = np.searchsorted(r.ranks, [k, k + 1]).tolist()
        g_ids, g_boxes = g.dense[g0:g1], g.boxes[g0:g1]
        r_ids, r_boxes = r.dense[r0:r1], r.boxes[r0:r1]
        want = np.where(self.last_rank[g_ids] == k - 1, self.last_r[g_ids], -1)
        gi, ri, ious = _carried_over(g_boxes, r_ids, r_boxes, want, self.iou_threshold)
        free_g = np.ones(g1 - g0, dtype=bool)
        free_g[gi] = False
        free_r = np.ones(r1 - r0, dtype=bool)
        free_r[ri] = False
        pg, pr = pg - g0, pr - r0
        keep = free_g[pg] & free_r[pr]
        fg, fr = np.flatnonzero(free_g), np.flatnonzero(free_r)
        a, b = assign_pairs(fg.shape[0], fr.shape[0], (np.cumsum(free_g) - 1)[pg[keep]],
                            (np.cumsum(free_r) - 1)[pr[keep]], 1.0 - piou[keep]).matches.T
        carried = np.arange(gi.shape[0] + a.shape[0]) < gi.shape[0]
        gi, ri = np.concatenate([gi, fg[a]]), np.concatenate([ri, fr[b]])
        ious = np.concatenate([ious, iou_pairs(g_boxes[fg[a]], r_boxes[fr[b]])])
        self._add(np.full(gi.shape[0], k), g_ids[gi], r_ids[ri], ious, carried)

    def _add(self, ranks, g, r, ious, carried: Optional[np.ndarray] = None) -> None:
        """Count matches of consecutive frames given in frame order: their
        gt and result dense ids and IoUs. A frame of the per-frame sweep
        comes alone with its carried-over flags, in the sweep's order;
        without flags, every frame repeats no gt id, and a match is carried
        over when its gt id's last match is its result id, in the frame
        before."""
        if ranks.shape[0] == 0:
            return
        # in gt-id order, frame by frame; a gt id matched twice in one frame
        # compares its second result against its first
        order = np.argsort(g, kind="stable")
        gs, rs, ks = g[order], r[order], ranks[order]
        repeat = gs[1:] == gs[:-1]
        before_r, before_k = self.last_r[gs], self.last_rank[gs]
        before_r[1:][repeat] = rs[:-1][repeat]
        before_k[1:][repeat] = ks[:-1][repeat]
        self.switches += int(np.count_nonzero((before_r >= 0) & (before_r != rs)))
        if carried is None:
            carried = np.empty(ranks.shape[0], dtype=bool)
            carried[order] = (before_k == ks - 1) & (before_r == rs)
        final = np.ones(gs.shape[0], dtype=bool)
        final[:-1] = ~repeat
        self.last_r[gs[final]] = rs[final]
        self.last_rank[gs[final]] = ks[final]
        first = np.flatnonzero(np.append(True, ~repeat))
        self.covered[gs[first]] += np.diff(np.append(first, gs.shape[0]))
        self.matches += ranks.shape[0]
        # summed one match at a time, as the report has always added them:
        # frame by frame, carried-over matches first
        place = np.argsort(2 * ranks + ~carried, kind="stable")
        self.iou_sum = float(np.add.accumulate(np.append(self.iou_sum, ious[place]))[-1])

    def counts(self) -> dict:
        gd, g_ids = self.g.dense, self.g.ids
        gt_total = gd.shape[0]
        fp = self.r.dense.shape[0] - self.matches
        fn = gt_total - self.matches
        present = np.bincount(gd, minlength=g_ids.shape[0]).tolist()
        covered = self.covered.tolist()
        # gt ids in order of first appearance
        first_seen = np.sort(np.unique(gd, return_index=True)[1])
        coverage = {int(g_ids[g]): covered[g] / present[g] for g in gd[first_seen].tolist()}
        return {
            "fp": fp,
            "fn": fn,
            "id_switches": self.switches,
            "gt_total": gt_total,
            "motp": self.iou_sum / self.matches if self.matches else 0.0,
            "mota": 1.0 - (fp + fn + self.switches) / gt_total,
            "mt": sum(1 for c in coverage.values() if c >= 0.8),
            "ml": sum(1 for c in coverage.values() if c <= 0.2),
            "coverage": coverage,
        }


def _identity(g: _Side, r: _Side, codes: list) -> tuple[int, int, int]:
    """(idtp, idfp, idfn) from the pairs' (gt id, result id) codes."""
    n_g, n_r = g.ids.shape[0], r.ids.shape[0]
    idtp = 0
    if n_r:
        gain = np.bincount(np.concatenate([np.zeros(0, dtype=np.intp)] + codes),
                           minlength=n_g * n_r)
        gain = gain.reshape(n_g, n_r).astype(np.float64)
        rows, cols = linear_assignment(-gain).matches.T
        idtp = int(gain[rows, cols].sum())
    return idtp, r.dense.shape[0] - idtp, g.dense.shape[0] - idtp


def _codes(g: _Rows, r: _Rows, pairs, n_r: int) -> np.ndarray:
    """Each pair's (gt id, result id) as g * n_r + r."""
    return g.dense[pairs[0]] * n_r + r.dense[pairs[1]]


def clear_mot(gt: MotTable, results: MotTable, iou_threshold: float = 0.5) -> dict:
    """CLEAR counts; returns the raw counts the reports are built from."""
    g, r, chunks = _chunks(gt, results, iou_threshold)
    sweep = _ClearSweep(g, r, iou_threshold)
    for chunk in chunks:
        sweep.add_chunk(*chunk)
    return sweep.counts()


def id_measures(
    gt: MotTable, results: MotTable, iou_threshold: float = 0.5
) -> tuple[int, int, int]:
    """(idtp, idfp, idfn) under the best global identity mapping."""
    g, r, chunks = _chunks(gt, results, iou_threshold)
    n_r = r.ids.shape[0]
    return _identity(g, r, [_codes(*chunk, n_r) for chunk in chunks])


def evaluate(gt: MotTable, results: MotTable, iou_threshold: float = 0.5) -> EvalReport:
    """Full report over one sequence, from one listing of its pairs."""
    g, r, chunks = _chunks(gt, results, iou_threshold)
    sweep = _ClearSweep(g, r, iou_threshold)
    codes = []
    for chunk in chunks:
        sweep.add_chunk(*chunk)
        codes.append(_codes(*chunk, r.ids.shape[0]))
    clear = sweep.counts()
    idtp, idfp, idfn = _identity(g, r, codes)
    idp = idtp / (idtp + idfp) if idtp + idfp else 0.0
    idr = idtp / (idtp + idfn) if idtp + idfn else 0.0
    idf1_den = 2 * idtp + idfp + idfn
    return EvalReport(
        mota=clear["mota"],
        motp=clear["motp"],
        idf1=2 * idtp / idf1_den if idf1_den else 0.0,
        idp=idp,
        idr=idr,
        fp=clear["fp"],
        fn=clear["fn"],
        id_switches=clear["id_switches"],
        mt=clear["mt"],
        ml=clear["ml"],
        gt_total=clear["gt_total"],
    )


_CSV_HEADER = "label,mota,motp,idf1,idp,idr,fp,fn,id_switches,mt,ml,gt_total"


def report_table(rows: Sequence[tuple[str, EvalReport]]) -> str:
    """Aligned text table; MOTA/IDF1/IDP/IDR shown as percents."""
    header = ["run", "MOTA", "MOTP", "IDF1", "IDP", "IDR",
              "FP", "FN", "IDs", "MT", "ML", "GT"]
    body = []
    for label, r in rows:
        body.append([
            label,
            f"{r.mota * 100:.2f}%", f"{r.motp:.4f}",
            f"{r.idf1 * 100:.2f}%", f"{r.idp * 100:.2f}%", f"{r.idr * 100:.2f}%",
            str(r.fp), str(r.fn), str(r.id_switches),
            str(r.mt), str(r.ml), str(r.gt_total),
        ])
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def report_csv(rows: Sequence[tuple[str, EvalReport]]) -> str:
    """Machine-readable twin of the table, raw fractions."""
    lines = [_CSV_HEADER]
    for label, r in rows:
        lines.append(
            f"{label},{r.mota!r},{r.motp!r},{r.idf1!r},{r.idp!r},{r.idr!r},"
            f"{r.fp},{r.fn},{r.id_switches},{r.mt},{r.ml},{r.gt_total}"
        )
    return "\n".join(lines) + "\n"

"""Tracking evaluation: CLEAR measures (MOTA/MOTP/FP/FN/switches, MT/ML)
and identity measures (IDF1/IDP/IDR).

Per-frame correspondence keeps the previous frame's matches while their
IoU stays at or above the threshold, then assigns the remainder by minimum
(1 - IoU); pairs below the threshold never match. An identity switch is
counted when a ground-truth identity is matched to a different result id
than the last one it was ever matched to. Identity measures use one global
bipartite assignment between ground-truth and result ids that maximizes
the number of co-located frames.

Both sides come in as MotTables, the arrays parse_mot_lines returns; each
is sorted by frame once and every frame is a slice of the sorted block.
The CLEAR sweep keeps its per-id state in arrays over dense ids and scores
the carried-over pairs elementwise, so iou_matrix and the assignment only
see the rows and columns those pairs leave free.

All rates are emitted as fractions; the table printer formats percents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import linear_assignment
from .core import iou_matrix, iou_pairs
from .mot_io import MotTable


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


def _frame_spans(table: MotTable):
    """The table's rows sorted by frame (stable): each row's dense id (its
    index among the sorted distinct ids), the (K, 4) boxes, the distinct
    ids, and {frame: (start, end)} row spans, frames ascending."""
    order = np.argsort(table.frames, kind="stable")
    frames = table.frames[order]
    ids, dense = np.unique(table.ids[order], return_inverse=True)
    keys, starts = np.unique(frames, return_index=True)
    ends = np.append(starts[1:], frames.shape[0])
    spans = dict(zip(keys.tolist(), zip(starts.tolist(), ends.tolist())))
    return dense.reshape(-1), table.rows[order, 2:6], ids, spans


def _carried_over(g_ids, g_boxes, r_ids, r_boxes, prev_r, iou_threshold):
    """Yesterday's pairs that still overlap enough: (gt rows, result rows,
    IoUs), gt rows ascending. A gt row looks up the first row of the result
    id it was matched to; a result row goes to the first gt row that keeps
    it."""
    want = prev_r[g_ids]
    seen, first = np.unique(r_ids, return_index=True)
    pos = np.minimum(np.searchsorted(seen, want), seen.shape[0] - 1)
    gi = np.flatnonzero((want >= 0) & (seen[pos] == want))
    ri = first[pos[gi]]
    ious = iou_pairs(g_boxes[gi], r_boxes[ri])
    ok = ious >= iou_threshold
    gi, ri, ious = gi[ok], ri[ok], ious[ok]
    keep = np.sort(np.unique(ri, return_index=True)[1])
    return gi[keep], ri[keep], ious[keep]


def clear_mot(gt: MotTable, results: MotTable, iou_threshold: float = 0.5) -> dict:
    """CLEAR sweep; returns the raw counts the reports are built from.

    Ids are dense indices within each side. Per frame, the carried-over
    pairs get their IoUs elementwise, and only the block of rows and
    columns they leave free goes through iou_matrix and the assignment.
    Matched IoUs are summed in match order, carried-over pairs first.
    """
    gd, gb, g_ids, g_spans = _frame_spans(gt)
    rd, rb, _, r_spans = _frame_spans(results)
    gt_total = gd.shape[0]
    if gt_total == 0:
        raise EvaluationError("ground truth contains no boxes")

    fp = fn = switches = 0
    # per gt id: the result it matched in the previous frame, and the last
    # result it was ever matched to; -1 for none
    prev_r = np.full(g_ids.shape[0], -1)
    last_r = np.full(g_ids.shape[0], -1)
    prev_g = np.zeros(0, dtype=np.intp)
    matched_g: list[np.ndarray] = []
    matched_iou: list[np.ndarray] = []

    for frame in sorted(set(g_spans) | set(r_spans)):
        g0, g1 = g_spans.get(frame, (0, 0))
        r0, r1 = r_spans.get(frame, (0, 0))
        g_frame, g_boxes = gd[g0:g1], gb[g0:g1]
        r_frame, r_boxes = rd[r0:r1], rb[r0:r1]

        if g_frame.size and r_frame.size:
            gi, ri, ious = _carried_over(g_frame, g_boxes, r_frame, r_boxes, prev_r,
                                         iou_threshold)
            free_g = np.ones(g_frame.shape[0], dtype=bool)
            free_g[gi] = False
            free_r = np.ones(r_frame.shape[0], dtype=bool)
            free_r[ri] = False
            fg, fr = np.flatnonzero(free_g), np.flatnonzero(free_r)
            if fg.size and fr.size:
                block = iou_matrix(g_boxes[fg], r_boxes[fr])
                sub = 1.0 - block
                sub[block < iou_threshold] = np.inf
                a, b = linear_assignment(sub).matches.T
                gi = np.concatenate([gi, fg[a]])
                ri = np.concatenate([ri, fr[b]])
                ious = np.concatenate([ious, block[a, b]])
        else:
            gi = ri = np.zeros(0, dtype=np.intp)
            ious = np.zeros(0)

        # in gt-id order; a gt id matched twice in one frame compares its
        # second result against its first
        g_m, r_m = g_frame[gi], r_frame[ri]
        order = np.argsort(g_m, kind="stable")
        gs, rs = g_m[order], r_m[order]
        repeat = np.zeros(gs.shape[0], dtype=bool)
        repeat[1:] = gs[1:] == gs[:-1]
        before = last_r[gs]
        before[repeat] = rs[:-1][repeat[1:]]
        switches += int(np.count_nonzero((before >= 0) & (before != rs)))
        final = np.ones(gs.shape[0], dtype=bool)
        final[:-1] = ~repeat[1:]
        last_r[gs[final]] = rs[final]
        prev_r[prev_g] = -1
        prev_g = gs[final]
        prev_r[prev_g] = rs[final]

        matched_g.append(g_m)
        matched_iou.append(ious)
        fp += r_frame.shape[0] - gi.shape[0]
        fn += g_frame.shape[0] - gi.shape[0]

    matched = np.concatenate(matched_g)
    ious = np.concatenate(matched_iou)
    # summed one match at a time, as the report has always added them
    iou_sum = float(np.add.accumulate(ious)[-1]) if ious.size else 0.0
    present = np.bincount(gd, minlength=g_ids.shape[0]).tolist()
    covered = np.bincount(matched, minlength=g_ids.shape[0]).tolist()
    # gt ids in order of first appearance
    first_seen = np.sort(np.unique(gd, return_index=True)[1])
    coverage = {int(g_ids[g]): covered[g] / present[g] for g in gd[first_seen].tolist()}
    matches_total = matched.shape[0]
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


def id_measures(
    gt: MotTable, results: MotTable, iou_threshold: float = 0.5
) -> tuple[int, int, int]:
    """(idtp, idfp, idfn) under the best global identity mapping."""
    gd, gb, g_ids, g_spans = _frame_spans(gt)
    rd, rb, r_ids, r_spans = _frame_spans(results)
    if gd.shape[0] == 0:
        raise EvaluationError("ground truth contains no boxes")

    # co-located (gt id, result id) pairs, coded as g * len(r_ids) + r
    n_r = r_ids.shape[0]
    codes = [np.zeros(0, dtype=np.intp)]
    for frame, (g0, g1) in g_spans.items():
        if frame not in r_spans:
            continue
        r0, r1 = r_spans[frame]
        gi, ri = np.nonzero(iou_matrix(gb[g0:g1], rb[r0:r1]) >= iou_threshold)
        codes.append(gd[g0 + gi] * n_r + rd[r0 + ri])
    idtp = 0
    if n_r:
        gain = np.bincount(np.concatenate(codes), minlength=g_ids.shape[0] * n_r)
        gain = gain.reshape(g_ids.shape[0], n_r).astype(np.float64)
        rows, cols = linear_assignment(-gain).matches.T
        idtp = int(gain[rows, cols].sum())
    return idtp, rd.shape[0] - idtp, gd.shape[0] - idtp


def evaluate(gt: MotTable, results: MotTable, iou_threshold: float = 0.5) -> EvalReport:
    """Full report over one sequence."""
    clear = clear_mot(gt, results, iou_threshold)
    idtp, idfp, idfn = id_measures(gt, results, iou_threshold)
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

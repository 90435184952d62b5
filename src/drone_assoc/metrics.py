"""Tracking evaluation: CLEAR measures (MOTA/MOTP/FP/FN/switches, MT/ML)
and identity measures (IDF1/IDP/IDR).

Per-frame correspondence keeps the previous frame's matches while their
IoU stays at or above the threshold, then assigns the remainder by minimum
(1 - IoU); pairs below the threshold never match. An identity switch is
counted when a ground-truth identity is matched to a different result id
than the last one it was ever matched to. Identity measures use one global
bipartite assignment between ground-truth and result ids that maximizes
the number of co-located frames.

Both sides come in as MotTables, the arrays parse_mot_lines returns;
_by_frame sorts their rows by frame once and slices each frame's ids and
boxes out of the sorted block.

All rates are emitted as fractions; the table printer formats percents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import linear_assignment
from .core import iou_matrix
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


def _by_frame(table: MotTable) -> dict[int, tuple[list[int], np.ndarray]]:
    """Ids and (K, 4) boxes per frame, frames ascending, rows in input order
    within a frame: slices of the table's rows after one stable sort."""
    order = np.argsort(table.frames, kind="stable")
    frames = table.frames[order]
    ids = table.ids[order].tolist()
    boxes = table.rows[order, 2:6]
    keys, starts = np.unique(frames, return_index=True)
    ends = np.append(starts[1:], frames.shape[0]).tolist()
    return {
        f: (ids[s:e], boxes[s:e])
        for f, s, e in zip(keys.tolist(), starts.tolist(), ends)
    }


def clear_mot(gt: MotTable, results: MotTable, iou_threshold: float = 0.5) -> dict:
    """CLEAR sweep; returns the raw counts the reports are built from."""
    gt_frames = _by_frame(gt)
    res_frames = _by_frame(results)
    gt_total = sum(len(ids) for ids, _ in gt_frames.values())
    if gt_total == 0:
        raise EvaluationError("ground truth contains no boxes")

    fp = fn = switches = 0
    iou_sum = 0.0
    matches_total = 0
    prev: dict[int, int] = {}       # correspondence active in the previous frame
    last_match: dict[int, int] = {} # last result id each gt id was matched to
    present: dict[int, int] = {}
    covered: dict[int, int] = {}

    for frame in sorted(set(gt_frames) | set(res_frames)):
        g_ids, g_boxes = gt_frames.get(frame, ([], np.zeros((0, 4))))
        r_ids, r_boxes = res_frames.get(frame, ([], np.zeros((0, 4))))
        for g in g_ids:
            present[g] = present.get(g, 0) + 1
        ious = iou_matrix(g_boxes, r_boxes)

        matched_g: dict[int, int] = {}
        used_r: set[int] = set()
        # carry over yesterday's pairs that still overlap enough; a result id
        # given twice in a frame resolves to its first row
        first_row: dict[int, int] = {}
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
            for a, b in linear_assignment(sub).matches:
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


def id_measures(
    gt: MotTable, results: MotTable, iou_threshold: float = 0.5
) -> tuple[int, int, int]:
    """(idtp, idfp, idfn) under the best global identity mapping."""
    gt_frames = _by_frame(gt)
    res_frames = _by_frame(results)
    gt_len: dict[int, int] = {}
    res_len: dict[int, int] = {}
    overlap: dict[tuple[int, int], int] = {}

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
        idtp = int(sum(gain[r, c] for r, c in result.matches))
    total_gt = sum(gt_len.values())
    total_res = sum(res_len.values())
    return idtp, total_res - idtp, total_gt - idtp


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

"""Correctness checks on a run's outputs, independent of drone_assoc.metrics.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

IOU_MATCH = 0.5
# camera-motion error of the online estimator, averaged over an 11 x 11
# point grid spanning the world extent: most frames must stay within
# ONLINE_FRAME_PX and the median frame within ONLINE_MEDIAN_PX (seeded runs
# of the standard scene give a median near 3 px)
ONLINE_MEDIAN_PX = 6.0
ONLINE_FRAME_PX = 10.0
ONLINE_FRAME_SHARE = 0.9
# the scenes are tracked above 0.85 on both scores; a broken tracker is not
ACCURACY_FLOOR = 0.5


def read_results(path: str) -> np.ndarray:
    """Rows of a results file as float64 (frame, id, x, y, w, h, score,
    class, -1, -1); raises ValueError on a row of another width."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 10:
                raise ValueError(f"{path}: row with {len(parts)} columns: {line!r}")
            rows.append([float(v) for v in parts])
    return np.array(rows, dtype=np.float64).reshape(-1, 10)


def check_records(rows: np.ndarray, n_frames: int) -> list[str]:
    """Sorted by (frame, id), one record per (frame, id), finite positive
    boxes, frames inside the sequence."""
    errors = []
    if rows.shape[0] == 0:
        return ["results file holds no records"]
    if not np.all(np.isfinite(rows)):
        errors.append("non-finite field in results")
    frame, tid = rows[:, 0], rows[:, 1]
    if np.any(frame != np.round(frame)) or np.any(tid != np.round(tid)):
        errors.append("non-integer frame or id")
    if frame.min() < 1 or frame.max() > n_frames:
        errors.append(f"frames outside 1..{n_frames}: {frame.min()}..{frame.max()}")
    if tid.min() < 1:
        errors.append("track id below 1")
    key = frame * (tid.max() + 1) + tid
    if np.any(np.diff(key) <= 0):
        errors.append("records not strictly sorted by (frame, id)")
    if np.any(rows[:, 4] <= 0) or np.any(rows[:, 5] <= 0):
        errors.append("box with non-positive extent")
    if np.any(rows[:, 8] != -1) or np.any(rows[:, 9] != -1):
        errors.append("padding columns are not -1")
    return errors


def _iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ax2, ay2 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx2, by2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    iw = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(a[:, 0, None], b[None, :, 0])
    ih = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(a[:, 1, None], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return inter / union


def max_matches(rows: np.ndarray, gt_frame: np.ndarray, gt_box: np.ndarray) -> int:
    """Largest number of (ground truth, record) pairs at IoU >= 0.5 that a
    one-to-one matching within each frame can make."""
    order = np.argsort(rows[:, 0], kind="stable")
    res_frame, res_box = rows[order, 0].astype(np.int64), rows[order, 2:6]
    g_order = np.argsort(gt_frame, kind="stable")
    gt_frame, gt_box = gt_frame[g_order], gt_box[g_order]
    total = 0
    for f in np.unique(res_frame):
        gs, ge = np.searchsorted(gt_frame, [f, f + 1])
        rs, re = np.searchsorted(res_frame, [f, f + 1])
        hits = _iou(gt_box[gs:ge], res_box[rs:re]) >= IOU_MATCH
        if hits.any():
            match = maximum_bipartite_matching(csr_matrix(hits.astype(np.int8)),
                                               perm_type="column")
            total += int(np.count_nonzero(match >= 0))
    return total


def check_recount(rows: np.ndarray, gt_frame: np.ndarray, gt_box: np.ndarray,
                  fp: int, fn: int) -> list[str]:
    """The evaluator's FP and FN can be no fewer than what a maximum
    matching leaves unmatched."""
    m = max_matches(rows, gt_frame, gt_box)
    min_fp = rows.shape[0] - m
    min_fn = gt_box.shape[0] - m
    errors = []
    if fp < min_fp:
        errors.append(f"evaluator FP {fp} below recounted minimum {min_fp}")
    if fn < min_fn:
        errors.append(f"evaluator FN {fn} below recounted minimum {min_fn}")
    return errors


def check_sidecar(parsed: dict, frames: np.ndarray, mats: np.ndarray) -> list[str]:
    """Parsed sidecar affines equal the simulator's in-memory ones exactly."""
    if sorted(parsed) != [int(f) for f in frames]:
        return ["sidecar frames differ from the simulator's"]
    bad = [int(f) for f, m in zip(frames, mats) if not np.array_equal(parsed[int(f)].m, m)]
    return [f"sidecar affine differs from the simulator's at frames {bad[:5]}"] if bad else []


def online_errors(estimated: dict, frames: np.ndarray, mats: np.ndarray,
                  n_frames: int, extent: float) -> np.ndarray:
    """Mean grid-point displacement (px) between the affine the tracker used
    (identity where the estimator gave none) and the true camera motion, per
    frame."""
    axis = np.linspace(0.0, extent, 11)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    truth = {int(f): m for f, m in zip(frames, mats)}
    eye = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    errs = np.empty(n_frames)
    for t in range(1, n_frames + 1):
        est = estimated.get(t)
        e = eye if est is None else est.m
        g = truth.get(t, eye)
        diff = grid @ (e[:, :2] - g[:, :2]).T + (e[:, 2] - g[:, 2])
        errs[t - 1] = float(np.mean(np.linalg.norm(diff, axis=1)))
    return errs


def check_online(errs: np.ndarray) -> list[str]:
    median = float(np.median(errs))
    share = float(np.mean(errs <= ONLINE_FRAME_PX))
    errors = []
    if median > ONLINE_MEDIAN_PX:
        errors.append(f"online affine median error {median:.2f} px > {ONLINE_MEDIAN_PX}")
    if share < ONLINE_FRAME_SHARE:
        errors.append(f"only {share:.1%} of frames within {ONLINE_FRAME_PX} px "
                      f"of the true camera motion")
    return errors


def check_accuracy(idf1: float, mota: float) -> list[str]:
    if not (math.isfinite(idf1) and math.isfinite(mota)):
        return ["non-finite accuracy"]
    if idf1 < ACCURACY_FLOOR or mota < ACCURACY_FLOOR:
        return [f"accuracy below floor: idf1={idf1:.4f} mota={mota:.4f}"]
    return []

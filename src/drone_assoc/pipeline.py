"""End-to-end runs over the one frame loop, track_frames: it feeds a tracker
frames 1..last, an empty frame where the input has none (skipping the empty
frames of a gap once no track is left), each with its
camera motion from camera_source, the one reader of a run's camera settings
(the affine sidecar, online estimation, or none, which is all a run with
use_dmp off hands the tracker; such a run never opens the sidecar).
run_tracking loads a detection file, runs the loop and writes the results;
run_ablation parses its generated detections once and runs the loop once per
feature-toggle cell, each with a fresh tracker and camera source."""

from __future__ import annotations

import bisect
import dataclasses
import logging
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .association import FrameOrderError, Tracker
from .core import FrameDetections, box_centers
from .metrics import EvalReport, evaluate, report_csv, report_table
from .mot_io import (
    RunConfig,
    parse_affines,
    parse_detections,
    parse_mot_lines,
    write_results,
)
from .motion import AffineEstimationError, AffineTransform, estimate_affine
from .simulator import ScenarioConfig, generate_scenario

log = logging.getLogger("drone_assoc.pipeline")


@dataclass
class RunSummary:
    frames: int
    tracks_created: int
    records: int
    wall_seconds: float


class OnlineAffineEstimator:
    """Fallback camera-motion source when no sidecar is supplied: mutual
    nearest-neighbor pairs of consecutive high-confidence detection centers,
    fit robustly. Frames where estimation fails contribute identity."""

    def __init__(self, theta_high: float, seed: int = 0):
        self.theta_high = theta_high
        self.rng = np.random.default_rng(seed)
        self._prev: Optional[np.ndarray] = None

    def step(self, frame_detections: FrameDetections) -> Optional[AffineTransform]:
        fd = frame_detections
        centers = box_centers(fd.boxes[fd.scores >= self.theta_high])
        prev, self._prev = self._prev, centers
        if prev is None or not len(prev) or not len(centers):
            return None
        # np.linalg.norm's arithmetic over the last axis
        dx = prev[:, None, 0] - centers[None, :, 0]
        dy = prev[:, None, 1] - centers[None, :, 1]
        d = np.sqrt(dx * dx + dy * dy)
        fwd = d.argmin(axis=1)
        bwd = d.argmin(axis=0)
        (pi,) = np.nonzero(bwd[fwd] == np.arange(len(fwd)))
        try:
            return estimate_affine(prev[pi], centers[fwd[pi]], rng=self.rng)
        except AffineEstimationError:
            return None


# a run's camera motion per frame
Camera = Callable[[FrameDetections], Optional[AffineTransform]]


def track_frames(
    frames: Iterable[FrameDetections], camera: Camera, tracker: Tracker
) -> Iterator[list[tuple]]:
    """Feed the tracker frames 1..last in order, an empty frame where the
    input has no rows, each with its camera motion `camera(fd)`; yields
    the records of each frame it feeds, a list of plain (frame, id, x, y,
    w, h, score, class) tuples. A frame given twice is a FrameOrderError.

    Once the tracker holds no track, an empty frame changes nothing but its
    last frame, and the camera source has seen a frame without detections.
    So after the first such empty frame, the loop jumps to the next frame
    that holds rows (or to the last frame): a gap in the frame numbers costs
    the empty frames until the last track is removed, not one per missing
    frame."""
    by_frame: dict[int, FrameDetections] = {}
    for fd in frames:
        if fd.frame in by_frame:
            raise FrameOrderError(f"frame {fd.frame} appears twice")
        by_frame[fd.frame] = fd
    last = max(by_frame, default=0)
    busy = sorted(t for t, fd in by_frame.items() if len(fd))
    t = 1
    while t <= last:
        fd = by_frame.get(t)
        if fd is None:
            fd = FrameDetections(t, ())
        yield tracker.associate_frame(fd, camera(fd))
        if len(fd) or len(tracker.tracks):
            t += 1
        else:
            i = bisect.bisect_right(busy, t)
            t = busy[i] if i < len(busy) else max(t + 1, last)


def camera_source(cfg: RunConfig) -> Camera:
    """A fresh camera-motion source for one run, and the one reader of its
    camera settings (use_dmp, affines, seed): no motion when DMP is off,
    without opening the sidecar; else lookup in the affine sidecar when the
    run names one; else online estimation seeded by cfg.seed. The tracker
    applies whatever motion it is handed."""
    if not cfg.use_dmp:
        return lambda fd: None
    if cfg.affines is not None:
        affines = parse_affines(cfg.affines)
        return lambda fd: affines.get(fd.frame)
    log.info("no affine sidecar given, estimating camera motion online")
    return OnlineAffineEstimator(cfg.theta_high, cfg.seed).step


def _load(cfg: RunConfig) -> list[FrameDetections]:
    """The run's detections."""
    return parse_detections(
        cfg.detections,
        embeddings_path=cfg.embeddings,
        embedding_dim=cfg.embedding_dim if cfg.embeddings else None,
        min_score=cfg.theta_low,
    )


def _track(cfg: RunConfig, frames: Sequence[FrameDetections]) -> RunSummary:
    """Run a fresh tracker and camera source over loaded detections and
    write cfg.output."""
    tracker = Tracker(cfg.tracker_config())
    camera = camera_source(cfg)
    start = time.perf_counter()
    records = [r for out in track_frames(frames, camera, tracker) for r in out]
    wall = time.perf_counter() - start
    write_results(records, cfg.output)
    summary = RunSummary(tracker.last_frame, tracker.next_id - 1, len(records), wall)
    log.info("tracked %d frames, %d tracks, %d records in %.3fs",
             summary.frames, summary.tracks_created, summary.records, wall)
    return summary


def run_tracking(cfg: RunConfig) -> RunSummary:
    """Track a detection file end to end and write the results file."""
    if cfg.detections is None or cfg.output is None:
        raise ValueError("run config needs detections and output paths")
    return _track(cfg, _load(cfg))


# each ablation cell's RunConfig overrides of a full-featured run
ABLATION_CELLS = {
    "baseline": dict(use_dmp=False, use_afs=False, w_r=0.0),
    "dmp": dict(use_afs=False),
    "afs": dict(use_dmp=False, w_r=0.0),
    "full": {},
}


def run_ablation(
    scenario: ScenarioConfig,
    out_dir: str,
    cells: Sequence[str] = tuple(ABLATION_CELLS),
) -> list[tuple[str, EvalReport]]:
    """Generate the scenario, parse its detections once, run one tracking
    pass per cell, evaluate each against ground truth, and write table + CSV
    twins into out_dir. No cell changes theta_low, so the parsed frames
    serve all; each DMP cell's camera source reads the affine sidecar."""
    for i, c in enumerate(cells):
        if c not in ABLATION_CELLS:
            raise ValueError(f"unknown ablation cell {c!r}")
        if c in cells[:i]:
            raise ValueError(f"ablation cell {c!r} appears twice")
    os.makedirs(out_dir, exist_ok=True)
    paths = generate_scenario(scenario, os.path.join(out_dir, "data"))
    base = RunConfig(
        detections=paths.detections,
        embeddings=paths.embeddings,
        affines=paths.affines,
        embedding_dim=scenario.embedding_dim,
        seed=scenario.seed,
    )
    frames = _load(base)
    gt = parse_mot_lines(paths.gt)[0]
    rows: list[tuple[str, EvalReport]] = []
    for label in cells:
        out = os.path.join(out_dir, f"results_{label}.txt")
        _track(dataclasses.replace(base, output=out, **ABLATION_CELLS[label]), frames)
        rows.append((label, evaluate(gt, parse_mot_lines(out)[0])))
    with open(os.path.join(out_dir, "ablation.txt"), "w", encoding="utf-8") as fh:
        fh.write(report_table(rows) + "\n")
    with open(os.path.join(out_dir, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write(report_csv(rows))
    return rows

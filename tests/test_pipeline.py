"""End-to-end run plumbing and the ablation harness."""

import dataclasses
import logging
import os

import numpy as np
import pytest

from conftest import det, frame_detections, grid_error, reference_estimate_affine
from drone_assoc import motion, pipeline
from drone_assoc.association import FrameOrderError, Tracker, TrackTable
from drone_assoc.core import FrameDetections
from drone_assoc.metrics import evaluate, report_csv, report_table
from drone_assoc.motion import AffineEstimationError
from drone_assoc.mot_io import RunConfig, parse_affines, parse_detections, parse_mot_lines
from drone_assoc.pipeline import (
    ABLATION_CELLS,
    OnlineAffineEstimator,
    camera_source,
    run_ablation,
    run_tracking,
    track_frames,
)
from drone_assoc.simulator import ScenarioConfig, generate_scenario, rotate, translate


def frame_of(frame, centers, score=0.9):
    return frame_detections(frame, [det(x - 5.0, y - 5.0, score=score) for x, y in centers])


class TestOnlineAffineEstimator:
    def test_first_frame_yields_nothing(self):
        est = OnlineAffineEstimator(0.6)
        assert est.step(frame_of(1, [(0, 0), (50, 0), (0, 50)])) is None

    def test_recovers_translation_between_frames(self):
        est = OnlineAffineEstimator(0.6)
        pts = [(10.0, 10.0), (80.0, 20.0), (30.0, 90.0), (70.0, 70.0)]
        est.step(frame_of(1, pts))
        moved = [(x + 7.0, y - 2.0) for x, y in pts]
        m = est.step(frame_of(2, moved))
        assert m is not None
        assert np.allclose(m.m, [[1.0, 0.0, 7.0], [0.0, 1.0, -2.0]], atol=1e-6)

    def test_needs_three_points_each_side(self):
        est = OnlineAffineEstimator(0.6)
        est.step(frame_of(1, [(0, 0), (50, 0)]))
        assert est.step(frame_of(2, [(1, 0), (51, 0), (0, 50)])) is None

    def test_low_confidence_detections_are_ignored(self):
        est = OnlineAffineEstimator(0.6)
        pts = [(10.0, 10.0), (80.0, 20.0), (30.0, 90.0)]
        est.step(frame_of(1, pts, score=0.3))
        assert est.step(frame_of(2, pts)) is None  # previous frame was empty

    def test_collinear_failure_returns_none(self):
        est = OnlineAffineEstimator(0.6)
        line = [(0.0, 0.0), (30.0, 0.0), (60.0, 0.0), (90.0, 0.0)]
        est.step(frame_of(1, line))
        assert est.step(frame_of(2, [(x + 1, y) for x, y in line])) is None


def reference_affine_steps(frames, theta_high, seed):
    """Per-frame affines from a sequential re-implementation of
    OnlineAffineEstimator: loop-built mutual nearest neighbours and the
    reference RANSAC loop, sharing one generator across frames."""
    gen = np.random.default_rng(seed)
    prev = None
    out = []
    for fd in frames:
        centers = np.array([(x + w / 2.0, y + h / 2.0)
                            for (x, y, w, h), s in zip(fd.boxes.tolist(), fd.scores.tolist())
                            if s >= theta_high], dtype=np.float64).reshape(-1, 2)
        before, prev = prev, centers
        if before is None or before.shape[0] < 3 or centers.shape[0] < 3:
            out.append(None)
            continue
        d = np.linalg.norm(before[:, None, :] - centers[None, :, :], axis=2)
        fwd = d.argmin(axis=1)
        bwd = d.argmin(axis=0)
        mutual = [(i, fwd[i]) for i in range(before.shape[0]) if bwd[fwd[i]] == i]
        if len(mutual) < 3:
            out.append(None)
            continue
        try:
            m = reference_estimate_affine(before[[i for i, _ in mutual]],
                                          centers[[j for _, j in mutual]], rng=gen)
            out.append(m.m)
        except AffineEstimationError:
            out.append(None)
    return out


def jittered_sequence(n_frames, seed):
    """Drifting, rotating point cloud with detection jitter, dropouts, a few
    low-confidence rows and some noise-free frames; also each frame's true
    2x3 map from the previous frame's coordinates."""
    g = np.random.default_rng(seed)
    world = g.uniform(0, 600, (18, 2))
    step = np.array([[np.cos(0.004), -np.sin(0.004)], [np.sin(0.004), np.cos(0.004)]])
    frames, truths = [], []
    for t in range(1, n_frames + 1):
        angle = 0.004 * t
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        shift = np.array([2.5 * t, -1.0 * t])
        pts = world @ rot.T + shift
        truths.append(np.column_stack([step, shift - step @ (shift - [2.5, -1.0])]))
        if (t // 5) % 3:  # frames 1-4, 15-19 and 30 are exact
            pts = pts + g.normal(0.0, 1.2, pts.shape)
        keep = g.random(len(pts)) > 0.1
        scores = np.where(g.random(len(pts)) < 0.15, 0.3, 0.9)
        frames.append(frame_detections(t, [
            det(x - 5.0, y - 5.0, score=float(s))
            for (x, y), s, k in zip(pts, scores, keep) if k]))
    return frames, truths


class TestOnlineAffineAccuracy:
    def test_thirty_jittered_frames_track_reference(self):
        """As many frames fitted as the reference, a median grid error
        within 10% of its, and the same matrices from the same seed."""
        frames, truths = jittered_sequence(30, seed=21)
        want = reference_affine_steps(frames, 0.6, seed=3)
        est = OnlineAffineEstimator(0.6, seed=3)
        got = [est.step(fd) for fd in frames]
        assert sum(m is not None for m in want) >= 25
        assert sum(m is not None for m in got) == sum(m is not None for m in want)
        ref = np.median([grid_error(m, g) for m, g in zip(want, truths) if m is not None])
        err = np.median([grid_error(m.m, g) for m, g in zip(got, truths) if m is not None])
        assert abs(err - ref) <= 0.1 * ref
        twin = OnlineAffineEstimator(0.6, seed=3)
        for fd, m in zip(frames, got):
            again = twin.step(fd)
            assert (again is None) == (m is None)
            assert again is None or np.array_equal(again.m, m.m)

    def test_moving_camera_triples_skip_the_svd(self, tmp_path, monkeypatch):
        """On a moving-camera scene the determinant bound decides every
        drawn triple's rank test, so no (3, 3) block reaches the SVD."""
        svd_triples = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            if a.ndim == 3 and a.shape[1:] == (3, 3):
                svd_triples.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(motion.np.linalg, "svd", spy)
        paths = generate_scenario(ScenarioConfig(
            seed=9, n_objects=12, n_frames=40, world_extent=500.0,
            camera_script=(translate(8.0, -3.0, 20), rotate(0.03, 20)),
            detection_noise_sigma=1.0, false_positive_rate=0.5, embedding_dim=8,
        ), str(tmp_path / "data"))
        est = OnlineAffineEstimator(0.6, seed=1901)
        fits = [est.step(fd) for fd in parse_detections(paths.detections, paths.embeddings, 8)]
        assert sum(m is not None for m in fits) >= 35
        assert sum(svd_triples) == 0
        # the spy sees a triple the bound cannot decide
        collinear = np.array([[[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0]]])
        motion._fit_minimal_models(collinear, np.zeros((1, 3, 2)))
        assert svd_triples == [1]


def scenario_inputs(tmp_path):
    cfg = ScenarioConfig(
        seed=5, n_objects=5, n_frames=20, world_extent=400.0,
        object_speed_range=(0.5, 1.5), detection_noise_sigma=0.5,
        miss_prob=0.02, false_positive_rate=0.2, embedding_dim=8,
    )
    return generate_scenario(cfg, str(tmp_path / "data"))


class TestTrackFrames:
    GAPS = (1, 6, 7, 13)

    @pytest.mark.parametrize("source", ["sidecar", "online", "none"])
    def test_yields_the_records_of_a_hand_driven_loop(self, tmp_path, source):
        paths = generate_scenario(ScenarioConfig(
            seed=5, n_objects=8, n_frames=20, world_extent=400.0,
            camera_script=(translate(8.0, -3.0, 10), rotate(0.03, 10)),
            detection_noise_sigma=0.5, miss_prob=0.02, false_positive_rate=0.2,
            embedding_dim=8,
        ), str(tmp_path / "data"))
        frames = [fd for fd in parse_detections(paths.detections, paths.embeddings, 8, 0.1)
                  if fd.frame not in self.GAPS]
        sidecar = paths.affines if source == "sidecar" else None
        cfg = RunConfig(use_dmp=source != "none", seed=3, affines=sidecar)
        affines = parse_affines(sidecar) if sidecar else None

        tracker = Tracker(cfg.tracker_config())
        estimator = OnlineAffineEstimator(cfg.theta_high, cfg.seed)
        by_frame = {fd.frame: fd for fd in frames}
        want = []
        for t in range(1, 21):
            fd = by_frame.get(t, FrameDetections(t, ()))
            m = (affines.get(t) if source == "sidecar"
                 else estimator.step(fd) if source == "online" else None)
            want.append(tracker.associate_frame(fd, m))

        source_camera = camera_source(cfg)
        seen = []

        def camera(fd):
            seen.append(fd.frame)
            return source_camera(fd)

        got = list(track_frames(frames, camera, Tracker(cfg.tracker_config())))
        assert seen == list(range(1, 21))
        assert got == want
        assert sum(map(len, got)) > 0
        assert all(got[t - 1] == [] for t in self.GAPS)

    @pytest.mark.parametrize("source", ["sidecar", "online", "none"])
    def test_skipped_empty_frames_change_no_record(self, tmp_path, source):
        """A scene with gaps longer than a lost track lives, some of them
        holding explicit empty frames: track_frames skips the empty frames
        once no track is left, and its records and final tracker equal those
        of the loop that feeds every frame, kept here as the reference."""
        paths = generate_scenario(ScenarioConfig(
            seed=5, n_objects=8, n_frames=200, world_extent=400.0,
            camera_script=(translate(4.0, -1.5, 100), rotate(0.01, 100)),
            detection_noise_sigma=0.5, miss_prob=0.02, false_positive_rate=0.2,
            embedding_dim=8,
        ), str(tmp_path / "data"))
        gaps = {*range(1, 4), *range(20, 80), *range(100, 105), *range(120, 201)}
        frames = [fd for fd in parse_detections(paths.detections, paths.embeddings, 8, 0.1)
                  if fd.frame not in gaps]
        frames += [FrameDetections(45, ()), FrameDetections(60, ()), FrameDetections(200, ())]
        sidecar = paths.affines if source == "sidecar" else None
        cfg = RunConfig(use_dmp=source != "none", seed=3, affines=sidecar)

        reference, camera = Tracker(cfg.tracker_config()), camera_source(cfg)
        by_frame = {fd.frame: fd for fd in frames}
        want = []
        for t in range(1, 201):
            fd = by_frame.get(t, FrameDetections(t, ()))
            want += reference.associate_frame(fd, camera(fd))

        source_camera, seen = camera_source(cfg), []

        def spy(fd):
            seen.append(fd.frame)
            return source_camera(fd)

        tracker = Tracker(cfg.tracker_config())
        got = [r for out in track_frames(frames, spy, tracker) for r in out]
        assert repr(got) == repr(want)
        assert {r[0] for r in got} & {80, 105}  # tracks form again after the gaps
        assert (tracker.last_frame, tracker.next_id) == (reference.last_frame, reference.next_id)
        for name in TrackTable._COLUMNS:
            assert (getattr(tracker.tracks, name).tobytes()
                    == getattr(reference.tracks, name).tobytes()), name
        # the empty frames of the two long gaps ran only until no track was left
        assert len(seen) < 200 - 60
        assert 45 in seen and 60 not in seen and seen[-1] == 200

    def test_a_long_gap_runs_only_until_the_last_track_is_removed(
            self, tmp_path, monkeypatch):
        """Rows at frames 1 and 10^9: the track of frame 1 is removed after
        max_lost_age + 1 empty frames, and the loop then jumps to 10^9."""
        det_path = tmp_path / "det.txt"
        det_path.write_text("1,1,0,0,10,10,0.9,1,1.0\n"
                            "1000000000,1,3,0,10,10,0.9,1,1.0\n")
        emb_path = tmp_path / "e.csv"
        emb_path.write_text("1,0,1.0,0.0\n1000000000,0,0.0,1.0\n")
        calls = []
        associate = Tracker.associate_frame

        def spy(tracker, fd, m):
            calls.append(fd.frame)
            return associate(tracker, fd, m)

        monkeypatch.setattr(Tracker, "associate_frame", spy)
        out = str(tmp_path / "results.txt")
        cfg = RunConfig(detections=str(det_path), embeddings=str(emb_path), output=out)
        summary = run_tracking(cfg)
        assert calls == list(range(1, cfg.max_lost_age + 3)) + [10 ** 9]
        assert (summary.frames, summary.tracks_created, summary.records) == (10 ** 9, 2, 1)
        assert parse_mot_lines(out)[0].frames.tolist() == [1]

    def test_camera_source_follows_the_run_config(self, tmp_path):
        paths = scenario_inputs(tmp_path)
        want = parse_affines(paths.affines)[4].m
        fd = FrameDetections(4, ())
        sidecar = RunConfig(affines=paths.affines)
        assert np.array_equal(camera_source(sidecar)(fd).m, want)
        assert camera_source(dataclasses.replace(sidecar, use_dmp=False))(fd) is None
        online = camera_source(RunConfig())
        assert isinstance(online.__self__, OnlineAffineEstimator)
        assert camera_source(RunConfig(use_dmp=False))(fd) is None

    def test_empty_input_yields_nothing(self):
        tracker = Tracker()
        assert list(track_frames([], lambda fd: None, tracker)) == []
        assert tracker.last_frame == 0

    def test_a_repeated_frame_is_refused_before_any_frame_runs(self):
        tracker = Tracker()
        frames = [frame_of(1, [(10, 10)]), frame_of(2, [(10, 10)]), frame_of(1, [(50, 50)])]
        with pytest.raises(FrameOrderError, match="frame 1 appears twice"):
            list(track_frames(frames, lambda fd: None, tracker))
        assert (tracker.last_frame, len(tracker.tracks)) == (0, 0)


class TestRunTracking:
    def test_missing_paths_rejected(self):
        with pytest.raises(ValueError):
            run_tracking(RunConfig(detections="det.txt", output=None))
        with pytest.raises(ValueError):
            run_tracking(RunConfig(detections=None, output="out.txt"))

    def test_end_to_end_writes_sorted_results(self, tmp_path):
        paths = scenario_inputs(tmp_path)
        out = str(tmp_path / "results.txt")
        summary = run_tracking(RunConfig(
            detections=paths.detections, embeddings=paths.embeddings,
            affines=paths.affines, output=out, embedding_dim=8,
        ))
        assert summary.frames == 20
        assert summary.records > 0
        assert summary.tracks_created >= 5
        assert summary.wall_seconds > 0.0
        lines, stats = parse_mot_lines(out)
        assert stats.malformed == 0
        assert len(lines) == summary.records
        keys = list(zip(lines.frames.tolist(), lines.ids.tolist()))
        assert keys == sorted(keys)

    def test_runs_without_affine_sidecar(self, tmp_path):
        paths = scenario_inputs(tmp_path)
        out = str(tmp_path / "results.txt")
        summary = run_tracking(RunConfig(
            detections=paths.detections, embeddings=paths.embeddings,
            affines=None, output=out, embedding_dim=8,
        ))
        assert summary.frames == 20 and os.path.exists(out)

    def test_disabling_motion_compensation_ignores_transform(
            self, tmp_path, monkeypatch, caplog):
        """With DMP off no camera motion reaches the tracker and the sidecar
        is never opened: the results have the same bytes with no sidecar, a
        good one, a broken one and an absent one, with no sidecar warning;
        the good sidecar changes them with DMP on."""
        paths = generate_scenario(ScenarioConfig(
            seed=5, n_objects=8, n_frames=20, world_extent=400.0,
            camera_script=(translate(8.0, -3.0, 10), rotate(0.03, 10)),
            detection_noise_sigma=0.5, miss_prob=0.02, false_positive_rate=0.2,
            embedding_dim=8,
        ), str(tmp_path / "data"))

        def results(name, **settings):
            out = str(tmp_path / name)
            run_tracking(RunConfig(detections=paths.detections, embeddings=paths.embeddings,
                                   output=out, embedding_dim=8, **settings))
            with open(out, "rb") as fh:
                return fh.read()

        broken = tmp_path / "bad.csv"
        broken.write_text("2,1,0,x\n")
        off = results("off.txt", use_dmp=False)
        with monkeypatch.context() as m, caplog.at_level(logging.INFO, "drone_assoc"):
            m.setattr(pipeline, "parse_affines", None)  # any call would fail
            for name, sidecar in (("good", paths.affines), ("broken", str(broken)),
                                  ("absent", str(tmp_path / "absent.csv"))):
                assert results(f"off-{name}.txt", use_dmp=False, affines=sidecar) == off
        assert not [r for r in caplog.records if "sidecar" in r.getMessage()]
        assert results("on-sidecar.txt", affines=paths.affines) != off

    def test_gap_frames_are_fed_as_empty(self, tmp_path):
        det_path = tmp_path / "det.txt"
        det_path.write_text(
            "1,1,0,0,10,10,0.9,1,1.0\n"
            "4,1,3,0,10,10,0.9,1,1.0\n"
        )
        out = str(tmp_path / "results.txt")
        summary = run_tracking(RunConfig(
            detections=str(det_path), output=out, affines="absent.csv",
        ))
        assert summary.frames == 4  # frames 2 and 3 ran with no detections
        lines, _ = parse_mot_lines(out)
        frames = set(lines.frames.tolist())
        assert frames == {1, 4}  # the track survives the gap and re-emits


class TestAblation:
    SCENARIO = ScenarioConfig(
        seed=5, n_objects=6, n_frames=15, world_extent=300.0,
        object_speed_range=(0.5, 1.0),
        camera_script=(translate(6.0, 2.0, 8), rotate(0.03, 7)),
        detection_noise_sigma=0.5, miss_prob=0.05, false_positive_rate=0.3,
        embedding_dim=8,
    )

    def test_unknown_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_ablation(ScenarioConfig(n_objects=2, n_frames=5),
                         str(tmp_path), cells=("fancy",))

    def test_repeated_cell_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ablation cell 'full' appears twice"):
            run_ablation(ScenarioConfig(n_objects=2, n_frames=5),
                         str(tmp_path / "abl"), cells=("full", "dmp", "full"))
        assert not (tmp_path / "abl").exists()

    def test_cell_toggle_matrix(self):
        base = RunConfig()
        cells = {label: dataclasses.replace(base, **overrides)
                 for label, overrides in ABLATION_CELLS.items()}
        assert cells["baseline"].use_dmp is False
        assert cells["baseline"].use_afs is False
        assert cells["baseline"].w_r == 0.0
        assert cells["dmp"].use_dmp is True
        assert cells["dmp"].use_afs is False
        assert cells["afs"].use_afs is True
        assert cells["afs"].use_dmp is False
        assert cells["afs"].w_r == 0.0
        assert cells["full"] == base

    def test_single_cell_run_writes_reports(self, tmp_path):
        scenario = ScenarioConfig(
            seed=5, n_objects=4, n_frames=15, world_extent=300.0,
            object_speed_range=(0.5, 1.0), detection_noise_sigma=0.5,
            embedding_dim=8,
        )
        rows = run_ablation(scenario, str(tmp_path / "abl"), cells=("full",))
        assert [label for label, _ in rows] == ["full"]
        assert rows[0].__class__ is tuple
        report = rows[0][1]
        assert 0.0 <= report.motp <= 1.0
        assert report.gt_total == 4 * 15
        out_dir = tmp_path / "abl"
        assert (out_dir / "ablation.txt").exists()
        assert (out_dir / "ablation.csv").exists()
        assert (out_dir / "results_full.txt").exists()
        assert (out_dir / "data" / "gt.txt").exists()
        table = (out_dir / "ablation.txt").read_text()
        assert table.splitlines()[0].startswith("run")
        csv = (out_dir / "ablation.csv").read_text()
        assert csv.startswith("label,mota,")
        assert csv.splitlines()[1].startswith("full,")

    def test_matches_one_run_tracking_per_cell(self, tmp_path):
        """The ablation as it was: one run_tracking per cell over the
        generated files, evaluated from the results files."""
        out_dir = tmp_path / "abl"
        run_ablation(self.SCENARIO, str(out_dir))
        data = out_dir / "data"
        gt = parse_mot_lines(str(data / "gt.txt"))[0]
        rows = []
        for label in ABLATION_CELLS:
            out = str(tmp_path / f"ref_{label}.txt")
            run_tracking(RunConfig(
                detections=str(data / "det.txt"),
                embeddings=str(data / "embeddings.bin"),
                affines=str(data / "affines.csv"),
                output=out,
                embedding_dim=self.SCENARIO.embedding_dim,
                seed=self.SCENARIO.seed,
                **ABLATION_CELLS[label],
            ))
            with open(out, "rb") as fh:
                assert (out_dir / f"results_{label}.txt").read_bytes() == fh.read(), label
            rows.append((label, evaluate(gt, parse_mot_lines(out)[0])))
        assert (out_dir / "ablation.txt").read_text() == report_table(rows) + "\n"
        assert (out_dir / "ablation.csv").read_text() == report_csv(rows)

    def test_parses_the_detections_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return parse_detections(*args, **kwargs)

        monkeypatch.setattr(pipeline, "parse_detections", counted)
        run_ablation(self.SCENARIO, str(tmp_path / "abl"))
        assert len(calls) == 1

    def test_cells_leave_the_shared_frames_unwritten(self, tmp_path, monkeypatch):
        def read_only(*args, **kwargs):
            frames = parse_detections(*args, **kwargs)
            for fd in frames:
                for a in (fd.boxes, fd.scores, fd.classes, fd.embeddings):
                    a.setflags(write=False)
            return frames

        monkeypatch.setattr(pipeline, "parse_detections", read_only)
        rows = run_ablation(self.SCENARIO, str(tmp_path / "abl"), cells=("dmp", "full"))
        assert [label for label, _ in rows] == ["dmp", "full"]
        for label in ("dmp", "full"):
            assert (tmp_path / "abl" / f"results_{label}.txt").stat().st_size > 0

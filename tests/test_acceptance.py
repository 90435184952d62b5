"""Release gate: one test per acceptance criterion.

Run with -v to read the checklist; each test also prints a PASS line
carrying the measured numbers so a -s run doubles as a report.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    box_measurement,
    mot_table,
    textbook_init,
    textbook_predict,
    textbook_update,
)
from drone_assoc.appearance import adaptive_alpha
from drone_assoc.association import Tracker, linear_assignment
from drone_assoc.cli import main
from drone_assoc.core import BoundingBox
from drone_assoc.metrics import evaluate
from drone_assoc.mot_io import (
    MotLine,
    RunConfig,
    parse_detections,
    parse_mot_lines,
)
from drone_assoc.motion import (
    kalman_init,
    kalman_predict,
    kalman_update,
    rotation_cost,
    rotation_descriptor,
)
from drone_assoc.pipeline import camera_source, run_ablation, run_tracking, track_frames
from drone_assoc.simulator import (
    ScenarioConfig,
    generate_scenario,
    hover,
    rotate,
    save_scenario_config,
    standard_ablation_scenario,
    translate,
)


@pytest.fixture(scope="module")
def standard_paths(tmp_path_factory):
    """The standard 20-object, 600-frame scenario, generated once."""
    out = tmp_path_factory.mktemp("standard42")
    return generate_scenario(standard_ablation_scenario(), str(out))


_PERM_CACHE: dict = {}


def _perm_array(m: int, n: int) -> np.ndarray:
    key = (m, n)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(
            list(itertools.permutations(range(m), n)), dtype=np.intp
        ).reshape(-1, n)
    return _PERM_CACHE[key]


def _exhaustive_best(cost: np.ndarray) -> tuple[int, float]:
    """Best (match count, finite total) over every injective assignment.

    Maximum matches first, then minimum summed cost, found by scoring
    each permutation as infeasible_count * 1e6 + finite_total. Totals
    stay below 7 so the two orderings cannot interfere.
    """
    n, m = cost.shape
    if n > m:
        return _exhaustive_best(cost.T)
    perms = _perm_array(m, n)
    vals = cost[np.arange(n)[None, :], perms]
    bad = np.isinf(vals).sum(axis=1)
    tot = np.where(np.isinf(vals), 0.0, vals).sum(axis=1)
    i = int(np.argmin(bad * 1e6 + tot))
    return n - int(bad[i]), float(tot[i])


def test_criterion_01_assignment_matches_exhaustive_search():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(0.0, 1.0, (n, m))
        cost[rng.uniform(size=(n, m)) < 0.25] = np.inf
        result = linear_assignment(cost)
        count, total = _exhaustive_best(cost)
        got = sum(cost[r, c] for r, c in result.matches)
        if len(result.matches) != count or abs(got - total) > 1e-9:
            mismatches += 1
    wall = time.perf_counter() - start
    assert mismatches == 0
    assert wall < 10.0
    print(f"PASS criterion 1: 1000 random matrices up to 7x7, "
          f"0 mismatches, {wall:.2f}s")


def _random_box(rng: np.random.Generator) -> BoundingBox:
    h = rng.uniform(5.0, 50.0)
    w = h * rng.uniform(0.5, 2.0)
    cx, cy = rng.uniform(0.0, 200.0, 2)
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def test_criterion_02_kalman_matches_textbook_recursion():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        first = _random_box(rng)
        state = kalman_init(first)
        mean, cov = textbook_init(box_measurement(first))
        for _ in range(100):
            state = kalman_predict(state)
            mean, cov = textbook_predict(mean, cov)
            worst = max(
                worst,
                float(np.max(np.abs(state.mean - mean))),
                float(np.max(np.abs(state.covariance - cov))),
            )
            box = _random_box(rng)
            state = kalman_update(state, box)
            mean, cov = textbook_update(mean, cov, box_measurement(box))
            worst = max(
                worst,
                float(np.max(np.abs(state.mean - mean))),
                float(np.max(np.abs(state.covariance - cov))),
            )
    assert worst <= 1e-9
    print(f"PASS criterion 2: 100 seeds x 100 steps, "
          f"max deviation {worst:.3e}")


def test_criterion_03_adaptive_alpha_closed_form():
    for theta in (0.3, 0.6, 0.75):
        assert adaptive_alpha(theta, theta, 0.9) == 1.0
    expected = 0.9 + 0.1 * np.exp(-0.4)
    assert adaptive_alpha(1.0, 0.6, 0.9) == pytest.approx(expected, abs=1e-12)
    grid = np.linspace(0.0, 1.0, 1000)
    values = np.array([adaptive_alpha(s, 0.6, 0.9) for s in grid])
    assert np.all(np.diff(values) <= 0.0)
    print("PASS criterion 3: exact at the threshold, closed form to 1e-12, "
          "non-increasing over a 1000-point grid")


def _random_star(rng: np.random.Generator):
    """A subject plus 3..8 neighbors drawn inside the descriptor radius."""
    while True:
        subject = rng.uniform(-200.0, 200.0, 2)
        k = int(rng.integers(3, 9))
        ang = rng.uniform(0.0, 2.0 * np.pi, k)
        rad = rng.uniform(5.0, 90.0, k)
        neighbors = subject + np.column_stack(
            [rad * np.cos(ang), rad * np.sin(ang)]
        )
        desc = rotation_descriptor(
            tuple(subject), [tuple(p) for p in neighbors], 100.0
        )
        if desc is not None:
            return subject, neighbors, desc


def test_criterion_04_descriptor_rigid_invariance():
    rng = np.random.default_rng(123)
    worst_diff = 0.0
    worst_cost = 0.0
    for _ in range(1000):
        subject, neighbors, desc = _random_star(rng)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        shift = rng.uniform(-500.0, 500.0, 2)
        moved = rotation_descriptor(
            tuple(rot @ subject + shift),
            [tuple(p) for p in neighbors @ rot.T + shift],
            100.0,
        )
        assert moved is not None
        worst_diff = max(worst_diff, float(np.max(np.abs(desc - moved))))
        worst_cost = max(worst_cost, rotation_cost(desc, moved))
    assert worst_diff <= 1e-9
    assert worst_cost <= 1e-9
    print(f"PASS criterion 4: 1000 rigid moves, max component diff "
          f"{worst_diff:.3e}, max cost {worst_cost:.3e}")


def _straight_run(obj_id: int, x0: float, frames: int) -> list[MotLine]:
    return [
        MotLine(f, obj_id, BoundingBox(x0 + 2.0 * (f - 1), 0.0, 10.0, 10.0),
                1.0, 1)
        for f in range(1, frames + 1)
    ]


def test_criterion_05_metric_self_consistency(standard_paths):
    gt = parse_mot_lines(standard_paths.gt)[0]
    perfect = evaluate(gt, gt)
    assert perfect.mota == 1.0
    assert perfect.idf1 == 1.0
    assert perfect.fp == 0 and perfect.fn == 0
    assert perfect.id_switches == 0

    truth = _straight_run(1, 0.0, 10) + _straight_run(2, 100.0, 10)
    swapped = [
        replace(line, obj_id=(line.obj_id % 2) + 1) if line.frame >= 6 else line
        for line in truth
    ]
    # 20 gt boxes, 2 switches at frame 6, only 10 of 20 ids agree:
    # mota = 1 - 2/20 = 0.9, idf1 = 2*10 / (2*10 + 10 + 10) = 0.5
    report = evaluate(mot_table(truth), mot_table(swapped))
    assert report.id_switches == 2
    assert report.mota == pytest.approx(0.9, abs=1e-12)
    assert report.idf1 == pytest.approx(0.5, abs=1e-12)
    print("PASS criterion 5: standard scenario self-evaluates perfectly, "
          "swap micro-scenario gives ids=2 mota=0.9 idf1=0.5")


def test_criterion_06_noiseless_hover_tracks_perfectly(tmp_path):
    cfg = replace(
        standard_ablation_scenario(),
        camera_script=(hover(600),),
        detection_noise_sigma=0.0,
        miss_prob=0.0,
        false_positive_rate=0.0,
        occlusion_events=(),
    )
    paths = generate_scenario(cfg, str(tmp_path / "clean"))
    out = str(tmp_path / "results.txt")
    run_tracking(RunConfig(
        detections=paths.detections,
        embeddings=paths.embeddings,
        affines=paths.affines,
        output=out,
        embedding_dim=cfg.embedding_dim,
    ))
    report = evaluate(parse_mot_lines(paths.gt)[0], parse_mot_lines(out)[0])
    assert report.mota == 1.0
    assert report.id_switches == 0
    print("PASS criterion 6: zero-noise hover run scores mota=1.0 "
          "with 0 switches")


def test_criterion_07_ablation_recovers_component_benefits(tmp_path):
    start = time.perf_counter()
    dmp_cuts_switches = 0
    full_lifts_idf1 = 0
    full_at_most_dmp = 0
    for seed in range(42, 48):
        rows = dict(run_ablation(
            standard_ablation_scenario(seed),
            str(tmp_path / f"seed{seed}"),
            cells=("baseline", "dmp", "full"),
        ))
        if rows["dmp"].id_switches < rows["baseline"].id_switches:
            dmp_cuts_switches += 1
        if rows["full"].idf1 > rows["baseline"].idf1:
            full_lifts_idf1 += 1
        if rows["full"].id_switches <= rows["dmp"].id_switches:
            full_at_most_dmp += 1
    wall = time.perf_counter() - start
    assert dmp_cuts_switches >= 5
    assert full_lifts_idf1 >= 5
    assert full_at_most_dmp >= 4
    assert wall < 120.0
    print(f"PASS criterion 7: seeds 42..47, dmp cuts switches in "
          f"{dmp_cuts_switches}/6, full lifts idf1 in {full_lifts_idf1}/6, "
          f"full <= dmp switches in {full_at_most_dmp}/6, {wall:.1f}s")


def test_criterion_08_affine_warp_raises_matched_iou(standard_paths, tmp_path):
    # translate phase of the standard script: frames 101..300
    frames = parse_detections(standard_paths.detections, standard_paths.embeddings, 32,
                              min_score=RunConfig().theta_low)

    def stage1_ious(affines_path: str) -> dict[int, float]:
        cfg = RunConfig(affines=affines_path, embedding_dim=32)
        tracker = Tracker(cfg.tracker_config())
        camera = camera_source(cfg)
        means: dict[int, float] = {}
        for _ in track_frames(frames, camera, tracker):
            stats = tracker.last_stats
            if 101 <= stats.frame <= 300 and stats.stage1_ious:
                means[stats.frame] = sum(stats.stage1_ious, 0.0) / len(stats.stage1_ious)
        return means

    warped = stage1_ious(standard_paths.affines)
    # a missing sidecar degrades to the identity warp on every frame
    flat = stage1_ious(str(tmp_path / "no_affines.csv"))
    common = sorted(set(warped) & set(flat))
    assert len(common) > 100
    diffs = np.array([warped[t] - flat[t] for t in common])
    warp_mean = float(np.mean([warped[t] for t in common]))
    flat_mean = float(np.mean([flat[t] for t in common]))
    assert diffs.mean() > 0.0
    assert warp_mean > flat_mean
    print(f"PASS criterion 8: translate-phase stage-1 IoU {warp_mean:.4f} "
          f"warped vs {flat_mean:.4f} without, paired over "
          f"{len(common)} frames")


def test_criterion_09_reruns_are_byte_identical(standard_paths, tmp_path):
    scenario = ScenarioConfig(
        seed=9,
        n_objects=8,
        n_frames=60,
        world_extent=400.0,
        camera_script=(hover(10), translate(2.0, 0.5, 20),
                       rotate(0.03, 20), hover(10)),
        detection_noise_sigma=1.0,
        miss_prob=0.05,
        false_positive_rate=0.3,
        embedding_dim=16,
    )
    cfg_path = str(tmp_path / "scenario.cfg")
    save_scenario_config(scenario, cfg_path)
    for d in ("sim_a", "sim_b"):
        assert main(["simulate", "--config", cfg_path,
                     "--out", str(tmp_path / d)]) == 0
    names_a = sorted(os.listdir(tmp_path / "sim_a"))
    names_b = sorted(os.listdir(tmp_path / "sim_b"))
    assert names_a == names_b and len(names_a) == 5
    for name in names_a:
        a = (tmp_path / "sim_a" / name).read_bytes()
        b = (tmp_path / "sim_b" / name).read_bytes()
        assert a == b, f"simulate rerun differs in {name}"

    run_cfg = str(tmp_path / "run.cfg")
    with open(run_cfg, "w") as fh:
        fh.write("embedding_dim = 32\n")
    outs = [str(tmp_path / f"track_{tag}.txt") for tag in "ab"]
    for out in outs:
        code = main([
            "track", "--config", run_cfg,
            "--detections", standard_paths.detections,
            "--embeddings", standard_paths.embeddings,
            "--affines", standard_paths.affines,
            "--output", out,
        ])
        assert code == 0
    with open(outs[0], "rb") as fa, open(outs[1], "rb") as fb:
        assert fa.read() == fb.read()
    print("PASS criterion 9: simulate and track reruns are byte-identical")


def test_criterion_10_standard_scenario_tracks_in_under_one_second(
        standard_paths, tmp_path):
    summary = run_tracking(RunConfig(
        detections=standard_paths.detections,
        embeddings=standard_paths.embeddings,
        affines=standard_paths.affines,
        output=str(tmp_path / "results.txt"),
        embedding_dim=32,
    ))
    assert summary.frames == 600
    assert summary.wall_seconds < 1.0
    print(f"PASS criterion 10: 600 frames tracked in "
          f"{summary.wall_seconds:.3f}s")

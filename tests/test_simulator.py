"""Synthetic scenario generator: geometry, noise model, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from drone_assoc.mot_io import FormatError, parse_embeddings
from drone_assoc.simulator import (
    CameraPhase,
    OcclusionEvent,
    ScenarioConfig,
    ScoreModel,
    generate_scenario,
    hover,
    load_scenario_config,
    rotate,
    save_scenario_config,
    simulate,
    standard_ablation_scenario,
    translate,
)


def quiet_config(**overrides):
    """Small noiseless hover scenario; overrides tweak single fields."""
    base = ScenarioConfig(
        seed=3,
        n_objects=4,
        n_frames=12,
        world_extent=400.0,
        object_speed_range=(0.5, 1.5),
        detection_noise_sigma=0.0,
        miss_prob=0.0,
        false_positive_rate=0.0,
        embedding_dim=8,
    )
    return dataclasses.replace(base, **overrides)


def by_frame(lines):
    out = {}
    for ln in lines:
        out.setdefault(ln.frame, []).append(ln)
    return out


class TestGeometry:
    def test_noiseless_hover_detections_equal_ground_truth(self):
        res = simulate(quiet_config())
        gt = by_frame(res.gt)
        det = by_frame(res.detections)
        assert set(gt) == set(det) == set(range(1, 13))
        for frame in gt:
            assert len(gt[frame]) == len(det[frame]) == 4
            for g, d in zip(gt[frame], det[frame]):
                assert np.allclose(d.bbox.as_array(), g.bbox.as_array(),
                                   atol=1e-9)
                assert d.class_id == g.class_id

    def test_hover_affines_are_identity_for_every_later_frame(self):
        res = simulate(quiet_config())
        assert sorted(res.affines) == list(range(2, 13))
        for m in res.affines.values():
            assert np.array_equal(m.m, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_translate_phase_records_exact_shift(self):
        cfg = quiet_config(camera_script=(hover(4), translate(5.0, 0.0, 8)))
        res = simulate(cfg)
        for frame in range(2, 5):
            assert np.array_equal(res.affines[frame].m,
                                  np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        for frame in range(5, 13):
            assert np.array_equal(res.affines[frame].m,
                                  np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0]]))

    def test_rotate_phase_fixes_view_midpoint(self):
        cfg = quiet_config(camera_script=(rotate(0.05, 12),))
        res = simulate(cfg)
        mid = np.array([200.0, 200.0])
        for m in res.affines.values():
            assert np.allclose(m.apply_points(mid[None, :])[0], mid, atol=1e-9)
            assert m.det() == pytest.approx(1.0, abs=1e-12)
            assert m.m[0, 0] == pytest.approx(math.cos(0.05), abs=1e-12)

    def test_affine_chain_predicts_next_frame_centers(self):
        cfg = quiet_config(camera_script=(translate(3.0, -2.0, 6), rotate(0.04, 6)))
        res = simulate(cfg)
        gt = by_frame(res.gt)
        for frame in range(1, 12):
            cur = np.array([[ln.bbox.x + ln.bbox.w / 2.0,
                             ln.bbox.y + ln.bbox.h / 2.0] for ln in gt[frame]])
            nxt = np.array([[ln.bbox.x + ln.bbox.w / 2.0,
                             ln.bbox.y + ln.bbox.h / 2.0] for ln in gt[frame + 1]])
            warped = res.affines[frame + 1].apply_points(cur)
            # objects also move on their own: small speeds plus jitter
            assert np.max(np.linalg.norm(warped - nxt, axis=1)) < 2.5

    def test_rotated_hull_extent_follows_closed_form(self):
        cfg = quiet_config(camera_script=(rotate(0.3, 12),))
        res = simulate(cfg)
        gt = by_frame(res.gt)
        first = {ln.obj_id: ln.bbox for ln in gt[1]}
        later = {ln.obj_id: ln.bbox for ln in gt[6]}
        phi = 5 * 0.3  # five rotation steps separate frames 1 and 6
        for i, b in first.items():
            expect_w = b.w * abs(math.cos(phi)) + b.h * abs(math.sin(phi))
            expect_h = b.w * abs(math.sin(phi)) + b.h * abs(math.cos(phi))
            assert later[i].w == pytest.approx(expect_w, abs=1e-9)
            assert later[i].h == pytest.approx(expect_h, abs=1e-9)

    def test_ground_truth_covers_every_object_every_frame(self):
        res = simulate(quiet_config(miss_prob=0.5, seed=9))
        gt = by_frame(res.gt)
        for frame in range(1, 13):
            assert sorted(ln.obj_id for ln in gt[frame]) == [1, 2, 3, 4]


class TestNoiseModel:
    def test_occlusion_window_drops_exactly_that_object(self):
        # object index 1 carries obj_id 2, the only class-2 object here
        cfg = quiet_config(occlusion_events=(OcclusionEvent(1, 4, 3),))
        res = simulate(cfg)
        det = by_frame(res.detections)
        for frame in range(1, 13):
            class2 = [d for d in det[frame] if d.class_id == 2]
            if frame in (4, 5, 6):
                assert len(det[frame]) == 3 and class2 == []
            else:
                assert len(det[frame]) == 4 and len(class2) == 1

    def test_certain_miss_leaves_full_ground_truth(self):
        res = simulate(quiet_config(miss_prob=1.0))
        assert res.detections == []
        assert res.embeddings == []
        assert len(res.gt) == 4 * 12

    def test_false_positives_have_sane_fields(self):
        res = simulate(quiet_config(n_objects=0, false_positive_rate=3.0))
        assert res.gt == []
        assert len(res.detections) > 10
        for ln in res.detections:
            assert 0.0 <= ln.score <= 1.0
            assert ln.class_id in (1, 2, 3)
            assert ln.bbox.w > 0 and ln.bbox.h > 0

    def test_noise_perturbs_detections(self):
        res = simulate(quiet_config(detection_noise_sigma=2.0))
        gt = by_frame(res.gt)
        det = by_frame(res.detections)
        deltas = [abs(d.bbox.x - g.bbox.x)
                  for f in gt for g, d in zip(gt[f], det[f])]
        assert max(deltas) > 0.5

    def test_embeddings_drift_with_camera_rotation(self):
        cfg = quiet_config(camera_script=(hover(2), rotate(0.2, 10)),
                           view_drift_rate=1.0, embedding_dim=16)
        res = simulate(cfg)
        first = {o: v for f, o, v in res.embeddings if f == 1}
        last = {o: v for f, o, v in res.embeddings if f == 12}
        sims = [float(first[o] @ last[o]) for o in first]
        # two rad of accumulated rotation moves features far off their start
        assert max(sims) < 0.9

    def test_embeddings_stable_without_rotation(self):
        res = simulate(quiet_config(embedding_dim=16))
        first = {o: v for f, o, v in res.embeddings if f == 1}
        last = {o: v for f, o, v in res.embeddings if f == 12}
        sims = [float(first[o] @ last[o]) for o in first]
        assert min(sims) > 0.95  # only the small per-frame noise remains


class TestDeterminism:
    def test_simulate_is_reproducible_in_memory(self):
        a = simulate(quiet_config(detection_noise_sigma=1.0, miss_prob=0.1,
                                  false_positive_rate=0.5))
        b = simulate(quiet_config(detection_noise_sigma=1.0, miss_prob=0.1,
                                  false_positive_rate=0.5))
        assert a.gt == b.gt
        assert a.detections == b.detections
        assert len(a.embeddings) == len(b.embeddings)
        for (f1, o1, v1), (f2, o2, v2) in zip(a.embeddings, b.embeddings):
            assert (f1, o1) == (f2, o2)
            assert np.array_equal(v1, v2)
        assert set(a.affines) == set(b.affines)

    def test_generated_files_are_byte_identical(self, tmp_path):
        cfg = quiet_config(detection_noise_sigma=1.0, miss_prob=0.1,
                           false_positive_rate=0.5,
                           camera_script=(hover(2), translate(1.0, 0.5, 10),))
        p1 = generate_scenario(cfg, str(tmp_path / "a"))
        p2 = generate_scenario(cfg, str(tmp_path / "b"))
        for name in ("gt", "detections", "embeddings", "affines", "config"):
            with open(getattr(p1, name), "rb") as fh:
                one = fh.read()
            with open(getattr(p2, name), "rb") as fh:
                two = fh.read()
            assert one == two, f"{name} files differ between identical runs"

    def test_different_seeds_differ(self):
        a = simulate(quiet_config(seed=1, detection_noise_sigma=1.0))
        b = simulate(quiet_config(seed=2, detection_noise_sigma=1.0))
        assert a.gt != b.gt

    def test_header_names_seed_and_rng(self, tmp_path):
        paths = generate_scenario(quiet_config(seed=42), str(tmp_path))
        first = open(paths.gt, "r", encoding="utf-8").readline()
        assert first == "# synthetic scenario seed=42 rng=numpy-pcg64\n"

    def test_sidecar_loads_back(self, tmp_path):
        paths = generate_scenario(quiet_config(), str(tmp_path))
        keys, vectors = parse_embeddings(paths.embeddings, 8)
        assert len(keys) == 4 * 12
        for v in vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)


class TestConfigValidation:
    def test_script_must_cover_all_frames(self):
        with pytest.raises(ValueError):
            quiet_config(camera_script=(hover(5),))

    def test_bad_phase_kind_rejected(self):
        with pytest.raises(ValueError):
            CameraPhase("zoom", 10)

    def test_occlusion_of_missing_object_rejected(self):
        with pytest.raises(ValueError):
            quiet_config(occlusion_events=(OcclusionEvent(17, 2, 2),))

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            quiet_config(miss_prob=1.5)
        with pytest.raises(ValueError):
            quiet_config(false_positive_rate=-0.1)
        with pytest.raises(ValueError):
            quiet_config(detection_noise_sigma=-1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            quiet_config(seed=-1)
        assert quiet_config(seed=0).seed == 0

    def test_speed_range_ordering_enforced(self):
        with pytest.raises(ValueError):
            quiet_config(object_speed_range=(3.0, 0.5))

    @pytest.mark.parametrize("field, value", [
        ("world_extent", math.inf),           # overflowed inside simulate
        ("view_drift_rate", math.nan),        # wrote NaN embeddings
        ("detection_noise_sigma", math.nan),  # failed on a NaN box inside simulate
        ("false_positive_rate", math.inf),
        ("object_speed_range", (0.5, math.inf)),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            quiet_config(**{field: value})

    @pytest.mark.parametrize("field", ["vx", "vy", "omega"])
    def test_non_finite_camera_phase_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CameraPhase("translate", 5, **{field: math.inf})

    @pytest.mark.parametrize("field", ["mean_hit", "sigma_hit", "mean_fp", "sigma_fp"])
    def test_non_finite_score_model_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScoreModel(**{field: math.nan})

    def test_negative_score_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigmas"):
            ScoreModel(sigma_fp=-0.1)


ROUND_TRIP_CONFIGS = {
    "all-fields": ScenarioConfig(
        seed=11,
        n_objects=6,
        n_frames=30,
        world_extent=512.0,
        object_speed_range=(0.25, 2.75),
        camera_script=(hover(10), translate(1.5, -0.5, 10), rotate(0.01, 10)),
        detection_noise_sigma=1.25,
        miss_prob=0.05,
        false_positive_rate=0.75,
        score_model=ScoreModel(0.8, 0.1, 0.3, 0.15),
        embedding_dim=16,
        view_drift_rate=0.4,
        occlusion_events=(OcclusionEvent(2, 5, 4),),
    ),
    "empty-script-and-events": quiet_config(),
    "every-phase-kind-twice": quiet_config(
        n_frames=60,
        camera_script=(rotate(-0.03, 10), hover(10), translate(0.1, 1e-9, 10),
                       hover(5), translate(-8.0, 3.0, 5), rotate(1 / 3, 20)),
        occlusion_events=(OcclusionEvent(0, 1, 1), OcclusionEvent(3, 7, 50)),
    ),
    "integer-speed-range": quiet_config(object_speed_range=(1, 2)),
    "standard": standard_ablation_scenario(),
    "defaults": ScenarioConfig(),
}


class TestScenarioConfigFiles:
    @pytest.mark.parametrize("name", ROUND_TRIP_CONFIGS)
    def test_round_trip_equality(self, tmp_path, name):
        cfg = ROUND_TRIP_CONFIGS[name]
        path = str(tmp_path / "scenario.txt")
        save_scenario_config(cfg, path)
        assert load_scenario_config(path) == cfg

    def test_written_text_of_the_standard_scenario(self, tmp_path):
        path = tmp_path / "scenario.txt"
        save_scenario_config(standard_ablation_scenario(42), str(path))
        assert path.read_text() == (
            "# scenario config, rng=numpy-pcg64\n"
            "seed = 42\n"
            "n_objects = 20\n"
            "n_frames = 600\n"
            "world_extent = 1000.0\n"
            "object_speed_range = 0.5,3.0\n"
            "camera_script = hover:100;translate:4.0:1.0:200;rotate:0.02:150;hover:150\n"
            "detection_noise_sigma = 1.5\n"
            "miss_prob = 0.08\n"
            "false_positive_rate = 0.5\n"
            "score_model = 0.85,0.08,0.35,0.12\n"
            "embedding_dim = 32\n"
            "view_drift_rate = 0.3\n"
            "occlusion_events = 3:150:25;7:330:25\n"
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("altitude = 120\n")
        with pytest.raises(FormatError):
            load_scenario_config(str(path))

    def test_bad_phase_string_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("n_frames = 10\ncamera_script = spiral:10\n")
        with pytest.raises(FormatError):
            load_scenario_config(str(path))

    def test_invalid_config_value_rejected(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("miss_prob = 2.0\n")
        with pytest.raises(FormatError):
            load_scenario_config(str(path))

    def test_non_finite_camera_phase_names_its_key(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("n_frames = 10\ncamera_script = translate:inf:0:10\n")
        with pytest.raises(FormatError, match="'camera_script'.*vx must be finite"):
            load_scenario_config(str(path))

    @pytest.mark.parametrize("line", [
        "score_model = 0.8,0.1,0.3",
        "score_model = 0.8,0.1,0.3,0.1,0.2",
        "object_speed_range = 1,2,3",
        "object_speed_range = 1",
        "camera_script = rotate:0.1",
        "camera_script = translate:1:10",
        "camera_script = hover:5;hover",
        "occlusion_events = 1:2",
        "occlusion_events = 1:2:3;1:2:3:4",
    ])
    def test_wrong_count_of_values_names_its_key(self, tmp_path, line):
        key, _, value = line.partition(" = ")
        path = tmp_path / "scenario.txt"
        path.write_text(f"n_frames = 10\n{line}\n")
        with pytest.raises(FormatError) as exc:
            load_scenario_config(str(path))
        assert str(exc.value).startswith(f"{path}: bad value for {key!r}: {value!r}: ")

    def test_negative_seed_names_its_key(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("seed = -1\n")
        with pytest.raises(FormatError, match="scenario.txt: seed must be >= 0"):
            load_scenario_config(str(path))


class TestStandardScenario:
    def test_shape_of_the_benchmark(self):
        cfg = standard_ablation_scenario()
        assert cfg.seed == 42
        assert cfg.n_objects == 20 and cfg.n_frames == 600
        assert sum(p.duration for p in cfg.camera_script) == 600
        kinds = [p.kind for p in cfg.camera_script]
        assert kinds == ["hover", "translate", "rotate", "hover"]
        assert len(cfg.occlusion_events) == 2

    def test_seed_flows_through(self):
        assert standard_ablation_scenario(7).seed == 7

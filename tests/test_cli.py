"""Command-line interface: argument handling, exit codes, output text."""

import dataclasses
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drone_assoc
from drone_assoc import cli
from drone_assoc.cli import main
from drone_assoc.pipeline import RunSummary
from drone_assoc.simulator import (
    ScenarioConfig,
    generate_scenario,
    rotate,
    save_scenario_config,
    translate,
)


@pytest.fixture(scope="module")
def tiny_scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    cfg = ScenarioConfig(
        seed=5, n_objects=4, n_frames=10, world_extent=300.0,
        object_speed_range=(0.5, 1.0), detection_noise_sigma=0.5,
        embedding_dim=128,
    )
    return cfg, generate_scenario(cfg, str(root))


class TestSimulateCommand:
    def test_generates_files(self, tmp_path):
        cfg_path = str(tmp_path / "scenario.txt")
        save_scenario_config(ScenarioConfig(
            seed=2, n_objects=3, n_frames=6, world_extent=200.0,
            object_speed_range=(0.5, 1.0), embedding_dim=4,
        ), cfg_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        for name in ("gt.txt", "det.txt", "embeddings.bin", "affines.csv",
                     "scenario.txt"):
            assert (out / name).exists()

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", "whatever.txt"])
        assert exc.value.code == 2

    def test_broken_config_exits_two(self, tmp_path):
        cfg_path = tmp_path / "scenario.txt"
        cfg_path.write_text("altitude = high\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--out",
                  str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_infinite_world_extent_exits_two_naming_the_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.txt"
        cfg_path.write_text("n_frames = 10\nworld_extent = inf\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--out",
                  str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "world_extent must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_exits_two_before_writing(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.txt"
        cfg_path.write_text("seed = -1\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg_path), "--out",
                  str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_written_scenario_reproduces_its_files(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        cfg = ScenarioConfig(seed=4, n_objects=5, n_frames=20, world_extent=300.0,
                             camera_script=(translate(3.0, -1.0, 10), rotate(0.02, 10)),
                             detection_noise_sigma=0.5, miss_prob=0.1,
                             false_positive_rate=0.5, embedding_dim=8)
        generate_scenario(cfg, str(first))
        code = main(["simulate", "--config", str(first / "scenario.txt"),
                     "--out", str(again)])
        assert code == 0
        for name in ("gt.txt", "det.txt", "embeddings.bin", "affines.csv",
                     "scenario.txt"):
            assert (again / name).read_bytes() == (first / name).read_bytes()


class TestTrackCommand:
    def test_end_to_end(self, tiny_scenario, tmp_path, capsys):
        _, paths = tiny_scenario
        out = str(tmp_path / "results.txt")
        code = main([
            "track", "--detections", paths.detections,
            "--embeddings", paths.embeddings, "--affines", paths.affines,
            "--output", out,
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("frames=10 ")
        assert f"output={out}" in stdout

    def test_quick_start_uses_the_sidecar_width(self, tmp_path, capsys):
        """The README quick start: a 32-d sidecar and no config file."""
        cfg_path = str(tmp_path / "scenario.txt")
        save_scenario_config(ScenarioConfig(
            seed=7, n_objects=4, n_frames=12, world_extent=300.0,
            object_speed_range=(0.5, 1.0), embedding_dim=32,
        ), cfg_path)
        data = tmp_path / "data"
        assert main(["simulate", "--config", cfg_path, "--out", str(data)]) == 0
        out = str(tmp_path / "results.txt")
        code = main([
            "track", "--detections", str(data / "det.txt"),
            "--embeddings", str(data / "embeddings.bin"),
            "--affines", str(data / "affines.csv"), "--output", out,
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("frames=12 ")

    def test_explicit_sidecar_width_is_checked(self, tiny_scenario, tmp_path):
        _, paths = tiny_scenario
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("embedding_dim = 32\n")
        code = main(["track", "--config", str(cfg_path),
                     "--detections", paths.detections,
                     "--embeddings", paths.embeddings,
                     "--output", str(tmp_path / "r.txt")])
        assert code == 1

    @pytest.mark.parametrize("word", ["None", "NONE", "none"])
    def test_config_path_none_means_no_sidecar(self, tmp_path, word):
        """`affines = None` runs online camera motion, as when the key is
        absent, not a sidecar file named None."""
        paths = generate_scenario(ScenarioConfig(
            seed=3, n_objects=8, n_frames=30, world_extent=400.0,
            object_speed_range=(0.5, 1.0), detection_noise_sigma=0.5,
            camera_script=(translate(12.0, 5.0, 30),), embedding_dim=8,
        ), str(tmp_path / "data"))
        outputs = []
        for name, extra in (("absent", ""), ("word", f"affines = {word}\n")):
            cfg_path = tmp_path / f"{name}.cfg"
            out = tmp_path / f"{name}.txt"
            cfg_path.write_text(f"detections = {paths.detections}\n"
                                f"embeddings = {paths.embeddings}\n"
                                f"output = {out}\n{extra}")
            assert main(["track", "--config", str(cfg_path)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[1] == outputs[0]

    def test_toggles_accepted(self, tiny_scenario, tmp_path):
        _, paths = tiny_scenario
        code = main([
            "track", "--detections", paths.detections,
            "--embeddings", paths.embeddings,
            "--output", str(tmp_path / "results.txt"),
            "--no-afs", "--no-dmp", "--no-rotation", "--w-a", "0.3",
            "--radius", "80", "--theta-high", "0.7",
        ])
        assert code == 0

    def test_rotation_weight_and_no_rotation_exit_two(self, tiny_scenario, tmp_path, capsys):
        _, paths = tiny_scenario
        with pytest.raises(SystemExit) as exc:
            main(["track", "--detections", paths.detections,
                  "--embeddings", paths.embeddings,
                  "--output", str(tmp_path / "results.txt"),
                  "--w-r", "0.3", "--no-rotation"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "results.txt").exists()

    @pytest.mark.parametrize("flag, key, config_value, flag_value", [
        ("--no-afs", "use_afs", "true", False),
        ("--no-dmp", "use_dmp", "true", False),
        ("--no-rotation", "w_r", "0.3", 0.0),
    ])
    def test_no_flag_overrides_the_config_file(
            self, tmp_path, monkeypatch, flag, key, config_value, flag_value):
        """Each --no-* flag sets its RunConfig field over the config file's
        value; without the flag the file's value holds."""
        seen = []

        def run_tracking(cfg):
            seen.append(cfg)
            return RunSummary(0, 0, 0, 0.0)

        monkeypatch.setattr(cli, "run_tracking", run_tracking)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"detections = d.txt\nembeddings = e.bin\n"
                            f"output = r.txt\nw_a = 0.7\n{key} = {config_value}\n")
        assert main(["track", "--config", str(cfg_path)]) == 0
        assert main(["track", "--config", str(cfg_path), flag]) == 0
        from_file, from_flag = seen
        assert getattr(from_flag, key) == flag_value != getattr(from_file, key)
        assert from_flag == dataclasses.replace(from_file, **{key: flag_value})
        assert from_flag.w_a == 0.7

    def test_infinite_cost_weight_exits_two(self, tiny_scenario, tmp_path):
        _, paths = tiny_scenario
        with pytest.raises(SystemExit) as exc:
            main(["track", "--detections", paths.detections,
                  "--embeddings", paths.embeddings,
                  "--output", str(tmp_path / "results.txt"), "--w-a", "inf"])
        assert exc.value.code == 2
        assert not (tmp_path / "results.txt").exists()

    def test_flag_heals_broken_config_file(self, tiny_scenario, tmp_path):
        """Flags are applied on top of the config file."""
        _, paths = tiny_scenario
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("theta_high = 0.9\ntheta_low = 0.95\n")
        with pytest.raises(SystemExit) as exc:  # config alone is contradictory
            main(["track", "--config", str(cfg_path),
                  "--detections", paths.detections,
                  "--embeddings", paths.embeddings,
                  "--output", str(tmp_path / "r1.txt")])
        assert exc.value.code == 2
        code = main(["track", "--config", str(cfg_path), "--theta-low", "0.1",
                     "--detections", paths.detections,
                     "--embeddings", paths.embeddings,
                     "--output", str(tmp_path / "r2.txt")])
        assert code == 0

    def test_flag_can_break_valid_config(self, tiny_scenario, tmp_path):
        _, paths = tiny_scenario
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("theta_high = 0.6\n")
        with pytest.raises(SystemExit) as exc:
            main(["track", "--config", str(cfg_path), "--theta-low", "0.95",
                  "--detections", paths.detections,
                  "--embeddings", paths.embeddings,
                  "--output", str(tmp_path / "r.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed must be >= 0"),
        ("embedding_dim = 0", "embedding_dim must be >= 1"),
    ])
    @pytest.mark.parametrize("sidecar", [False, True])
    def test_out_of_range_setting_exits_two_naming_its_key(
            self, tiny_scenario, tmp_path, capsys, line, message, sidecar):
        _, paths = tiny_scenario
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(line + "\n")
        argv = ["track", "--config", str(cfg_path),
                "--detections", paths.detections, "--embeddings", paths.embeddings,
                "--output", str(tmp_path / "r.txt")]
        with pytest.raises(SystemExit) as exc:
            main(argv + (["--affines", paths.affines] if sidecar else []))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_missing_detections_after_merge_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--output", str(tmp_path / "r.txt"),
                  "--embeddings", "e.bin"])
        assert exc.value.code == 2

    def test_unreadable_detections_file_exits_one(self, tiny_scenario, tmp_path):
        _, paths = tiny_scenario
        code = main(["track", "--detections", str(tmp_path / "absent.txt"),
                     "--embeddings", paths.embeddings,
                     "--output", str(tmp_path / "r.txt")])
        assert code == 1


class TestEvalCommand:
    def test_self_evaluation_prints_full_marks(self, tiny_scenario, capsys):
        _, paths = tiny_scenario
        code = main(["eval", "--gt", paths.gt, "--results", paths.gt])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00%" in out
        assert out.splitlines()[0].split()[:2] == ["run", "MOTA"]
        assert "label,mota," in out  # CSV twin follows the table

    def test_csv_goes_to_file_when_asked(self, tiny_scenario, tmp_path, capsys):
        _, paths = tiny_scenario
        csv_path = tmp_path / "report.csv"
        code = main(["eval", "--gt", paths.gt, "--results", paths.gt,
                     "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.read_text().startswith("label,mota,")
        assert "label,mota," not in capsys.readouterr().out

    def test_bad_threshold_exits_two(self, tiny_scenario):
        _, paths = tiny_scenario
        for value in ("0.0", "1.5"):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--gt", paths.gt, "--results", paths.gt,
                      "--iou-threshold", value])
            assert exc.value.code == 2

    def test_empty_ground_truth_exits_one(self, tiny_scenario, tmp_path, capsys):
        _, paths = tiny_scenario
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        code = main(["eval", "--gt", str(empty), "--results", paths.gt])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAblateCommand:
    def test_unknown_cell_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--out", str(tmp_path), "--cells", "baseline,fancy"])
        assert exc.value.code == 2

    def test_repeated_cell_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--out", str(tmp_path / "abl"), "--cells", "full,full"])
        assert exc.value.code == 2
        assert not (tmp_path / "abl").exists()

    def test_empty_cells_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--out", str(tmp_path), "--cells", ","])
        assert exc.value.code == 2

    def test_negative_seed_exits_two_before_writing(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--out", str(tmp_path / "abl"), "--seed", "-1"])
        assert exc.value.code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_single_cell_run(self, tmp_path, capsys):
        out = tmp_path / "abl"
        code = main(["ablate", "--out", str(out), "--cells", "baseline",
                     "--seed", "42"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "baseline" in stdout
        assert f"table and CSV written under {out}" in stdout
        assert (out / "ablation.csv").exists()
        assert (out / "results_baseline.txt").exists()


class TestLogging:
    def test_invalid_level_warns_on_stderr(self, tiny_scenario, monkeypatch, capsys):
        _, paths = tiny_scenario
        monkeypatch.setenv("DRONE_ASSOC_LOG", "chatty")
        code = main(["eval", "--gt", paths.gt, "--results", paths.gt])
        assert code == 0
        assert "DRONE_ASSOC_LOG" in capsys.readouterr().err

    def test_valid_level_accepted_quietly(self, tiny_scenario, monkeypatch, capsys):
        _, paths = tiny_scenario
        monkeypatch.setenv("DRONE_ASSOC_LOG", "error")
        code = main(["eval", "--gt", paths.gt, "--results", paths.gt])
        assert code == 0
        assert "DRONE_ASSOC_LOG" not in capsys.readouterr().err


class TestLoggingState:
    """main sets the package logger up from DRONE_ASSOC_LOG and puts its
    handlers and level back on return, on success and on a usage error."""

    def test_main_restores_logger_handlers_and_level(self, tmp_path, monkeypatch):
        pkg = logging.getLogger("drone_assoc")
        handlers, level = pkg.handlers[:], pkg.level
        monkeypatch.setenv("DRONE_ASSOC_LOG", "error")
        cfg_path = str(tmp_path / "scenario.txt")
        save_scenario_config(ScenarioConfig(
            seed=2, n_objects=3, n_frames=6, world_extent=200.0,
            object_speed_range=(0.5, 1.0), embedding_dim=4,
        ), cfg_path)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 0
        assert pkg.level == level and pkg.level != logging.ERROR
        assert pkg.handlers == handlers
        with pytest.raises(SystemExit):
            main(["simulate", "--config", cfg_path])
        assert pkg.level == level
        assert pkg.handlers == handlers


# run in a fresh interpreter where every scipy import fails
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from drone_assoc.cli import main
d = sys.argv[1]
data = d + "/data/"
runs = [
    ["simulate", "--config", d + "/scenario.txt", "--out", d + "/data"],
    ["track", "--detections", data + "det.txt", "--embeddings", data + "embeddings.bin",
     "--affines", data + "affines.csv", "--output", d + "/sidecar.txt"],
    ["track", "--detections", data + "det.txt", "--embeddings", data + "embeddings.bin",
     "--output", d + "/online.txt"],
    ["eval", "--gt", data + "gt.txt", "--results", d + "/online.txt"],
]
for args in runs:
    assert main(args) == 0, args
loaded = [name for name, mod in sys.modules.items()
          if name.partition(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_the_commands_run_without_scipy(tmp_path):
    save_scenario_config(ScenarioConfig(
        seed=3, n_objects=10, n_frames=30, world_extent=250.0,
        object_speed_range=(0.5, 2.0), embedding_dim=8,
    ), str(tmp_path / "scenario.txt"))
    src = str(Path(drone_assoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "sidecar.txt").stat().st_size > 0
    assert (tmp_path / "online.txt").stat().st_size > 0

"""Workload scenes and input generation for the tracking benchmark.

Run as a script, this module is the generator process: it simulates one
scene for one seed and writes the program's input files plus the
simulator's in-memory truth (ground-truth boxes and camera affines) into a
directory. The measuring process never runs the simulator, so neither its
time nor its memory lands in the measured figures.

    python3 perfbench/workloads.py SCENE SIZE SEED OUT_DIR
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str
    sidecar: bool


# standard-online estimates camera motion from the detections every frame;
# crowd-dense reads it from the affine sidecar.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("standard-online", "standard", sidecar=False),
        Workload("crowd-dense", "crowd", sidecar=True),
    )
}

# frames per pass of each scene: "full" for measured runs, "smoke" for the
# seconds-long self-test
SCENE_FRAMES = {
    ("standard", "full"): 900,
    ("standard", "smoke"): 90,
    ("crowd", "full"): 600,
    ("crowd", "smoke"): 60,
}
CROWD_OBJECTS = {"full": 120, "smoke": 40}


def scenario(scene: str, size: str, seed: int):
    """The ScenarioConfig of a scene at a size."""
    from drone_assoc import simulator as sim

    n = SCENE_FRAMES[(scene, size)]
    # the standard ablation script (hover, translate, rotate, hover in
    # 1/6, 1/3, 1/4, 1/4 of the frames) scaled to n frames
    q = n // 12
    script = (
        sim.hover(2 * q),
        sim.translate(4.0, 1.0, 4 * q),
        sim.rotate(0.02, 3 * q),
        sim.hover(n - 9 * q),
    )
    if scene == "standard":
        return sim.ScenarioConfig(
            seed=seed,
            n_objects=20,
            n_frames=n,
            world_extent=1000.0,
            object_speed_range=(0.5, 3.0),
            camera_script=script,
            detection_noise_sigma=1.5,
            miss_prob=0.08,
            false_positive_rate=0.5,
            score_model=sim.ScoreModel(0.85, 0.08, 0.35, 0.12),
            embedding_dim=32,
            view_drift_rate=0.3,
            occlusion_events=(
                sim.OcclusionEvent(3, 3 * q, max(1, n // 24)),
                sim.OcclusionEvent(7, 6 * q + q // 2, max(1, n // 24)),
            ),
        )
    if scene == "crowd":
        n_objects = CROWD_OBJECTS[size]
        return sim.ScenarioConfig(
            seed=seed,
            n_objects=n_objects,
            n_frames=n,
            world_extent=1500.0,
            object_speed_range=(0.5, 3.0),
            camera_script=script,
            detection_noise_sigma=1.5,
            miss_prob=0.08,
            false_positive_rate=4.0,
            score_model=sim.ScoreModel(0.85, 0.08, 0.35, 0.12),
            embedding_dim=128,
            view_drift_rate=0.3,
            # every tenth object vanishes for 25 frames, staggered
            occlusion_events=tuple(
                sim.OcclusionEvent(i, 1 + (i * 5) % max(1, n - 25), min(25, n // 3))
                for i in range(0, n_objects, 10)
            ),
        )
    raise ValueError(f"unknown scene {scene!r}")


def generate(scene: str, size: str, seed: int, out_dir: str) -> None:
    """Write the scene's input files with the simulator's own writer, and the
    in-memory result they were written from as truth.npz."""
    import numpy as np
    from drone_assoc import simulator as sim

    simulate = sim.simulate
    captured = []

    def capture(cfg):
        captured.append(simulate(cfg))
        return captured[-1]

    cfg = scenario(scene, size, seed)
    sim.simulate = capture  # generate_scenario looks simulate up at call time
    try:
        sim.generate_scenario(cfg, out_dir)
    finally:
        sim.simulate = simulate
    (result,) = captured
    frames = sorted(result.affines)
    np.savez(
        os.path.join(out_dir, "truth.npz"),
        n_frames=np.int64(cfg.n_frames),
        embedding_dim=np.int64(cfg.embedding_dim),
        world_extent=np.float64(cfg.world_extent),
        gt_frame=np.array([ln.frame for ln in result.gt], dtype=np.int64),
        gt_box=np.array([ln.bbox.as_array() for ln in result.gt],
                        dtype=np.float64).reshape(-1, 4),
        affine_frame=np.array(frames, dtype=np.int64),
        affine_m=np.array([result.affines[f].m for f in frames],
                          dtype=np.float64).reshape(-1, 2, 3),
    )


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    scene, size, seed, out_dir = argv
    sys.path.insert(0, SRC)
    generate(scene, size, int(seed), out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

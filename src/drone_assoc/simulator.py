"""Deterministic synthetic drone scenarios.

A 2D world of point-size-plus-box objects moves with per-object constant
velocity and small positional jitter. The camera viewport is a rigid frame
over that world, scripted in phases (hover, translate, rotate about the
view center). Ground truth is the axis-aligned hull of each world box
mapped into viewport coordinates, every object every frame. Detections are
ground truth plus Gaussian noise, thinned by miss probability and scripted
occlusion windows, padded with Poisson false positives. Embeddings are
per-identity unit vectors that drift in feature space as the cumulative
camera rotation grows, plus per-frame noise. The affine sidecar holds the
exact frame-to-frame viewport transform.

One numpy PCG64 stream seeded from the config drives everything; rerunning
a config writes byte-identical files. The config is written as scenario.txt
by one (writer, reader) pair per field type, and reads back equal through
mot_io's key = value codec.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import BoundingBox, normalize
from .mot_io import (
    FormatError,
    MotLine,
    field_codecs,
    read_config_values,
    read_key_values,
    write_affines,
    write_embeddings,
    write_key_values,
    write_mot_file,
)
from .motion import AffineTransform

RNG_ALGORITHM = "numpy-pcg64"

_OBJECT_JITTER_SIGMA = 0.05   # px, per frame, non-cumulative
_FEATURE_NOISE_SIGMA = 0.03   # per component, before renormalization
_SIZE_RANGE = (18.0, 42.0)    # px, object box extents
_N_CLASSES = 3


def _require_finite(config, *names: str) -> None:
    """Refuse an infinite or NaN value in any of the named fields."""
    for name in names:
        if not np.isfinite(getattr(config, name)).all():
            raise ValueError(f"{name} must be finite")


# each camera phase kind and the numbers it writes before its duration
_PHASE_ARGS = {"hover": (), "translate": ("vx", "vy"), "rotate": ("omega",)}


@dataclass(frozen=True)
class CameraPhase:
    """One scripted segment: 'hover', 'translate' (vx, vy px/frame image
    shift), or 'rotate' (omega rad/frame about the view center)."""

    kind: str
    duration: int
    vx: float = 0.0
    vy: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in _PHASE_ARGS:
            raise ValueError(f"unknown camera phase kind {self.kind!r}")
        if self.duration < 1:
            raise ValueError("phase duration must be >= 1 frame")
        _require_finite(self, "vx", "vy", "omega")


def hover(duration: int) -> CameraPhase:
    return CameraPhase("hover", duration)


def translate(vx: float, vy: float, duration: int) -> CameraPhase:
    return CameraPhase("translate", duration, vx=vx, vy=vy)


def rotate(omega: float, duration: int) -> CameraPhase:
    return CameraPhase("rotate", duration, omega=omega)


@dataclass(frozen=True)
class OcclusionEvent:
    """Detections of one object index are dropped for
    frames [start, start + duration)."""

    object_index: int
    start: int
    duration: int


@dataclass(frozen=True)
class ScoreModel:
    mean_hit: float = 0.85
    sigma_hit: float = 0.08
    mean_fp: float = 0.35
    sigma_fp: float = 0.12

    def __post_init__(self):
        _require_finite(self, "mean_hit", "sigma_hit", "mean_fp", "sigma_fp")
        if self.sigma_hit < 0 or self.sigma_fp < 0:
            raise ValueError("score sigmas must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    n_objects: int = 10
    n_frames: int = 100
    world_extent: float = 1000.0
    object_speed_range: tuple[float, float] = (0.5, 3.0)
    camera_script: tuple[CameraPhase, ...] = ()
    detection_noise_sigma: float = 0.0
    miss_prob: float = 0.0
    false_positive_rate: float = 0.0
    score_model: ScoreModel = ScoreModel()
    embedding_dim: int = 32
    view_drift_rate: float = 0.3
    occlusion_events: tuple[OcclusionEvent, ...] = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_objects < 0 or self.n_frames < 1:
            raise ValueError("need n_objects >= 0 and n_frames >= 1")
        _require_finite(self, "world_extent", "object_speed_range", "detection_noise_sigma",
                        "false_positive_rate", "view_drift_rate")
        if self.world_extent <= 0:
            raise ValueError("world_extent must be positive")
        lo, hi = self.object_speed_range
        if not 0 <= lo <= hi:
            raise ValueError("object_speed_range must satisfy 0 <= lo <= hi")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must lie in [0, 1]")
        if self.false_positive_rate < 0:
            raise ValueError("false_positive_rate must be >= 0")
        if self.detection_noise_sigma < 0:
            raise ValueError("detection_noise_sigma must be >= 0")
        if self.embedding_dim < 2:
            raise ValueError("embedding_dim must be >= 2")
        if self.camera_script:
            total = sum(p.duration for p in self.camera_script)
            if total != self.n_frames:
                raise ValueError(
                    f"camera script covers {total} frames, scenario has "
                    f"{self.n_frames}"
                )
        for ev in self.occlusion_events:
            if not 0 <= ev.object_index < max(self.n_objects, 1):
                raise ValueError("occlusion event names a missing object")
            if ev.start < 1 or ev.duration < 1:
                raise ValueError("occlusion events are 1-based with duration >= 1")


def standard_ablation_scenario(seed: int = 42) -> ScenarioConfig:
    """The fixed benchmark scenario the ablation table runs on."""
    return ScenarioConfig(
        seed=seed,
        n_objects=20,
        n_frames=600,
        world_extent=1000.0,
        object_speed_range=(0.5, 3.0),
        camera_script=(
            hover(100),
            translate(4.0, 1.0, 200),
            rotate(0.02, 150),
            hover(150),
        ),
        detection_noise_sigma=1.5,
        miss_prob=0.08,
        false_positive_rate=0.5,
        score_model=ScoreModel(0.85, 0.08, 0.35, 0.12),
        embedding_dim=32,
        view_drift_rate=0.3,
        occlusion_events=(OcclusionEvent(3, 150, 25), OcclusionEvent(7, 330, 25)),
    )


@dataclass(frozen=True)
class SimulationResult:
    gt: list[MotLine]
    detections: list[MotLine]
    embeddings: list[tuple[int, int, np.ndarray]]
    affines: dict[int, AffineTransform]


@dataclass(frozen=True)
class ScenarioPaths:
    gt: str
    detections: str
    embeddings: str
    affines: str
    config: str


def _phase_per_frame(cfg: ScenarioConfig) -> list[CameraPhase]:
    if not cfg.camera_script:
        return [hover(cfg.n_frames)] * cfg.n_frames
    phases: list[CameraPhase] = []
    for p in cfg.camera_script:
        phases.extend([p] * p.duration)
    return phases


def _phase_affine(phase: CameraPhase, mid: np.ndarray) -> np.ndarray:
    """2x3 image-to-image transform the phase applies between two frames."""
    if phase.kind == "translate":
        return np.array([[1.0, 0.0, phase.vx], [0.0, 1.0, phase.vy]])
    if phase.kind == "rotate":
        c, s = math.cos(phase.omega), math.sin(phase.omega)
        rot = np.array([[c, -s], [s, c]])
        t = mid - rot @ mid
        return np.column_stack([rot, t])
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def simulate(cfg: ScenarioConfig) -> SimulationResult:
    """Run the generator, returning everything in memory."""
    rng = np.random.default_rng(cfg.seed)
    n, dim = cfg.n_objects, cfg.embedding_dim
    margin = 0.05 * cfg.world_extent
    mid = np.array([cfg.world_extent / 2.0, cfg.world_extent / 2.0])

    positions = rng.uniform(margin, cfg.world_extent - margin, (n, 2))
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    speeds = rng.uniform(*cfg.object_speed_range, n)
    velocities = np.column_stack([speeds * np.cos(angles), speeds * np.sin(angles)])
    sizes = rng.uniform(*_SIZE_RANGE, (n, 2))
    classes = (np.arange(n) % _N_CLASSES) + 1

    base = rng.normal(0.0, 1.0, (n, dim))
    base = base / np.linalg.norm(base, axis=1, keepdims=True)
    partner = rng.normal(0.0, 1.0, (n, dim))
    partner -= (partner * base).sum(axis=1, keepdims=True) * base
    partner = partner / np.linalg.norm(partner, axis=1, keepdims=True)

    occluded: set[tuple[int, int]] = set()
    for ev in cfg.occlusion_events:
        for f in range(ev.start, ev.start + ev.duration):
            occluded.add((ev.object_index, f))

    phases = _phase_per_frame(cfg)
    view = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # world -> image, frame 1
    cum_rotation = 0.0

    gt: list[MotLine] = []
    dets: list[MotLine] = []
    embs: list[tuple[int, int, np.ndarray]] = []
    affines: dict[int, AffineTransform] = {}

    for frame in range(1, cfg.n_frames + 1):
        if frame > 1:
            step = _phase_affine(phases[frame - 1], mid)
            view = np.column_stack([
                step[:, :2] @ view[:, :2],
                step[:, :2] @ view[:, 2] + step[:, 2],
            ])
            affines[frame] = AffineTransform(step)
            cum_rotation += abs(phases[frame - 1].omega)

        jitter = rng.normal(0.0, _OBJECT_JITTER_SIGMA, (n, 2))
        centers = positions + velocities * (frame - 1) + jitter
        boxes = _viewport_boxes(centers, sizes, view)

        det_noise_c = rng.normal(0.0, cfg.detection_noise_sigma, (n, 2))
        det_noise_s = rng.normal(0.0, cfg.detection_noise_sigma / 2.0, (n, 2))
        miss_draws = rng.random(n)
        hit_scores = rng.normal(cfg.score_model.mean_hit, cfg.score_model.sigma_hit, n)
        hit_scores = np.clip(hit_scores, 0.0, 1.0).tolist()
        feat_noise = rng.normal(0.0, _FEATURE_NOISE_SIGMA, (n, dim))

        drift = cum_rotation * cfg.view_drift_rate
        feats = base * math.cos(drift) + partner * math.sin(drift) + feat_noise
        feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)

        ordinal = 0
        for i in range(n):
            x, y, w, h = boxes[i]
            gt.append(MotLine(frame, i + 1, BoundingBox(x, y, w, h),
                              1.0, int(classes[i]), 1.0))
            if (i, frame) in occluded or miss_draws[i] < cfg.miss_prob:
                continue
            w_d = max(w + det_noise_s[i, 0], 1.0)
            h_d = max(h + det_noise_s[i, 1], 1.0)
            cx = x + w / 2.0 + det_noise_c[i, 0]
            cy = y + h / 2.0 + det_noise_c[i, 1]
            dets.append(MotLine(frame, -1,
                                BoundingBox(cx - w_d / 2.0, cy - h_d / 2.0, w_d, h_d),
                                hit_scores[i], int(classes[i]), 1.0))
            embs.append((frame, ordinal, feats[i].astype(np.float64)))
            ordinal += 1

        for _ in range(int(rng.poisson(cfg.false_positive_rate))):
            fp_box = _false_positive_box(rng, boxes, cfg.world_extent)
            fp_score = float(np.clip(
                rng.normal(cfg.score_model.mean_fp, cfg.score_model.sigma_fp), 0.0, 1.0
            ))
            fp_class = int(rng.integers(1, _N_CLASSES + 1))
            fp_feat = normalize(rng.normal(0.0, 1.0, dim))
            dets.append(MotLine(frame, -1, fp_box, fp_score, fp_class, 1.0))
            embs.append((frame, ordinal, fp_feat))
            ordinal += 1

    return SimulationResult(gt, dets, embs, affines)


def _viewport_boxes(centers: np.ndarray, sizes: np.ndarray, view: np.ndarray) -> np.ndarray:
    """Axis-aligned hulls of world boxes under the world->image transform."""
    if centers.shape[0] == 0:
        return np.zeros((0, 4))
    half = sizes / 2.0
    signs = np.array([[-1, -1], [1, -1], [-1, 1], [1, 1]], dtype=np.float64)
    corners = centers[:, None, :] + signs[None, :, :] * half[:, None, :]
    warped = corners @ view[:, :2].T + view[:, 2]
    lo = warped.min(axis=1)
    hi = warped.max(axis=1)
    return np.column_stack([lo, hi - lo])


def _false_positive_box(rng: np.random.Generator, gt_boxes: np.ndarray,
                        extent: float) -> BoundingBox:
    if gt_boxes.shape[0]:
        x_lo, y_lo = gt_boxes[:, 0].min(), gt_boxes[:, 1].min()
        x_hi = (gt_boxes[:, 0] + gt_boxes[:, 2]).max()
        y_hi = (gt_boxes[:, 1] + gt_boxes[:, 3]).max()
        pad_x, pad_y = 0.1 * (x_hi - x_lo), 0.1 * (y_hi - y_lo)
        x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    else:
        x_lo = y_lo = 0.0
        x_hi = y_hi = extent
    cx = rng.uniform(x_lo, x_hi)
    cy = rng.uniform(y_lo, y_hi)
    w, h = rng.uniform(*_SIZE_RANGE, 2)
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def generate_scenario(cfg: ScenarioConfig, out_dir: str) -> ScenarioPaths:
    """Generate and write gt.txt, det.txt, embeddings.bin, affines.csv and a
    copy of the scenario config into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    result = simulate(cfg)
    header = f"synthetic scenario seed={cfg.seed} rng={RNG_ALGORITHM}"
    paths = ScenarioPaths(
        gt=os.path.join(out_dir, "gt.txt"),
        detections=os.path.join(out_dir, "det.txt"),
        embeddings=os.path.join(out_dir, "embeddings.bin"),
        affines=os.path.join(out_dir, "affines.csv"),
        config=os.path.join(out_dir, "scenario.txt"),
    )
    write_mot_file(paths.gt, result.gt, comment=header)
    write_mot_file(paths.detections, result.detections, comment=header)
    write_embeddings(paths.embeddings, result.embeddings, cfg.embedding_dim)
    write_affines(paths.affines, result.affines, comment=header)
    save_scenario_config(cfg, paths.config)
    return paths


# -- scenario config as key = value text --------------------------------------


def _parts(text: str, sep: str, n: int) -> list[str]:
    """text split at sep, refused unless it holds exactly n parts."""
    parts = text.split(sep)
    if len(parts) != n:
        raise ValueError(f"expected {n} values separated by {sep!r}, got {len(parts)}")
    return parts


def _items(text: str) -> list[str]:
    """The ';'-separated items of a list value; an empty value has none."""
    return text.split(";") if text else []


def _write_phase(phase: CameraPhase) -> str:
    args = (repr(getattr(phase, name)) for name in _PHASE_ARGS[phase.kind])
    return ":".join([phase.kind, *args, str(phase.duration)])


def _read_phase(text: str) -> CameraPhase:
    kind = text.split(":")[0]
    if kind not in _PHASE_ARGS:
        raise ValueError(f"unknown camera phase kind {kind!r}")
    names = _PHASE_ARGS[kind]
    _, *args, duration = _parts(text, ":", len(names) + 2)
    return CameraPhase(kind, int(duration), **dict(zip(names, map(float, args))))


# the (writer, reader) of each ScenarioConfig field type: ints are written
# with str and floats with repr, so a written file reads back exactly; each
# reader takes exactly as many values as its writer writes
_CODECS = {
    int: (str, int),
    float: (repr, float),
    tuple[float, float]: (lambda pair: ",".join(map(repr, pair)),
                          lambda text: tuple(map(float, _parts(text, ",", 2)))),
    ScoreModel: (lambda model: ",".join(map(repr, dataclasses.astuple(model))),
                 lambda text: ScoreModel(*map(float, _parts(text, ",", 4)))),
    tuple[CameraPhase, ...]: (lambda script: ";".join(map(_write_phase, script)),
                              lambda text: tuple(map(_read_phase, _items(text)))),
    tuple[OcclusionEvent, ...]: (
        lambda events: ";".join(":".join(map(str, dataclasses.astuple(ev))) for ev in events),
        lambda text: tuple(OcclusionEvent(*map(int, _parts(part, ":", 3)))
                           for part in _items(text))),
}
_FIELD_CODECS = field_codecs(ScenarioConfig, _CODECS)
_FIELD_READERS = {name: read for name, (_, read) in _FIELD_CODECS.items()}


def save_scenario_config(cfg: ScenarioConfig, path: str) -> None:
    values = {f.name: _FIELD_CODECS[f.name][0](getattr(cfg, f.name))
              for f in dataclasses.fields(cfg)}
    write_key_values(path, values, comment=f"scenario config, rng={RNG_ALGORITHM}")


def load_scenario_config(path: str) -> ScenarioConfig:
    kwargs = read_config_values(read_key_values(path), path, _FIELD_READERS)
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e

"""Tracking-by-detection association for drone footage: camera-motion
compensated Kalman prediction, adaptive appearance memory, a rotation-aware
fused matching cost, CLEAR/identity metrics, and a synthetic scenario
generator."""

from .appearance import (
    KeyFeatureBank,
    adaptive_alpha,
    maybe_insert_key,
    update_local_feature,
)
from .association import (
    AssignmentResult,
    FrameOrderError,
    FrameStats,
    Tracker,
    TrackRecord,
    TrackTable,
    linear_assignment,
)
from .core import (
    BoundingBox,
    ConfigError,
    FrameDetections,
    TrackerConfig,
    ZeroNormError,
    iou_matrix,
    normalize,
)
from .metrics import EvalReport, EvaluationError, clear_mot, evaluate, id_measures
from .mot_io import (
    FormatError,
    MotLine,
    MotTable,
    RunConfig,
    parse_affines,
    parse_detections,
    parse_embeddings,
    write_results,
)
from .motion import (
    AffineEstimationError,
    AffineTransform,
    DegenerateTransformError,
    MotionState,
    estimate_affine,
    frame_descriptors,
    kalman_init,
    kalman_predict,
    kalman_update,
    multi_predict,
    multi_update,
    rotation_cost,
    rotation_descriptor,
)
from .pipeline import run_ablation, run_tracking
from .simulator import (
    ScenarioConfig,
    generate_scenario,
    simulate,
    standard_ablation_scenario,
)

__version__ = "0.1.0"

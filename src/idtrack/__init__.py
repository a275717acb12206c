"""Online multi-object tracking with blended overlap and identity affinity."""

from .affinity import AffinityWeights, combined_affinity, iou, iou_matrix, nms
from .assignment import Assignment, brute_force_max, solve_max
from .geometry import BBox, Detection, to_center, to_corner
from .kernels import (
    LossWeights,
    MotionTargets,
    OimTable,
    correlate,
    decode_targets,
    encode_targets,
    multitask_loss,
    oim_forward,
    oim_grad,
    oim_update,
    smooth_l1,
    softmax_cross_entropy,
)
from .metrics import MotReport, evaluate, format_report, format_table, sweep_thresholds
from .sim import SimConfig, benchmark_config, generate, subsample
from .tracker import Tracker, TrackerConfig, TrackOutput, Trajectory, track_stream, update_trajectory

__version__ = "0.1.0"

__all__ = [
    "AffinityWeights",
    "Assignment",
    "BBox",
    "Detection",
    "LossWeights",
    "MotReport",
    "MotionTargets",
    "OimTable",
    "SimConfig",
    "TrackOutput",
    "Tracker",
    "TrackerConfig",
    "Trajectory",
    "benchmark_config",
    "brute_force_max",
    "combined_affinity",
    "correlate",
    "decode_targets",
    "encode_targets",
    "evaluate",
    "format_report",
    "format_table",
    "generate",
    "iou",
    "iou_matrix",
    "multitask_loss",
    "nms",
    "oim_forward",
    "oim_grad",
    "oim_update",
    "smooth_l1",
    "softmax_cross_entropy",
    "solve_max",
    "subsample",
    "sweep_thresholds",
    "to_center",
    "to_corner",
    "track_stream",
    "update_trajectory",
    "__version__",
]

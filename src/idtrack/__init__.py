"""Online multi-object tracking with blended overlap and identity affinity.

The network's numeric kernels are not re-exported here; import them from
``idtrack.kernels``.
"""

from .affinity import AffinityWeights, combined_affinity, nms
from .assignment import Assignment, solve_max
from .geometry import BBox, Detections, TrackOutput, to_corner
from .metrics import MotReport, evaluate, format_report, format_table, sweep_thresholds
from .sim import SimConfig, benchmark_config, generate, subsample
from .tracker import Tracker, TrackerConfig, Trajectory, track_stream

__version__ = "0.1.0"

__all__ = [
    "AffinityWeights",
    "Assignment",
    "BBox",
    "Detections",
    "MotReport",
    "SimConfig",
    "TrackOutput",
    "Tracker",
    "TrackerConfig",
    "Trajectory",
    "benchmark_config",
    "combined_affinity",
    "evaluate",
    "format_report",
    "format_table",
    "generate",
    "nms",
    "solve_max",
    "subsample",
    "sweep_thresholds",
    "to_corner",
    "track_stream",
    "__version__",
]

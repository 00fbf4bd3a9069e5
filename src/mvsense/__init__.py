"""Multi-camera human sensing with a cylinder body model.

Fuses per-camera 2D keypoint detections and depth images into a
hierarchically connected tree of keypart cylinders, schedules pan-tilt
viewpoints toward collision-critical regions, and validates everything
against a bundled synthetic scene simulator.
"""

from .body import BodyTree, PartDimensions, build_tree, augment
from .geometry import Cylinder, Intrinsics, RigidTransform
from .harness import TrialMetrics, compare_configs, run_trial
from .scenario import ScenarioScript, TEMPLATES, parse, emit

__version__ = "0.1.0"

__all__ = [
    "BodyTree",
    "Cylinder",
    "Intrinsics",
    "PartDimensions",
    "RigidTransform",
    "ScenarioScript",
    "TEMPLATES",
    "TrialMetrics",
    "augment",
    "build_tree",
    "compare_configs",
    "emit",
    "parse",
    "run_trial",
]

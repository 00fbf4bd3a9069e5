"""Multi-camera human sensing with a cylinder body model.

Fuses per-camera 2D keypoint detections and depth images into a
hierarchically connected tree of keypart cylinders, schedules pan-tilt
viewpoints toward collision-critical regions, and validates everything
against a bundled synthetic scene simulator.

The namespace re-exports nothing, so reading a scenario script loads no
pipeline: import the submodule (``from mvsense import harness, scenario``).
"""

__version__ = "0.1.0"

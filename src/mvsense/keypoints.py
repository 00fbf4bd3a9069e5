"""Per-camera keypoint detections and their multi-camera fusion.

A camera's detections are two arrays in keypoint order: 17 pixels
(17, 2) and their confidences (17,). Stages, per frame and camera: check
the detector's arrays (``detect``), track a discounted sliding window of
confidences to decide presence, lift present keypoints to 3D through a
depth-image slice, and finally fuse all cameras' 3D estimates with
confidence weights in the world frame.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .body import NUM_KEYPOINTS
from .geometry import Intrinsics, reproject


class DetectorFailure(RuntimeError):
    """The keypoint detector could not produce an inference."""


class NoValidDepth(ValueError):
    """No valid depth pixel inside the slice around a keypoint."""


class EmptyInput(ValueError):
    """Fusion called with no contributing cameras."""


def detect(output) -> tuple:
    """Check a detector's output: 17 pixels and their confidences.

    ``output`` is a (pixels, confidences) pair in keypoint order, (17, 2)
    and (17,); it comes back as float64 arrays. Any other count, a
    non-finite pixel, or a non-finite or negative confidence raises
    ``DetectorFailure`` naming the keypoint.
    """
    pixels, confidences = (np.asarray(a, dtype=np.float64) for a in output)
    if pixels.shape != (NUM_KEYPOINTS, 2) or confidences.shape != (NUM_KEYPOINTS,):
        raise DetectorFailure(f"detector returned {confidences.size} keypoints "
                              f"with pixels of shape {pixels.shape}")
    bad = ~(np.isfinite(pixels).all(axis=1) & np.isfinite(confidences) & (confidences >= 0.0))
    if bad.any():
        kp = int(np.argmax(bad))
        raise DetectorFailure(f"keypoint {kp} has pixel {pixels[kp].tolist()} "
                              f"and confidence {confidences[kp]}")
    return pixels, confidences


@dataclass
class PresenceWindow:
    """Discounted sliding window of confidence scores.

    The presence score is sum_{m=0..M} gamma^m * c[t_n - m] with m = 0 the
    newest entry; missing history counts as 0, which biases a cold window
    toward absence. An entry may be an array: the window then scores each
    row elementwise, with the same arithmetic as one window per row, so
    one window serves all of a camera's keypoints and keyparts (a part's
    row holds the max confidence over its keypoints).
    """

    m: int = 5
    gamma: float = 0.7
    alpha: float = 1.0
    _buf: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        if not (0.0 < self.alpha < self.m):
            raise ValueError("alpha must be in (0, M)")
        self._buf = deque(self._buf, maxlen=self.m + 1)

    def update(self, confidence) -> None:
        self._buf.append(np.array(confidence, dtype=np.float64))

    def score(self):
        total = 0.0
        for m, c in enumerate(reversed(self._buf)):
            total += (self.gamma ** m) * c
        return total

    def present(self):
        # the sign convention maps an exact-threshold score to absent
        return self.score() > self.alpha


_DISC_CACHE: dict = {}


def _disc_offsets(radius: int) -> np.ndarray:
    if radius not in _DISC_CACHE:
        r = int(radius)
        dv, du = np.mgrid[-r:r + 1, -r:r + 1]
        keep = du * du + dv * dv < r * r if r > 0 else (du == 0) & (dv == 0)
        if r > 0:
            keep |= (du == 0) & (dv == 0)  # always include the center pixel
        _DISC_CACHE[radius] = np.column_stack([du[keep], dv[keep]])
    return _DISC_CACHE[radius]


def slice_depth(pixel, depth_image: np.ndarray, radius: int) -> float:
    """Mean of the valid depth pixels within ``radius`` of a pixel.

    Invalid depth is encoded as 0 (or non-finite). Raises NoValidDepth
    when the whole neighborhood is invalid.
    """
    h, w = depth_image.shape
    u0, v0 = int(round(float(pixel[0]))), int(round(float(pixel[1])))
    off = _disc_offsets(radius)
    us = u0 + off[:, 0]
    vs = v0 + off[:, 1]
    ok = (us >= 0) & (us < w) & (vs >= 0) & (vs < h)
    if not ok.any():
        raise NoValidDepth(f"slice at ({u0},{v0}) outside image")
    vals = depth_image[vs[ok], us[ok]]
    valid = np.isfinite(vals) & (vals > 0)
    if not valid.any():
        raise NoValidDepth(f"no valid depth around ({u0},{v0})")
    return float(vals[valid].mean())


def lift_depth(pixel: np.ndarray, depth_image: np.ndarray, radius: int,
               k: Intrinsics) -> np.ndarray:
    """3D camera-frame position of a detected pixel via its depth slice."""
    return reproject(pixel, slice_depth(pixel, depth_image, radius), k)


@dataclass(frozen=True)
class FusedKeypoint:
    """World-frame keypoint fused across cameras."""

    keypoint: int
    position_world: np.ndarray
    confidence: float
    contributing_cameras: int


def effectiveness_factor(n: int) -> float:
    """Camera-count weighting (1 - e^-N) / (1 + e^-N), in (0, 1)."""
    e = np.exp(-float(n))
    return float((1.0 - e) / (1.0 + e))


def fuse(per_camera, keypoint: int = -1) -> FusedKeypoint:
    """Confidence-weighted fusion of per-camera 3D keypoint estimates.

    ``per_camera`` holds (position_camera_frame, confidence, cam_to_world)
    triples. The fused position is the closed-form minimizer of the
    weighted squared-distance objective over world-frame positions; the
    fused confidence scales the average confidence by the effectiveness
    factor of the camera count.
    """
    if not per_camera:
        raise EmptyInput("no cameras contributed")
    weights = np.array([c for _, c, _ in per_camera], dtype=np.float64)
    world = np.stack([t.apply(np.asarray(p, dtype=np.float64))
                      for p, _, t in per_camera])
    position = (weights[:, None] * world).sum(axis=0) / weights.sum()
    n = len(per_camera)
    conf = effectiveness_factor(n) * float(weights.mean())
    return FusedKeypoint(keypoint, position, conf, n)

"""Per-camera keypoint observations and their multi-camera fusion.

Stages, per frame and camera: decode detector heatmaps into (pixel,
confidence) observations, track a discounted sliding window of
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


@dataclass(frozen=True)
class Heatmap:
    """Confidence grid for one keypoint, values in (0, 1), shape (H', W')."""

    values: np.ndarray
    keypoint: int

    def peak(self):
        """(u, v) grid location and value of the maximum; first (v, u) wins ties."""
        v, u = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return (int(u), int(v)), float(self.values[v, u])


@dataclass(frozen=True)
class Observation2D:
    """One keypoint seen by one camera at one timestamp."""

    keypoint: int
    pixel: np.ndarray
    confidence: float
    camera: str
    timestamp: float


def decode_heatmap(hm: Heatmap, image_size) -> tuple:
    """Heatmap argmax scaled into image coordinates (center-aligned)."""
    (u, v), conf = hm.peak()
    hp_h, hp_w = hm.values.shape
    w, h = image_size
    sx, sy = w / hp_w, h / hp_h
    return np.array([(u + 0.5) * sx - 0.5, (v + 0.5) * sy - 0.5]), conf


def detect(image, detector, camera: str = "", timestamp: float = 0.0) -> list:
    """Run a detector and normalize its output to 17 observations.

    A detector is any object with ``infer(image)`` returning either 17
    Heatmaps or 17 (pixel, confidence) pairs, plus an ``image_size``
    attribute (W, H). Detector exceptions propagate as-is.
    """
    output = detector.infer(image)
    if len(output) != NUM_KEYPOINTS:
        raise DetectorFailure(f"detector returned {len(output)} keypoints")
    obs = []
    for k, item in enumerate(output):
        if isinstance(item, Heatmap):
            pixel, conf = decode_heatmap(item, detector.image_size)
        else:
            pixel, conf = item
            pixel = np.asarray(pixel, dtype=np.float64)
        obs.append(Observation2D(k, pixel, float(conf), camera, timestamp))
    return obs


@dataclass
class PresenceWindow:
    """Discounted sliding window of confidence scores.

    The presence score is sum_{m=0..M} gamma^m * c[t_n - m] with m = 0 the
    newest entry; missing history counts as 0, which biases a cold window
    toward absence. The part-level window uses the same mechanics with the
    max confidence over the part's keypoints.
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

    def update(self, confidence: float) -> None:
        self._buf.append(float(confidence))

    def score(self) -> float:
        total = 0.0
        for m, c in enumerate(reversed(self._buf)):
            total += (self.gamma ** m) * c
        return total

    def present(self) -> bool:
        # the sign convention maps an exact-threshold score to absent
        return self.score() > self.alpha

    def __len__(self):
        return len(self._buf)


def presence(window: PresenceWindow) -> int:
    """Existence flag E in {0, 1} from a confidence window."""
    if len(window) < 1:
        raise ValueError("presence needs at least one confidence entry")
    return int(window.present())


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


def lift_depth(obs: Observation2D, depth_image: np.ndarray, radius: int,
               k: Intrinsics) -> np.ndarray:
    """3D camera-frame position of an observation via its depth slice."""
    d = slice_depth(obs.pixel, depth_image, radius)
    return reproject(obs.pixel, d, k)


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

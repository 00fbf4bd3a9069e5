"""Per-camera keypoint detections and their multi-camera fusion.

A camera's detections are two arrays in keypoint order: 17 pixels
(17, 2) and their confidences (17,). Stages, per frame and camera: check
the detector's arrays (``detect``), track a discounted sliding window of
confidences to decide presence, and lift each present keypoint to 3D
through a depth-image slice (``lift_depth``, one call per keypoint, so a
keypoint without valid depth raises on its own). A slice samples the
body surface, so ``keypoint_depth_offsets`` gives, from the body model,
how far each lift lies in front of its joint. Then one ``fuse`` call per
frame takes every camera's lifts as a (C, 17, 3) stack and returns the
frame's keypoints as a (17, 3) world-frame table, with NaN rows for the
keypoints it could not fuse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .body import HEAD, NUM_KEYPOINTS, PART_KEYPOINT_MASK, PART_KEYPOINTS, PartDimensions
from .geometry import Intrinsics, reproject

# The pipeline's depth-slice radius in pixels, for lifts and mask anchors
SLICE_RADIUS = 5


class DetectorFailure(RuntimeError):
    """The keypoint detector could not produce an inference."""


class NoValidDepth(ValueError):
    """No valid depth pixel inside the slice around a keypoint."""


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


def keypoint_depth_offsets(dims: PartDimensions) -> np.ndarray:
    """Surface-to-joint depth correction per keypoint.

    A depth slice samples the body surface, which sits roughly one part
    radius in front of the joint center; face keypoints are true surface
    features and need no correction. The lifted point is pushed deeper
    along its camera ray by this offset before fusion.
    """
    radii = np.array(dims.radius, dtype=np.float64)[:, None]
    off = np.where(PART_KEYPOINT_MASK, radii, np.inf).min(axis=0)
    off[list(PART_KEYPOINTS[HEAD])] = 0.0
    return off


def effectiveness_factor(n):
    """Camera-count weighting (1 - e^-N) / (1 + e^-N), in (0, 1) for N >= 1.

    ``n`` may be an array of counts; the factor is then elementwise.
    """
    e = np.exp(-np.asarray(n, dtype=np.float64))
    return (1.0 - e) / (1.0 + e)


def fuse(lifts: np.ndarray, lifted: np.ndarray, confidences: np.ndarray,
         poses) -> tuple:
    """Confidence-weighted fusion of every keypoint across C cameras.

    ``lifts`` (C, 17, 3) holds camera-frame positions, used where the
    (C, 17) mask ``lifted`` is true; ``confidences`` (C, 17) are their
    weights and ``poses`` the C camera-to-world transforms. A keypoint's
    fused position is the closed-form minimizer of the weighted
    squared-distance objective over world-frame positions, and its fused
    confidence scales the mean confidence of the cameras that lifted it
    by the effectiveness factor of their count.

    Returns the (17, 3) world positions and the (17,) fused confidences.
    A keypoint whose weights sum to 0, because no camera lifted it or
    every one that did reported confidence 0, is unfused: its row is NaN
    and its confidence 0.

    Each lift is rotated as a stack of matrix-vector products, which
    gives the same bits as ``R @ p`` (``P @ R.T`` does not), and cameras
    that did not lift a keypoint add exact zeros, so a keypoint's result
    does not depend on the other cameras in the rig.
    """
    rotations = np.stack([pose.rotation for pose in poses])
    translations = np.stack([pose.translation for pose in poses])
    world = np.matmul(rotations[:, None], lifts[..., None])[..., 0] + translations[:, None]
    weights = np.where(lifted, confidences, 0.0)
    weighted = np.where(lifted[..., None], weights[..., None] * world, 0.0)
    total = weights.sum(axis=0)
    fused = total > 0.0
    positions = np.full((lifted.shape[1], 3), np.nan)
    np.divide(weighted.sum(axis=0), total[:, None], out=positions, where=fused[:, None])
    counts = lifted.sum(axis=0)
    mean = np.divide(total, counts, out=np.zeros_like(total), where=counts > 0)
    return positions, effectiveness_factor(counts) * mean

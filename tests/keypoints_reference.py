"""Per-keypoint fusion and mask anchoring that ``mvsense`` replaced, kept as oracles.

``fuse`` is the body from before a frame's keypoints were fused in one
call: it takes one keypoint's (position_camera_frame, confidence,
cam_to_world) triples and returns its world position, fused confidence
and camera count; ``assert_same_fusion`` checks a whole frame's fusion
against it. ``project`` is the one-point projection that
``geometry`` had, raising ``BehindCamera`` for a point at non-positive
camera depth. ``project_keypoints_to_mask`` anchors keypoint by keypoint
from a dict of fused world positions and a camera's (pixels,
confidences) detection, and returns keypoint -> (pixel, depth); an
unfused keypoint falls back to its detected pixel only at a confidence
above 0. ``anchor_tables`` turns such a dict into (17, 2) pixels and
(17,) depths. ``_mean_anchor``, ``part_endpoints`` and
``trapezoid_for_part`` are the per-part steps that placed a camera's
trapezoids from those tables before ``keyparts.project_keypoints_to_mask``
built them itself; ``trapezoids`` chains the four steps as the pipeline
did, and ``assert_same_trapezoids`` compares two trapezoid lists field
by field by their bytes. The live code must give the same bits on every
input.
"""

import numpy as np

from mvsense import body
from mvsense.keyparts import Trapezoid, base_half_length
from mvsense.keypoints import NoValidDepth, effectiveness_factor, slice_depth


class BehindCamera(ValueError):
    """Point has non-positive depth in the camera frame."""


def fuse(per_camera) -> tuple:
    """(world position, fused confidence, camera count) of one keypoint."""
    if not per_camera:
        raise ValueError("no cameras contributed")
    weights = np.array([c for _, c, _ in per_camera], dtype=np.float64)
    world = np.stack([t.apply(np.asarray(p, dtype=np.float64))
                      for p, _, t in per_camera])
    position = (weights[:, None] * world).sum(axis=0) / weights.sum()
    n = len(per_camera)
    conf = effectiveness_factor(n) * float(weights.mean())
    return position, conf, n


def assert_same_fusion(got: tuple, lifts, lifted, confidences, poses) -> None:
    """``keypoints.fuse``'s (positions, confidences) against this file's
    ``fuse``, keypoint by keypoint, by their bytes. Where the reference
    divides 0 by 0 (no weight), the live row must be NaN."""
    positions, fused = got
    for kp in range(lifted.shape[1]):
        entries = [(lifts[c, kp], confidences[c, kp], poses[c])
                   for c in range(len(poses)) if lifted[c, kp]]
        if not entries:
            assert np.isnan(positions[kp]).all() and fused[kp] == 0.0, kp
            continue
        with np.errstate(invalid="ignore"):
            position, confidence, _n = fuse(entries)
        assert fused[kp].hex() == confidence.hex(), kp
        if sum(c for _p, c, _t in entries) == 0.0:
            assert np.isnan(positions[kp]).all(), kp
        else:
            assert positions[kp].tobytes() == position.tobytes(), kp


def project(point_world, pose, k):
    """Project a world point; returns ((u, v), depth)."""
    p_cam = pose.inverse().apply(np.asarray(point_world, dtype=np.float64))
    z = p_cam[2]
    if z <= 0:
        raise BehindCamera(f"point at camera depth {z:.6f}")
    u = k.fx * p_cam[0] / z + k.cx
    v = k.fy * p_cam[1] / z + k.cy
    return np.array([u, v]), float(z)


def project_keypoints_to_mask(fused: dict, detection, world_from_cam, k, depth_image,
                              slice_radius: int, parts) -> dict:
    """keypoint -> (pixel, depth) for every keypoint of the given parts."""
    pixels, confidences = detection
    anchors: dict = {}
    wanted = set()
    for j in parts:
        wanted.update(body.PART_KEYPOINTS[j])
    for kp in sorted(wanted):
        position = fused.get(kp)
        if position is not None:
            try:
                anchors[kp] = project(position, world_from_cam, k)
            except BehindCamera:
                continue
        elif confidences[kp] > 0.0:
            try:
                depth = slice_depth(pixels[kp], depth_image, slice_radius)
            except NoValidDepth:
                continue
            anchors[kp] = (pixels[kp], depth)
    return anchors


def anchor_tables(anchors: dict) -> tuple:
    """(17, 2) pixels and (17,) depths, NaN where a keypoint has no anchor."""
    pixels = np.full((body.NUM_KEYPOINTS, 2), np.nan)
    depths = np.full(body.NUM_KEYPOINTS, np.nan)
    for kp, (pixel, depth) in anchors.items():
        pixels[kp], depths[kp] = pixel, depth
    return pixels, depths


def _mean_anchor(anchor_px: np.ndarray, anchor_depth: np.ndarray, kps) -> tuple | None:
    kps = [kp for kp in kps if not np.isnan(anchor_depth[kp])]
    if not kps:
        return None
    return np.mean(anchor_px[kps], axis=0), float(np.mean(anchor_depth[kps]))


def part_endpoints(part: int, anchor_px: np.ndarray, anchor_depth: np.ndarray) -> tuple | None:
    """(pixel, depth) pair for the proximal and distal base midpoints."""
    if part == body.TORSO:
        ends = (body.L_SHOULDER, body.R_SHOULDER), (body.L_HIP, body.R_HIP)
    elif part == body.HEAD:
        ends = body.PART_KEYPOINTS[body.HEAD], (body.L_SHOULDER, body.R_SHOULDER)
    else:
        ends = (body.EDGE_KEYPOINT[part],), (body.DISTAL_KEYPOINT[part],)
    upper, lower = (_mean_anchor(anchor_px, anchor_depth, kps) for kps in ends)
    if upper is None or lower is None:
        return None
    return upper, lower


def trapezoid_for_part(part: int, endpoints_px, depths, k, radius: float,
                       inflation: float = 1.2) -> Trapezoid:
    """Trapezoid enveloping a cylinder of ``radius`` between two endpoints."""
    d_up, d_lo = float(depths[0]), float(depths[1])
    return Trapezoid(
        part,
        np.asarray(endpoints_px[0], dtype=np.float64),
        np.asarray(endpoints_px[1], dtype=np.float64),
        base_half_length(k.focal, d_up, radius) * inflation,
        base_half_length(k.focal, d_lo, radius) * inflation,
        d_up,
        d_lo,
    )


def trapezoids(fused: dict, detection, world_from_cam, k, depth_image, slice_radius: int,
               parts, radii, inflation: float) -> list:
    """A camera's trapezoids: anchors, then per part its endpoints and trapezoid."""
    anchors = anchor_tables(project_keypoints_to_mask(
        fused, detection, world_from_cam, k, depth_image, slice_radius, parts))
    out = []
    for j in parts:
        ends = part_endpoints(j, *anchors)
        if ends is None:
            continue
        (px_u, d_u), (px_l, d_l) = ends
        out.append(trapezoid_for_part(j, (px_u, px_l), (d_u, d_l), k, radii[j], inflation))
    return out


TRAPEZOID_ARRAYS = ("mid_upper", "mid_lower")
TRAPEZOID_FLOATS = ("len_upper", "len_lower", "paint_depth_upper", "paint_depth_lower")


def assert_same_trapezoids(got: list, want: list) -> None:
    """Same parts in the same order, every field of every trapezoid with
    the same type and bytes."""
    assert [t.part for t in got] == [t.part for t in want]
    for a, b in zip(got, want):
        assert type(a.part) is type(b.part), a.part
        for name in TRAPEZOID_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                (a.part, name)
        for name in TRAPEZOID_FLOATS:
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y) and np.float64(x).tobytes() == np.float64(y).tobytes(), \
                (a.part, name)

"""Keypart masks and point-cloud extraction.

A keypart visible to a camera is enveloped in the image by an isosceles
trapezoid: bases perpendicular to the projected axis, base half-lengths
proportional to focal_length * radius / depth. Trapezoids are painted
far-to-near so nearer parts own contested pixels, then each labeled
depth pixel is lifted to a world point and the per-part clouds are
cleaned (robot-envelope removal, voxel/range/cluster filters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import body
from .filters import largest_euclidean_cluster, passthrough, voxel_downsample
from .geometry import Intrinsics, RigidTransform, project, reproject_many
from .keypoints import FusedKeypoint, NoValidDepth, Observation2D, slice_depth

BACKGROUND = -1


@dataclass(frozen=True)
class MaskAnchor:
    """Projected keypoint used to place a trapezoid: pixel + paint depth."""

    keypoint: int
    pixel: np.ndarray
    depth: float
    fused: bool


def base_half_length(focal: float, depth: float, radius: float) -> float:
    """Projected cylinder half-width in pixels at a given depth."""
    if depth <= 0 or not np.isfinite(depth):
        raise ValueError(f"depth must be positive, got {depth!r}")
    return focal * radius / depth


@dataclass(frozen=True)
class Trapezoid:
    """Isosceles trapezoid in pixel space with paint depths at both bases."""

    part: int
    mid_upper: np.ndarray
    mid_lower: np.ndarray
    len_upper: float
    len_lower: float
    paint_depth_upper: float
    paint_depth_lower: float

    @property
    def paint_depth(self) -> float:
        return 0.5 * (self.paint_depth_upper + self.paint_depth_lower)

    def depth_at(self, pixels: np.ndarray) -> np.ndarray:
        """Expected part depth per pixel, interpolated between the bases."""
        pts = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        axis = self.mid_lower - self.mid_upper
        n2 = float(axis @ axis)
        if n2 < 1e-12:
            return np.full(len(pts), self.paint_depth)
        t = np.clip((pts - self.mid_upper) @ axis / n2, 0.0, 1.0)
        return self.paint_depth_upper + t * (self.paint_depth_lower - self.paint_depth_upper)

    def corners(self) -> np.ndarray:
        """Corner pixels in consistent winding (upper pair, lower pair)."""
        axis = self.mid_lower - self.mid_upper
        n = np.linalg.norm(axis)
        if n < 1e-9:
            # degenerate end-on view: paint a square patch
            perp = np.array([1.0, 0.0])
            axis_u = np.array([0.0, 1.0])
            half = max(self.len_upper, self.len_lower)
            a = self.mid_upper - axis_u * half
            b = self.mid_lower + axis_u * half
            return np.array([a - perp * half, a + perp * half,
                             b + perp * half, b - perp * half])
        axis_u = axis / n
        perp = np.array([-axis_u[1], axis_u[0]])
        return np.array([
            self.mid_upper - perp * self.len_upper,
            self.mid_upper + perp * self.len_upper,
            self.mid_lower + perp * self.len_lower,
            self.mid_lower - perp * self.len_lower,
        ])

    def contains(self, pixels: np.ndarray) -> np.ndarray:
        """Vectorized point-in-convex-quad test (boundary counts as inside)."""
        corners = self.corners()
        pts = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        # winding orientation from the shoelace sum
        area2 = 0.0
        for i in range(4):
            a = corners[i]
            b = corners[(i + 1) % 4]
            area2 += a[0] * b[1] - b[0] * a[1]
        orient = 1.0 if area2 >= 0 else -1.0
        inside = np.ones(len(pts), dtype=bool)
        for i in range(4):
            a = corners[i]
            b = corners[(i + 1) % 4]
            e = b - a
            cross = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
            inside &= orient * cross >= -1e-9
        return inside


@dataclass
class MaskImage:
    """Per-pixel keypart label plus the depth it was painted at."""

    labels: np.ndarray
    depths: np.ndarray

    @staticmethod
    def blank(width: int, height: int) -> "MaskImage":
        return MaskImage(
            np.full((height, width), BACKGROUND, dtype=np.int16),
            np.full((height, width), np.inf, dtype=np.float64),
        )


@dataclass
class KeypartCloud:
    """Extracted world-frame points for one keypart from one camera."""

    part: int
    points: np.ndarray
    camera: str = ""


def project_keypoints_to_mask(fused: dict, raw: dict, world_from_cam: RigidTransform,
                              k: Intrinsics, depth_image: np.ndarray,
                              slice_radius: int, parts) -> dict:
    """Anchor pixels and paint depths for every keypoint of the given parts.

    Fused keypoints are projected through the camera (their paint depth is
    the camera-frame z); keypoints absent from fusion fall back to the raw
    detector pixel with a locally sliced depth. Keypoints that project
    behind the camera or carry no usable depth are skipped.
    """
    anchors: dict = {}
    wanted = set()
    for j in parts:
        wanted.update(body.PART_KEYPOINTS[j])
    for kp in sorted(wanted):
        fk: FusedKeypoint | None = fused.get(kp)
        if fk is not None:
            try:
                pixel, depth = project(fk.position_world, world_from_cam, k)
            except Exception:
                continue
            anchors[kp] = MaskAnchor(kp, pixel, depth, True)
        elif kp in raw:
            obs: Observation2D = raw[kp]
            try:
                depth = slice_depth(obs.pixel, depth_image, slice_radius)
            except NoValidDepth:
                continue
            anchors[kp] = MaskAnchor(kp, np.asarray(obs.pixel, dtype=np.float64),
                                     depth, False)
    return anchors


def _mean_anchor(anchors: dict, kps) -> tuple | None:
    pts = [anchors[k] for k in kps if k in anchors]
    if not pts:
        return None
    pixel = np.mean([a.pixel for a in pts], axis=0)
    depth = float(np.mean([a.depth for a in pts]))
    return pixel, depth


def part_endpoints(part: int, anchors: dict) -> tuple | None:
    """(pixel, depth) pair for the proximal and distal base midpoints."""
    if part == body.TORSO:
        upper = _mean_anchor(anchors, (body.L_SHOULDER, body.R_SHOULDER))
        lower = _mean_anchor(anchors, (body.L_HIP, body.R_HIP))
    elif part == body.HEAD:
        upper = _mean_anchor(anchors, body.PART_KEYPOINTS[body.HEAD])
        lower = _mean_anchor(anchors, (body.L_SHOULDER, body.R_SHOULDER))
    else:
        upper = _mean_anchor(anchors, (body.EDGE_KEYPOINT[part],))
        lower = _mean_anchor(anchors, (body.DISTAL_KEYPOINT[part],))
    if upper is None or lower is None:
        return None
    return upper, lower


def trapezoid_for_part(part: int, endpoints_px, depths, k: Intrinsics,
                       radius: float, inflation: float = 1.2) -> Trapezoid:
    """Trapezoid enveloping a cylinder of ``radius`` between two endpoints.

    Half-lengths follow focal * radius / depth, widened by ``inflation``
    because the first-order width slightly undercuts a close silhouette.
    """
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


def paint_masks(trapezoids, width: int, height: int) -> MaskImage:
    """Painter's algorithm: far trapezoids first, nearer overwrite.

    Ownership: the label at a pixel is the trapezoid of minimum mean paint
    depth covering it, independent of input order. The stored per-pixel
    depth interpolates between the base paint depths, giving extraction a
    depth prior for the labeled part at that pixel.
    """
    mask = MaskImage.blank(width, height)
    for tz in sorted(trapezoids, key=lambda t: (-t.paint_depth, t.part)):
        corners = tz.corners()
        u0 = max(0, int(np.floor(corners[:, 0].min())))
        u1 = min(width - 1, int(np.ceil(corners[:, 0].max())))
        v0 = max(0, int(np.floor(corners[:, 1].min())))
        v1 = min(height - 1, int(np.ceil(corners[:, 1].max())))
        if u1 < u0 or v1 < v0:
            continue
        vv, uu = np.mgrid[v0:v1 + 1, u0:u1 + 1]
        pix = np.column_stack([uu.ravel(), vv.ravel()]).astype(np.float64)
        inside = tz.contains(pix)
        depths = tz.depth_at(pix)
        inside2 = inside.reshape(vv.shape)
        mask.labels[v0:v1 + 1, u0:u1 + 1][inside2] = tz.part
        mask.depths[v0:v1 + 1, u0:u1 + 1][inside2] = depths[inside]
    return mask


@dataclass(frozen=True)
class CloudParams:
    voxel: float = 0.02
    range_min: float = 0.2
    range_max: float = 5.0
    cluster_radius: float = 0.05
    cluster_min: int = 10
    robot_margin_scale: float = 1.1
    # max |measured - painted| depth for a pixel to count as its label;
    # rejects see-through background inside an inflated trapezoid
    depth_gate: float = 0.3


def extract_clouds(mask: MaskImage, depth_image: np.ndarray,
                   world_from_cam: RigidTransform, k: Intrinsics,
                   robot_links=(), params: CloudParams = CloudParams(),
                   camera: str = "") -> list:
    """Per-part world-frame clouds from a painted mask and a depth image.

    Pipeline per labeled part: lift valid-depth pixels, drop points inside
    any (inflated) robot-link cylinder, voxel-downsample, range-gate on
    camera distance, and keep the largest Euclidean cluster.

    The depth tests run only inside the window of rows and columns that
    hold a label; at 640x480 it covers about a sixth of the image. Pixels
    are still taken in row-major order of the whole image.
    """
    if mask.labels.shape != depth_image.shape:
        raise ValueError("mask and depth image dimensions differ")
    clouds = []
    labeled = mask.labels != BACKGROUND
    rows = np.flatnonzero(labeled.any(axis=1))
    if not len(rows):
        return clouds
    cols = np.flatnonzero(labeled.any(axis=0))
    window = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    depth = depth_image[window]
    valid = labeled[window] & np.isfinite(depth) & (depth > 0)
    if params.depth_gate > 0:
        valid &= np.abs(depth - mask.depths[window]) <= params.depth_gate
    if not valid.any():
        return clouds
    vs, us = np.nonzero(valid)
    depths = depth[vs, us].astype(np.float64)
    vs += rows[0]
    us += cols[0]
    labels = mask.labels[vs, us]
    cam_pts = reproject_many(np.column_stack([us, vs]).astype(np.float64), depths, k)
    world_pts = world_from_cam.apply(cam_pts)

    cam_from_world = world_from_cam.inverse()
    for part in np.unique(labels):
        pts = world_pts[labels == part]

        if robot_links:
            keep = np.ones(len(pts), dtype=bool)
            for link in robot_links:
                margin = link.radius * (params.robot_margin_scale - 1.0)
                keep &= ~link.contains(pts, radial_margin=margin)
            pts = pts[keep]

        pts = voxel_downsample(pts, params.voxel)
        if len(pts):
            cam_z = cam_from_world.apply(pts)[:, 2]
            pts = passthrough(pts, cam_z, params.range_min, params.range_max)
        pts = largest_euclidean_cluster(pts, params.cluster_radius, params.cluster_min)
        if len(pts):
            clouds.append(KeypartCloud(int(part), pts, camera))
    return clouds

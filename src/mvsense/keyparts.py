"""Keypart masks and point-cloud extraction.

A keypart visible to a camera is enveloped in the image by an isosceles
trapezoid: bases perpendicular to the projected axis, base half-lengths
proportional to focal_length * radius / depth. One call places a camera's
trapezoids straight from the frame's fused keypoint table. They are painted
far-to-near so nearer parts own contested pixels, then each labeled
depth pixel is lifted to a world point and the per-part clouds are
cleaned (robot-envelope removal, voxel/range/cluster filters).

Painting tests each trapezoid's whole pixel box at once, by edge
functions that are one term per row and one per column, and
interpolates its depth the same way; a trapezoid's corners are computed
once. Extraction makes one pass per camera: it lifts the labeled pixels
at the voxel's footprint, each only on every ``s``-th image row and
column for a stride ``s`` from its paint depth (two samples per voxel
side), and every pixel of a part that a robot link cuts; removes robot
points, voxel-downsamples and range-gates all parts together, which
leaves the centroids in (part, voxel-key) order, and then clusters each
part's contiguous slice.

Per-part and per-trapezoid scalars are Python floats: each part end's
mean anchor and depth, the half-lengths and the corners. numpy runs only
on stacked keypoints and pixels, because at 144x112 a frame paints about
1600 pixels and pays more for numpy's per-call cost than for the pixels.
The floats keep every bit. Python's ``+ - * /`` are the same correctly
rounded IEEE-754 double operations as numpy's elementwise ufuncs, and
each float repeats the array code's order of operations; ``np.mean``
over fewer than 8 rows adds them one after another from 0.0 and divides
once, and so does the float loop. Products that numpy hands to BLAS stay
on arrays (``@``, ``np.linalg.norm``): with OpenBLAS 0.3.31's Haswell
kernels, ``a @ a`` of a random 2-vector differed from ``x*x + y*y`` in
16% of 100k cases, and ``v.dot(v)`` of a 3-vector from
``(x*x + y*y) + z*z`` in 21% of 300k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import body
from .filters import largest_euclidean_cluster, voxel_downsample
from .geometry import Intrinsics, RigidTransform, inside_any, project, reproject
from .keypoints import NoValidDepth, slice_depth

BACKGROUND = -1

# Lifted samples per voxel side. A voxel spans voxel * focal / depth
# pixels of a surface facing the camera, and all of them average into one
# centroid. Any run of that many pixels holds at least two multiples of
# the stride, so a voxel the surface fills keeps samples until tilt
# halves its footprint (60 degrees). Three per side saved about a fifth
# as much time per 640x480 frame.
LIFT_SAMPLES_PER_VOXEL = 2

# The pipeline's ``inflation`` for ``project_keypoints_to_mask``
MASK_INFLATION = 1.2


def base_half_length(focal: float, depth: float, radius: float) -> float:
    """Projected cylinder half-width in pixels at a given depth."""
    if depth <= 0 or not math.isfinite(depth):
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

    def depth_at(self, u, v) -> np.ndarray:
        """Expected part depth at pixel (u, v), interpolated between the bases.

        ``u`` and ``v`` broadcast as in ``contains``: a row of columns and a
        column of rows give the depth over a whole pixel box, each pixel's
        axial term the sum of one term per column and one per row. The terms
        are elementwise, so a pixel's depth does not depend on how many
        pixels share the call (a matrix product rounds by row count).
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        axis = self.mid_lower - self.mid_upper
        n2 = float(axis @ axis)
        if n2 < 1e-12:
            return np.full(np.broadcast_shapes(u.shape, v.shape), self.paint_depth)
        (x0, y0), (ax, ay) = self.mid_upper.tolist(), axis.tolist()
        t = ((u - x0) * ax + (v - y0) * ay) / n2
        t.clip(0.0, 1.0, out=t)
        return self.paint_depth_upper + t * (self.paint_depth_lower - self.paint_depth_upper)

    @functools.cached_property
    def corners(self) -> np.ndarray:
        """Corner pixels in consistent winding (upper pair, lower pair),
        computed once per trapezoid and read-only."""
        axis = self.mid_lower - self.mid_upper
        n = np.linalg.norm(axis)
        if n < 1e-9:
            # degenerate end-on view: paint a square patch
            perp = np.array([1.0, 0.0])
            axis_u = np.array([0.0, 1.0])
            half = max(self.len_upper, self.len_lower)
            a = self.mid_upper - axis_u * half
            b = self.mid_lower + axis_u * half
            corners = np.array([a - perp * half, a + perp * half,
                                b + perp * half, b - perp * half])
        else:
            # the unit axis turned a quarter, in floats: the same elementwise
            # operations as on the arrays
            (ax, ay), (x0, y0), (x1, y1) = \
                axis.tolist(), self.mid_upper.tolist(), self.mid_lower.tolist()
            px, py = -(ay / n), ax / n
            lu, ll = self.len_upper, self.len_lower
            corners = np.array([(x0 - px * lu, y0 - py * lu), (x0 + px * lu, y0 + py * lu),
                                (x1 + px * ll, y1 + py * ll), (x1 - px * ll, y1 - py * ll)])
        corners.flags.writeable = False
        return corners

    def contains(self, u, v) -> np.ndarray:
        """Point-in-convex-quad test at pixel (u, v); the boundary is inside.

        ``u`` and ``v`` broadcast: a row of columns and a column of rows
        test a whole pixel box, with each edge function one term per
        column, one per row and one subtraction per pixel.
        """
        corners = self.corners.tolist()
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        edges = list(zip(corners, corners[1:] + corners[:1]))
        # winding orientation from the shoelace sum
        area2 = 0.0
        for (ax, ay), (bx, by) in edges:
            area2 += ax * by - bx * ay
        orient = 1.0 if area2 >= 0 else -1.0
        # Edge function orient * (e0 (v - a1) - e1 (u - a0)) for e = b - a,
        # the four edges stacked on a first axis. Negation is exact, so the
        # sign moves onto e with the same bits. A pixel is inside when the
        # least of the four is at least -1e-9.
        ax, ay, ex, ey = np.array(
            [(ax, ay, orient * (bx - ax), orient * (by - ay)) for (ax, ay), (bx, by) in edges]
        ).T.reshape((4, 4) + (1,) * max(u.ndim, v.ndim))
        edge = ex * (v - ay) - ey * (u - ax)
        return edge.min(axis=0) >= -1e-9


@dataclass
class MaskImage:
    """Per-pixel keypart label plus the depth it was painted at.

    ``labels`` and ``depths`` cover a window of the image whose first
    pixel is ``origin`` (row, column); every pixel outside it is
    background. ``shape`` is the whole image's (height, width), by default
    the window's.
    """

    labels: np.ndarray
    depths: np.ndarray
    origin: tuple = (0, 0)
    shape: tuple | None = None

    def __post_init__(self):
        if self.shape is None:
            self.shape = self.labels.shape

    @staticmethod
    def blank(width: int, height: int, origin=(0, 0), shape=None) -> "MaskImage":
        """A background window of width x height pixels at ``origin``."""
        return MaskImage(
            np.full((height, width), BACKGROUND, dtype=np.int16),
            np.full((height, width), np.inf, dtype=np.float64),
            origin, shape,
        )

    def expanded(self) -> "MaskImage":
        """The same mask over the whole image."""
        whole = MaskImage.blank(self.shape[1], self.shape[0])
        r0, c0 = self.origin
        h, w = self.labels.shape
        whole.labels[r0:r0 + h, c0:c0 + w] = self.labels
        whole.depths[r0:r0 + h, c0:c0 + w] = self.depths
        return whole


@dataclass
class KeypartCloud:
    """Extracted world-frame points for one keypart from one camera."""

    part: int
    points: np.ndarray


# (proximal, distal) keypoints whose anchors average into each part's base
# midpoints: the torso runs shoulders to hips, the head face to shoulders,
# a limb its edge keypoint to its distal one
PART_ENDS = {
    body.TORSO: ((body.L_SHOULDER, body.R_SHOULDER), (body.L_HIP, body.R_HIP)),
    body.HEAD: (body.PART_KEYPOINTS[body.HEAD], (body.L_SHOULDER, body.R_SHOULDER)),
    **{part: ((body.EDGE_KEYPOINT[part],), (distal,))
       for part, distal in body.DISTAL_KEYPOINT.items()},
}


def project_keypoints_to_mask(fused: np.ndarray, detection: tuple,
                              world_from_cam: RigidTransform, k: Intrinsics,
                              depth_image: np.ndarray, slice_radius: int, parts,
                              radii, inflation: float) -> list:
    """The camera's trapezoids of the given parts, in ``parts`` order.

    ``fused`` is the frame's (17, 3) world-frame keypoint table and
    ``detection`` this camera's (17, 2) pixels and (17,) confidences. Each
    keypoint of the parts gets a mask anchor: a fused keypoint is projected
    through the camera, all rows in one stacked product, and its paint
    depth is the camera-frame z; a keypoint with a NaN row falls back to
    the camera's detected pixel with a locally sliced depth, if the camera
    gave it a confidence above 0. A keypoint that projects behind the
    camera or carries no usable depth has no anchor.

    A part's base midpoints and paint depths are the mean anchors of its
    two ``PART_ENDS``; a part with an end that has no anchor gets no
    trapezoid. Half-lengths follow focal * radius / depth with the part's
    radius from ``radii``, widened by ``inflation`` because the
    first-order width slightly undercuts a close silhouette.
    """
    pixels, confidences = detection
    anchor_px = np.full((body.NUM_KEYPOINTS, 2), np.nan)
    anchor_depth = np.full(body.NUM_KEYPOINTS, np.nan)
    wanted = body.PART_KEYPOINT_MASK[list(parts)].any(axis=0)
    cam_from_world = world_from_cam.inverse()
    cam = np.matmul(cam_from_world.rotation, fused[..., None])[..., 0] \
        + cam_from_world.translation
    z = cam[:, 2]
    unfused = np.isnan(fused[:, 0])
    front = wanted & ~unfused & (z > 0)
    anchor_px[front] = project(cam, k)[front]
    anchor_depth[front] = z[front]
    for kp in np.flatnonzero(wanted & unfused & (confidences > 0.0)).tolist():
        try:
            anchor_depth[kp] = slice_depth(pixels[kp], depth_image, slice_radius)
        except NoValidDepth:
            continue
        anchor_px[kp] = pixels[kp]

    anchor_px = anchor_px.tolist()
    anchor_depth = anchor_depth.tolist()
    trapezoids = []
    for part in parts:
        ends = []
        for kps in PART_ENDS[part]:
            kps = [kp for kp in kps if not math.isnan(anchor_depth[kp])]
            if not kps:
                break
            # np.mean's sum over fewer than 8 rows: from 0.0, one term after
            # another, then one division
            u = v = depth = 0.0
            for kp in kps:
                u += anchor_px[kp][0]
                v += anchor_px[kp][1]
                depth += anchor_depth[kp]
            n = len(kps)
            ends.append((np.array([u / n, v / n]), depth / n))
        if len(ends) < 2:
            continue
        (mid_upper, d_upper), (mid_lower, d_lower) = ends
        trapezoids.append(Trapezoid(
            part, mid_upper, mid_lower,
            base_half_length(k.focal, d_upper, radii[part]) * inflation,
            base_half_length(k.focal, d_lower, radii[part]) * inflation,
            d_upper, d_lower))
    return trapezoids


def paint_masks(trapezoids, width: int, height: int) -> MaskImage:
    """Painter's algorithm: far trapezoids first, nearer overwrite.

    Ownership: the label at a pixel is the trapezoid of minimum mean paint
    depth covering it, independent of input order. The stored per-pixel
    depth interpolates between the base paint depths, giving extraction a
    depth prior for the labeled part at that pixel.

    Each trapezoid is tested over its clipped pixel box at once, a row of
    column coordinates against a column of row coordinates (see
    ``Trapezoid.contains``), and so is its depth (``Trapezoid.depth_at``);
    the pixels inside are written in row-major order. The mask covers
    only the union window of the boxes: at 640x480 the trapezoids fill a
    few percent of the image.
    """
    painted = []
    for tz in sorted(trapezoids, key=lambda t: (-t.paint_depth, t.part)):
        # numpy's min and max keep a NaN corner, so the floor raises on it
        (umin, vmin), (umax, vmax) = tz.corners.min(axis=0).tolist(), \
            tz.corners.max(axis=0).tolist()
        u0 = max(0, math.floor(umin))
        u1 = min(width - 1, math.ceil(umax))
        v0 = max(0, math.floor(vmin))
        v1 = min(height - 1, math.ceil(vmax))
        if u1 >= u0 and v1 >= v0:
            painted.append((tz, u0, u1, v0, v1))
    if not painted:
        return MaskImage.blank(0, 0, shape=(height, width))
    _, u0s, u1s, v0s, v1s = zip(*painted)
    r0, c0 = min(v0s), min(u0s)
    mask = MaskImage.blank(max(u1s) + 1 - c0, max(v1s) + 1 - r0, (r0, c0), (height, width))
    for tz, u0, u1, v0, v1 in painted:
        us = np.arange(u0, u1 + 1, dtype=np.float64)
        vs = np.arange(v0, v1 + 1, dtype=np.float64)[:, None]
        inside = tz.contains(us, vs)
        box = (slice(v0 - r0, v1 + 1 - r0), slice(u0 - c0, u1 + 1 - c0))
        mask.labels[box][inside] = tz.part
        mask.depths[box][inside] = tz.depth_at(us, vs)[inside]
    return mask


def _rows_where(keep: np.ndarray, *arrays) -> list:
    """The rows of each array where ``keep`` is true, in order.

    ``np.take`` by index gathers rows about three times faster than a
    boolean index does.
    """
    index = np.flatnonzero(keep)
    return [np.take(a, index, axis=0) for a in arrays]


def lift_stride(paint_depth: np.ndarray, voxel: float, focal: float) -> np.ndarray:
    """Pixel stride per paint depth: floor(voxel * focal / (2 * depth)), at least 1.

    The cast truncates, which is the floor for the positive depths that
    painting stores.
    """
    reach = voxel * focal / (LIFT_SAMPLES_PER_VOXEL * paint_depth)
    return np.maximum(reach.astype(np.intp), 1)


@dataclass(frozen=True)
class CloudParams:
    # the voxel edge also sets the lift stride (see ``lift_stride``)
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
                   robot_links=(), params: CloudParams = CloudParams()) -> list:
    """Per-part world-frame clouds from a painted mask and a depth image.

    One pass over all labeled pixels: lift the pixels with valid depth
    that lie on their stride's grid (or belong to a part that a robot
    link cuts) and pass the depth gate, drop points
    inside any (inflated) robot-link cylinder, voxel-downsample with the
    part label as the first sort key, and range-gate every centroid on
    camera depth. The centroids then come in (part, voxel-key) order, and
    each part's contiguous slice goes to ``largest_euclidean_cluster``;
    clouds are returned in part order.

    A pixel's stride ``s`` comes from its paint depth (``lift_stride``):
    two samples per voxel side on a surface facing the camera. It is
    lifted only where its image row and column are both multiples of
    ``s``, a grid in whole-image coordinates, so the lifted set does not
    depend on the window's origin. The grid is tested before the depth
    gate and the depth gather; at 144x112 beyond 0.75 m every stride is
    1. A part with a lifted point inside a robot link is then lifted at
    its other pixels too: the link leaves a rim of the part along it, and
    the stride would break that rim into pieces smaller than
    ``cluster_min``, so a cut part keeps the cloud it has at stride 1.

    The validity test runs only inside the mask's window, the union of
    its trapezoids' boxes, so no pass covers the whole image. Pixels are
    still taken in row-major order of the whole image, and the depth gate
    is evaluated at valid pixels only.
    """
    if mask.shape != depth_image.shape:
        raise ValueError("mask and depth image dimensions differ")
    clouds = []
    r0, c0 = mask.origin
    h, w = mask.labels.shape
    depth = depth_image[r0:r0 + h, c0:c0 + w]
    vs, us = np.nonzero((mask.labels != BACKGROUND) & np.isfinite(depth) & (depth > 0))
    # flat pixel indices: np.take gathers about twice as fast as [vs, us]
    in_window = vs * w + us
    vs += r0
    us += c0
    paint = np.take(mask.depths, in_window)
    stride = lift_stride(paint, params.voxel, k.focal)
    on_grid = (vs % stride == 0) & (us % stride == 0)
    # radius plus a (scale - 1) margin, not radius * scale: they round differently
    reach = [link.radius + link.radius * (params.robot_margin_scale - 1.0)
             for link in robot_links]

    def lift(keep):
        """Flat pixel index, label, world point and robot-link hit of the
        rows of ``keep`` that pass the depth gate, in row-major order."""
        v, u, i, z0 = _rows_where(keep, vs, us, in_window, paint)
        flat = v * depth_image.shape[1] + u
        z = np.take(depth_image, flat).astype(np.float64, copy=False)
        if params.depth_gate > 0:
            v, u, i, flat, z = _rows_where(np.abs(z - z0) <= params.depth_gate,
                                           v, u, i, flat, z)
        pts = world_from_cam.apply(reproject(np.column_stack([u, v]), z, k))
        hit = (inside_any(robot_links, pts, reach) if robot_links
               else np.zeros(len(pts), dtype=bool))
        return flat, np.take(mask.labels, i), pts, hit

    flat, labels, pts, hit = lift(on_grid)
    if not len(labels):
        return clouds
    parts = np.unique(labels)
    if hit.any():
        # a part that a link cuts is lifted at every pixel: the cut leaves a
        # rim along the link, which the stride would break into pieces
        # smaller than the cluster filter's minimum
        cut = ~on_grid & np.isin(np.take(mask.labels, in_window), labels[hit])
        flat, labels, pts, hit = [np.concatenate(pair) for pair in zip(
            (flat, labels, pts, hit), lift(cut))]
        # back to row-major order, in which each voxel sums its points
        order = np.argsort(flat, kind="stable")
        labels, pts, hit = [np.take(a, order, axis=0) for a in (labels, pts, hit)]
    pts, labels = _rows_where(~hit, pts, labels)

    pts, labels = voxel_downsample(pts, labels, params.voxel)
    if len(pts):
        cam_z = world_from_cam.inverse().apply(pts)[:, 2]
        keep = (cam_z >= params.range_min) & (cam_z <= params.range_max)
        pts, labels = _rows_where(keep, pts, labels)
    # every part that had a pixel is clustered, even when its slice is empty
    bounds = np.searchsorted(labels, parts, side="right")
    start = 0
    for part, stop in zip(parts, bounds):
        kept = largest_euclidean_cluster(pts[start:stop], params.cluster_radius,
                                         params.cluster_min)
        start = stop
        if len(kept):
            clouds.append(KeypartCloud(int(part), kept))
    return clouds

"""Synthetic multi-camera RGB-D scene: the test oracle for the pipeline.

The scene holds a ground-truth cylinder human on a scripted 24-DOF
trajectory, a robot arm proxy (a chain of link cylinders on its own
script), and pan-tilt camera rigs. It renders depth images and tests
keypoint occlusion with one ray-cylinder kernel, ``geometry.cast_rays``,
and emits detector-like keypoint observations whose confidences reflect
occlusion and field of view. A render casts each cylinder only through
the pixels of its projected footprint, and depth noise is drawn for hit
pixels only, so its cost follows the body's size in the image, not the
pixel count. Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import body
from .body import HumanPose, PartDimensions, pose_from_dofs
from .geometry import (
    Cylinder,
    Intrinsics,
    RigidTransform,
    cast_rays,
    rot_x,
    rot_y,
)
from .keypoints import Observation2D

# rng stream labels
STREAM_DEPTH = 0
STREAM_DETECT = 1


def camera_mount(position, yaw: float, pitch: float) -> RigidTransform:
    """Camera-to-world mount pose: z forward along (yaw, pitch), y down.

    yaw rotates about world z (0 = +x direction); positive pitch looks up.
    """
    cp, sp = np.cos(pitch), np.sin(pitch)
    fwd = np.array([cp * np.cos(yaw), cp * np.sin(yaw), sp])
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(fwd, up)
    n = np.linalg.norm(x)
    if n < 1e-9:  # straight up/down: pick a deterministic lateral axis
        x = np.array([np.cos(yaw + np.pi / 2), np.sin(yaw + np.pi / 2), 0.0])
    else:
        x = x / n
    y = np.cross(fwd, x)
    return RigidTransform(np.column_stack([x, y, fwd]), np.asarray(position, dtype=np.float64))


@dataclass
class CameraRig:
    """One pan-tilt camera: intrinsics, mount pose and servo state."""

    rig_id: str
    intrinsics: Intrinsics
    mount: RigidTransform
    pan: float = 0.0
    tilt: float = 0.0
    pan_limits: tuple = (-1.2, 1.2)
    tilt_limits: tuple = (-0.8, 0.8)
    max_rate: float = 1.5
    active: bool = True
    target_pan: float = 0.0
    target_tilt: float = 0.0

    def __post_init__(self):
        self.pan = float(np.clip(self.pan, *self.pan_limits))
        self.tilt = float(np.clip(self.tilt, *self.tilt_limits))
        self.target_pan = self.pan
        self.target_tilt = self.tilt

    def world_pose(self, pan: float | None = None, tilt: float | None = None) -> RigidTransform:
        """Camera-to-world pose: mount, then pan about local y, tilt about local x."""
        p = self.pan if pan is None else pan
        t = self.tilt if tilt is None else tilt
        gimbal = RigidTransform._trusted(rot_y(p) @ rot_x(t), np.zeros(3))
        return self.mount.compose(gimbal)

    def command(self, pan: float, tilt: float) -> None:
        self.target_pan = float(np.clip(pan, *self.pan_limits))
        self.target_tilt = float(np.clip(tilt, *self.tilt_limits))

    def step(self, dt: float) -> None:
        """Move toward the commanded angles at no more than max_rate."""
        move = self.max_rate * dt
        self.pan += float(np.clip(self.target_pan - self.pan, -move, move))
        self.tilt += float(np.clip(self.target_tilt - self.tilt, -move, move))


@dataclass
class GroundTruthHuman:
    """Scripted human: time-stamped 24-DOF waypoints, linearly interpolated."""

    times: np.ndarray
    dofs: np.ndarray  # (T, 24)
    dims: PartDimensions = field(default_factory=PartDimensions)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.dofs = np.asarray(self.dofs, dtype=np.float64)
        if self.dofs.shape != (len(self.times), body.TOTAL_DOF):
            raise ValueError("dof waypoints must be (T, 24)")
        if len(self.times) == 0:
            raise ValueError("need at least one waypoint")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")

    def dofs_at(self, t: float) -> np.ndarray:
        if len(self.times) == 1 or t <= self.times[0]:
            return self.dofs[0].copy()
        if t >= self.times[-1]:
            return self.dofs[-1].copy()
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.dofs[i] + w * self.dofs[i + 1]

    def pose_at(self, t: float) -> HumanPose:
        return pose_from_dofs(self.dofs_at(t), self.dims)


@dataclass
class RobotArmProxy:
    """Chain of cylinder links whose joint positions follow waypoints."""

    times: np.ndarray
    joints: np.ndarray  # (T, J, 3)
    radius: float = 0.07

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 3 or self.joints.shape[0] != len(self.times):
            raise ValueError("joint waypoints must be (T, J, 3)")

    def joints_at(self, t: float) -> np.ndarray:
        if len(self.times) == 1 or t <= self.times[0]:
            return self.joints[0].copy()
        if t >= self.times[-1]:
            return self.joints[-1].copy()
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        t0, t1 = self.times[i], self.times[i + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.joints[i] + w * self.joints[i + 1]

    def links_at(self, t: float) -> list:
        pts = self.joints_at(t)
        out = []
        for a, b in zip(pts[:-1], pts[1:]):
            if np.linalg.norm(b - a) > 1e-9:
                out.append(Cylinder.from_endpoints(a, b, self.radius))
        return out


@dataclass(frozen=True)
class DetectorNoise:
    """Synthetic keypoint-detector confidence model."""

    sigma_px: float = 1.5
    c_hi: float = 0.9
    c_occ: float = 0.15
    c_out: float = 0.05


@dataclass(frozen=True)
class DepthNoise:
    sigma_d: float = 0.005
    p_drop: float = 0.02


@dataclass
class Scene:
    """Simulated world state stepped by a single owner."""

    human: GroundTruthHuman
    robot: RobotArmProxy | None
    rigs: list
    seed: int = 0
    detector_noise: DetectorNoise = field(default_factory=DetectorNoise)
    depth_noise: DepthNoise = field(default_factory=DepthNoise)
    t: float = 0.0
    frame_index: int = 0

    def rng(self, stream: int, rig_index: int) -> np.random.Generator:
        """Deterministic stream keyed by (seed, frame, rig, purpose)."""
        ss = np.random.SeedSequence([self.seed, self.frame_index, rig_index, stream])
        return np.random.Generator(np.random.PCG64(ss))

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        for rig in self.rigs:
            rig.step(dt)
        self.t += dt
        self.frame_index += 1


_RAY_CACHE: dict = {}


def _cached_rays(k: Intrinsics) -> np.ndarray:
    """Camera-frame ray directions with z = 1 per pixel, shape (H, W, 3)."""
    key = (k.fx, k.fy, k.cx, k.cy, k.width, k.height)
    if key not in _RAY_CACHE:
        vs, us = np.mgrid[0:k.height, 0:k.width]
        rays = np.empty((k.height, k.width, 3))
        rays[..., 0] = (us - k.cx) / k.fx
        rays[..., 1] = (vs - k.cy) / k.fy
        rays[..., 2] = 1.0
        _RAY_CACHE[key] = rays
    return _RAY_CACHE[key]


def _cylinder_pixel_bbox(ends: np.ndarray, radius: np.ndarray, k: Intrinsics) -> tuple:
    """Conservative image bbox of each cylinder: ``(visible, low, high)``.

    ``ends`` (n, 2, 3) holds each cylinder's base and top in camera
    coordinates. ``low`` and ``high`` (n, 2) are the inclusive (u, v)
    pixel bounds, whole numbers as floats. The box is the whole image
    when a cylinder nears the image plane, which covers a camera inside
    it. A cylinder is not visible when no point of it can be in front of
    the camera (both ends at least a radius behind) or its box misses
    the image. ``render_depth`` casts inside this box only.

    All cylinders are computed at once, from ends moved into the camera
    by one product. An end may then differ in its last bit from a move of
    that end alone, and a box edge by one pixel, inside the box's 2 px
    margin.
    """
    z = ends[..., 2]
    near = z.min(axis=1) - radius
    whole = near <= 0.05
    uv = ends[..., :2] / np.where(whole[:, None], 1.0, z)[..., None] * (k.fx, k.fy) + (k.cx, k.cy)
    # sphere bound: projected radius grows as the sphere nears the camera
    pad = (max(k.fx, k.fy) * radius / np.where(whole, 1.0, near) + 2.0)[:, None]
    size = (k.width - 1, k.height - 1)
    low = np.where(whole[:, None], 0.0, np.maximum(np.floor(uv.min(axis=1) - pad), 0.0))
    high = np.where(whole[:, None], size, np.minimum(np.ceil(uv.max(axis=1) + pad), size))
    visible = (z.max(axis=1) + radius > 0.0) & (high >= low).all(axis=1)
    return visible, low, high


# rows of the bounding box corners as weights of (base, h axis, r e1, r e2):
# the four corners around the base, then the four around the top
_CORNERS = np.array([[1.0, end, s1, s2] for end in (0.0, 1.0)
                     for s1, s2 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))])
_AXIS_WEIGHTS = np.array([-0.25] * 4 + [0.25] * 4)


def _pixel_spans(cylinders, cam_from_world, k: Intrinsics) -> tuple:
    """The pixels ``render_depth`` casts per cylinder, as row spans.

    Returns ``(cylinder, row, first column, length)`` arrays, one entry per
    row of each visible cylinder's ``_cylinder_pixel_bbox``, in cylinder
    then row order; a length may be 0.

    The span is the row's crossing of the cylinder's footprint: the image
    of its oriented bounding box (the ends +- r e1 +- r e2, with e1 and e2
    unit vectors across the axis), bounded by a rectangle along the
    projected axis and across it and widened by 1 px on each side. The box
    holds the cylinder, and when it lies in front of the camera its image
    is the hull of its projected corners, so every pixel whose ray can hit
    the cylinder lies in the rectangle; the margin absorbs rounding. All
    cylinders are computed at once: numpy's per-call cost makes a loop
    over cylinders slower than the rays it saves at 144x112.

    The whole box row is cast instead when a corner is within 0.05 of the
    camera plane or behind it, when the projected axis is shorter than
    1e-3 px, and when the footprint holds one pixel of a larger box: a
    one-row product rounds differently from a multi-row one, so that pixel
    would not keep the bits of the box cast.
    """
    if not len(cylinders):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    g = np.array([cyl.base.tolist() + cyl.axis.tolist() + [cyl.height, cyl.radius]
                  for cyl in cylinders])
    r = g[:, 7]
    # (base, h axis, r e1, r e2) per cylinder in camera coordinates
    basis = np.empty((len(g), 4, 3))
    basis[:, :2] = g[:, :6].reshape(-1, 2, 3) @ cam_from_world.rotation.T
    basis[:, 0] += cam_from_world.translation
    ax, ay, az = basis[:, 1].T.copy()
    basis[:, 1] *= g[:, 6:7]
    visible, low, high = _cylinder_pixel_bbox(
        np.stack([basis[:, 0], basis[:, 0] + basis[:, 1]], axis=1), r, k)
    # e1, e2 across the axis without a branch (Duff et al. 2017)
    sign = np.copysign(1.0, az)
    c = -1.0 / (sign + az)
    d = ax * ay * c
    basis[:, 2, 0] = r + sign * ax * ax * c * r
    basis[:, 2, 1] = sign * d * r
    basis[:, 2, 2] = -sign * ax * r
    basis[:, 3, 0] = d * r
    basis[:, 3, 1] = sign * r + ay * ay * c * r
    basis[:, 3, 2] = -ay * r
    index = np.flatnonzero(visible)
    low, high = low[index], high[index]
    corners = _CORNERS @ basis[index]  # (n, 8, 3)
    z = corners[..., 2:]
    front = z.min(axis=1)[:, 0] > 0.05
    # a corner near or behind the camera plane leaves the box cast; keep
    # its division finite
    uv = corners[..., :2] / np.maximum(z, 0.05) * (k.fx, k.fy) + (k.cx, k.cy)
    # projected axis direction, from the mean corner of each end
    e = _AXIS_WEIGHTS @ uv
    length = np.hypot(e[:, 0], e[:, 1])
    footprint = front & (length > 1e-3)
    length[~footprint] = 1.0
    e /= length[:, None]
    # the rectangle: bottom <= du u + dv v <= top along e, (du, dv) = e,
    # and across it, (du, dv) = (-e_v, e_u)
    du, dv = np.empty((2, len(index), 2))
    du[:, 0], du[:, 1], dv[:, 0], dv[:, 1] = e[:, 0], -e[:, 1], e[:, 1], e[:, 0]
    image = uv[..., :1] * du[:, None] + uv[..., 1:] * dv[:, None]  # (n, 8, 2)
    du[np.abs(du) < 1e-12] = 1e-12  # moves du u by under 1e-8 px
    bottom = (image.min(axis=1) - 1.0) / du
    top = (image.max(axis=1) + 1.0) / du
    # in row v the columns run from min(bottom, top) - slope v to
    # max(bottom, top) - slope v for both directions
    coef = np.concatenate([np.minimum(bottom, top), np.maximum(bottom, top), dv / du,
                           low, high], axis=1)

    rows = (high[:, 1] - low[:, 1]).astype(np.int64) + 1
    first_row = np.cumsum(rows) - rows
    from_a, from_b, to_a, to_b, slope_a, slope_b, u0, v0, u1, _ = np.repeat(coef, rows, axis=0).T
    row = np.arange(len(v0)) - np.repeat(first_row, rows) + v0
    lo = np.ceil(np.maximum(np.maximum(from_a - slope_a * row, from_b - slope_b * row), u0))
    hi = np.floor(np.minimum(np.minimum(to_a - slope_a * row, to_b - slope_b * row), u1))
    spans = np.maximum(hi - lo + 1.0, 0.0)
    box_size = rows * (high[:, 0] - low[:, 0] + 1.0)
    footprint &= (np.add.reduceat(spans, first_row) != 1.0) | (box_size == 1.0)
    use = np.repeat(footprint, rows)
    first = np.where(use, lo, u0).astype(np.int64)
    spans = np.where(use, spans, u1 - u0 + 1.0).astype(np.int64)
    return np.repeat(index, rows), row.astype(np.int64), first, spans


def render_depth(rig: CameraRig, cylinders, noise: DepthNoise | None = None,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Ray-cast depth image; misses are 0, depth is camera-frame z.

    Rays use z=1 direction scaling so the intersection parameter is the
    camera depth directly. Each cylinder is cast only through the pixels
    of its footprint (``_pixel_spans``): per row of its conservative
    bounding box, the columns that the image of its oriented bounding box
    can cover. About half the box pixels are cast at 640x480, and every
    pixel gets the bits a cast of the whole box gives it. All cylinders go
    through one ``geometry.cast_rays`` call, in blocks of whole cylinders
    small enough to keep the temporaries in L2. Rotating a cylinder's rays
    into the world, like the kernel's products with an axis, stays one
    BLAS call per cylinder, because a batched product rounds differently;
    a row of a multi-row product keeps its bits whichever rows share it.

    Optional Gaussian depth noise and dropout touch hit pixels only: one
    ``normal`` and then one ``random`` draw of one value per hit pixel, in
    row-major order. Misses stay exactly 0.0, and any noisy depth at or
    below 1e-6 becomes a miss. At 640x480 about a tenth of the pixels are
    hit, and drawing for every pixel took about a third of a render.
    The nearest-hit reduction (exact, so in any order), the hit test and
    the write-back run only over the union window of the spans; the rest
    of the image is zeros.
    """
    k = rig.intrinsics
    pose = rig.world_pose()
    cyl, row, first, spans = _pixel_spans(cylinders, pose.inverse(), k)
    # rays per cylinder, leaving out those whose spans are all empty
    counts = np.bincount(cyl, weights=spans, minlength=len(cylinders)).astype(np.int64)
    index = np.flatnonzero(counts)
    counts = counts[index]
    cast = spans > 0
    row, first, spans = row[cast], first[cast], spans[cast]
    depth = np.zeros((k.height, k.width))
    if not len(row):
        return depth
    # every hit lies in the union window of the spans; row-major order
    # inside it is the whole image's order, so the draws land alike
    v0, v1 = row.min(), row.max() + 1
    u0, u1 = first.min(), (first + spans).max()
    # flat pixel indices, row-major per cylinder, in the image and the window
    start = np.cumsum(spans) - spans
    ray = np.arange(start[-1] + spans[-1])
    pixel = ray + np.repeat(row * k.width + first - start, spans)
    in_window = ray + np.repeat((row - v0) * (u1 - u0) + first - u0 - start, spans)
    rays = np.take(_cached_rays(k).reshape(-1, 3), pixel, axis=0)
    dirs = [rays[e - c:e] @ pose.rotation.T for c, e in zip(counts, np.cumsum(counts))]
    t = cast_rays(pose.translation, dirs, [cylinders[i] for i in index])

    near = np.full((v1 - v0, u1 - u0), np.inf)
    np.minimum.at(near.reshape(-1), in_window, t)
    hit = near < np.inf
    d = near[hit]
    if noise is not None and rng is not None:
        if noise.sigma_d > 0:
            d += rng.normal(0.0, noise.sigma_d, len(d))
        if noise.p_drop > 0:
            d[rng.random(len(d)) < noise.p_drop] = 0.0
        d[~(d > 1e-6)] = 0.0
    depth[v0:v1, u0:u1][hit] = d
    return depth


# _OWN_KEYPOINTS[part, kp]: the keypoint is on the part, whose surface cannot occlude it
_OWN_KEYPOINTS = np.array([[kp in body.PART_KEYPOINTS[p] for kp in range(body.NUM_KEYPOINTS)]
                           for p in range(body.NUM_KEYPARTS)])


def occlusion_mask(camera_pos: np.ndarray, keypoints_world: np.ndarray,
                   cylinders_by_part: dict, extra_cylinders=()) -> np.ndarray:
    """Occlusion flags for the 17 keypoints, from one ``cast_rays`` call.

    A keypoint is occluded when its sight line from the camera hits a
    cylinder more than 1 cm before it, other than its own parts' surface.
    """
    d = keypoints_world - camera_pos[None, :]
    dist = np.linalg.norm(d, axis=1)
    rays = d / np.maximum(dist, 1e-9)[:, None]
    cyls = list(cylinders_by_part.values()) + list(extra_cylinders)
    t = cast_rays(camera_pos, [rays] * len(cyls), cyls)
    blocked = t.reshape(len(cyls), len(rays)) < dist - 0.01
    blocked[:len(cylinders_by_part)] &= ~_OWN_KEYPOINTS[list(cylinders_by_part)]
    return blocked.any(axis=0)


def synthetic_detect(rig: CameraRig, pose: HumanPose, robot_links=(),
                     noise: DetectorNoise | None = None,
                     rng: np.random.Generator | None = None,
                     timestamp: float = 0.0) -> list:
    """Detector-contract observations for all 17 keypoints.

    Confidence is c_hi for a free view, c_hi * c_occ when the sight line
    is blocked, and c_out outside the image. Pixels get Gaussian noise
    and are clamped into the image bounds.
    """
    noise = noise or DetectorNoise()
    cam_pose = rig.world_pose()
    k = rig.intrinsics
    parts = {p: pose.states[p].cylinder() for p in range(body.NUM_KEYPARTS)}
    targets = pose.keypoint_array()
    cam_pts = cam_pose.inverse().apply(targets)
    occluded = occlusion_mask(cam_pose.translation, targets, parts, robot_links)

    z = cam_pts[:, 2]
    front = z > 0.05
    zs = np.where(front, z, 1.0)
    uv = np.column_stack([k.fx * cam_pts[:, 0] / zs + k.cx, k.fy * cam_pts[:, 1] / zs + k.cy])
    pixel = np.where(front[:, None], uv, 0.0)
    inside = front & (pixel >= 0.0).all(axis=1) & (pixel < [k.width, k.height]).all(axis=1)
    conf = np.where(inside, np.where(occluded, noise.c_hi * noise.c_occ, noise.c_hi), noise.c_out)
    if rng is not None and noise.sigma_px > 0:
        pixel = pixel + rng.normal(0.0, noise.sigma_px, pixel.shape)
    pixel = np.clip(pixel, 0.0, [k.width - 1, k.height - 1])
    return [Observation2D(kp, pixel[kp], float(conf[kp]), rig.rig_id, timestamp)
            for kp in range(body.NUM_KEYPOINTS)]


class SyntheticDetector:
    """Detector-interface adapter over ``synthetic_detect``.

    ``infer`` takes a ``(rig, pose, occluders, noise, rng, timestamp)``
    frame handle, the arguments of ``synthetic_detect``, and returns the
    17 (pixel, confidence) pairs that ``keypoints.detect`` expects.
    """

    def infer(self, frame) -> list:
        return [(o.pixel, o.confidence) for o in synthetic_detect(*frame)]

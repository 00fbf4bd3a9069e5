"""Synthetic multi-camera RGB-D scene: the test oracle for the pipeline.

The scene holds a ground-truth cylinder human on a scripted 24-DOF
trajectory, a robot arm proxy (a chain of link cylinders on its own
script), and pan-tilt camera rigs. It renders depth images and tests
keypoint occlusion with one ray-cylinder kernel, ``geometry.cast_rays``,
and emits detector-like keypoint observations whose confidences reflect
occlusion and field of view. Depth noise is drawn for hit pixels only, so
its cost follows the body's size in the image, not the pixel count.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import math
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
from .keypoints import Heatmap, Observation2D

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

    def cylinders(self, pose: HumanPose | None = None) -> list:
        """All scene cylinders, human parts first then robot links."""
        pose = pose or self.human.pose_at(self.t)
        cyls = [pose.states[p].cylinder() for p in range(body.NUM_KEYPARTS)]
        if self.robot is not None:
            cyls.extend(self.robot.links_at(self.t))
        return cyls

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


def _cylinder_pixel_bbox(cyl: Cylinder, cam_from_world, k: Intrinsics):
    """Conservative image bbox (u0, u1, v0, v1), inclusive, of a cylinder.

    The whole image when the cylinder nears the image plane; None when it
    is fully behind the camera or off view.
    """
    x0, y0, z0 = cam_from_world.apply(cyl.base).tolist()
    x1, y1, z1 = cam_from_world.apply(cyl.top).tolist()
    if z0 <= 0.05 and z1 <= 0.05:
        return None
    near = min(z0 - cyl.radius, z1 - cyl.radius)
    if near <= 0.05:
        return (0, k.width - 1, 0, k.height - 1)
    us = (k.fx * x0 / z0 + k.cx, k.fx * x1 / z1 + k.cx)
    vs = (k.fy * y0 / z0 + k.cy, k.fy * y1 / z1 + k.cy)
    # sphere bound: projected radius grows as the sphere nears the camera
    pad = max(k.fx, k.fy) * cyl.radius / near + 2.0
    u0 = max(0, math.floor(min(us) - pad))
    u1 = min(k.width - 1, math.ceil(max(us) + pad))
    v0 = max(0, math.floor(min(vs) - pad))
    v1 = min(k.height - 1, math.ceil(max(vs) + pad))
    if u1 < u0 or v1 < v0:
        return None
    return (u0, u1, v0, v1)


def render_depth(rig: CameraRig, cylinders, noise: DepthNoise | None = None,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Ray-cast depth image; misses are 0, depth is camera-frame z.

    Rays use z=1 direction scaling so the intersection parameter is the
    camera depth directly. Each cylinder is cast only through the pixels
    of its conservative bounding box, and all cylinders go through one
    ``geometry.cast_rays`` call, in blocks of whole cylinders small enough
    to keep the temporaries in L2. Rotating a box's rays into the world,
    like the kernel's products with an axis, stays one BLAS call per
    cylinder, because a batched product rounds differently.

    Optional Gaussian depth noise and dropout touch hit pixels only: one
    ``normal`` and then one ``random`` draw of one value per hit pixel, in
    row-major order. Misses stay exactly 0.0, and any noisy depth at or
    below 1e-6 becomes a miss. At 640x480 about a tenth of the pixels are
    hit, and drawing for every pixel took about a third of a render.
    """
    k = rig.intrinsics
    pose = rig.world_pose()
    inv = pose.inverse()
    rays_cam = _cached_rays(k)
    boxes, dirs, cast = [], [], []
    for cyl in cylinders:
        bbox = _cylinder_pixel_bbox(cyl, inv, k)
        if bbox is None:
            continue
        u0, u1, v0, v1 = bbox
        boxes.append((slice(v0, v1 + 1), slice(u0, u1 + 1)))
        dirs.append(rays_cam[boxes[-1]].reshape(-1, 3) @ pose.rotation.T)
        cast.append(cyl)
    t = cast_rays(pose.translation, dirs, cast)

    depth = np.full((k.height, k.width), np.inf)
    start = 0
    for box in boxes:
        view = depth[box]
        np.minimum(view, t[start:start + view.size].reshape(view.shape), out=view)
        start += view.size
    flat = depth.reshape(-1)
    hit = np.flatnonzero(flat < np.inf)
    d = flat[hit]
    if noise is not None and rng is not None:
        if noise.sigma_d > 0:
            d += rng.normal(0.0, noise.sigma_d, len(hit))
        if noise.p_drop > 0:
            d[rng.random(len(hit)) < noise.p_drop] = 0.0
        d[~(d > 1e-6)] = 0.0
    flat.fill(0.0)
    flat[hit] = d
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
    """Detector-interface adapter over synthetic_detect.

    ``infer`` consumes a (rig, pose, robot_links, rng, timestamp) frame
    handle. In heatmap mode it renders one Gaussian blob per keypoint at
    the observation pixel with the observation confidence as peak value.
    """

    def __init__(self, image_size, heatmaps: bool = False,
                 heatmap_size=None, blob_sigma: float = 2.0):
        self.image_size = tuple(image_size)
        self.heatmaps = heatmaps
        self.heatmap_size = tuple(heatmap_size or image_size)
        self.blob_sigma = blob_sigma

    def infer(self, frame):
        rig, pose, robot_links, noise, rng, timestamp = frame
        obs = synthetic_detect(rig, pose, robot_links, noise, rng, timestamp)
        if not self.heatmaps:
            return [(o.pixel, o.confidence) for o in obs]
        w, h = self.image_size
        hw, hh = self.heatmap_size
        out = []
        for o in obs:
            # map the image pixel into heatmap coordinates (center-aligned)
            u = (o.pixel[0] + 0.5) * hw / w - 0.5
            v = (o.pixel[1] + 0.5) * hh / h - 0.5
            us, vs = np.meshgrid(np.arange(hw), np.arange(hh))
            g = np.exp(-((us - u) ** 2 + (vs - v) ** 2) / (2 * self.blob_sigma ** 2))
            values = np.clip(o.confidence * g, 1e-6, 1.0 - 1e-6)
            out.append(Heatmap(values, o.keypoint))
        return out

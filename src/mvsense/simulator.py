"""Synthetic multi-camera RGB-D scene: the test oracle for the pipeline.

The scene holds a ground-truth cylinder human on a scripted 24-DOF
trajectory, a robot arm proxy (a chain of link cylinders on its own
script), and pan-tilt camera rigs. It renders depth images by ray
casting against all cylinders and emits detector-like keypoint
observations whose confidences reflect occlusion and field of view.
Everything is deterministic for a fixed seed.
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
    project,
    ray_cylinder_hits,
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
    """Conservative image bbox of a cylinder, or None (off-view / full view).

    Returns (u0, u1, v0, v1) inclusive, 'full' when the cylinder crosses
    the image plane (fall back to all pixels), or None when fully behind.
    """
    ends = np.stack([cam_from_world.apply(cyl.base), cam_from_world.apply(cyl.top)])
    z = ends[:, 2]
    if np.all(z <= 0.05):
        return None
    if np.any(z - cyl.radius <= 0.05):
        return "full"
    us = k.fx * ends[:, 0] / z + k.cx
    vs = k.fy * ends[:, 1] / z + k.cy
    # sphere bound: projected radius grows as the sphere nears the camera
    rad_px = max(k.fx, k.fy) * cyl.radius / max(float(np.min(z - cyl.radius)), 0.05)
    pad = rad_px + 2.0
    u0 = int(np.floor(us.min() - pad))
    u1 = int(np.ceil(us.max() + pad))
    v0 = int(np.floor(vs.min() - pad))
    v1 = int(np.ceil(vs.max() + pad))
    u0, u1 = max(0, u0), min(k.width - 1, u1)
    v0, v1 = max(0, v0), min(k.height - 1, v1)
    if u1 < u0 or v1 < v0:
        return None
    return (u0, u1, v0, v1)


def render_depth(rig: CameraRig, cylinders, noise: DepthNoise | None = None,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Ray-cast depth image; misses are 0, depth is camera-frame z.

    Rays use z=1 direction scaling so the intersection parameter is the
    camera depth directly. Each cylinder is intersected only inside its
    conservative projected bounding box. Optional Gaussian depth noise
    and dropout.
    """
    k = rig.intrinsics
    pose = rig.world_pose()
    inv = pose.inverse()
    rays_cam = _cached_rays(k)
    origin = pose.translation[None, :]

    depth = np.full((k.height, k.width), np.inf)
    for cyl in cylinders:
        bbox = _cylinder_pixel_bbox(cyl, inv, k)
        if bbox is None:
            continue
        if bbox == "full":
            u0, u1, v0, v1 = 0, k.width - 1, 0, k.height - 1
        else:
            u0, u1, v0, v1 = bbox
        sub = rays_cam[v0:v1 + 1, u0:u1 + 1].reshape(-1, 3)
        t = ray_cylinder_hits(origin, sub @ pose.rotation.T, cyl)
        t = t.reshape(v1 - v0 + 1, u1 - u0 + 1)
        view = depth[v0:v1 + 1, u0:u1 + 1]
        np.minimum(view, t, out=view)

    depth = np.where(np.isfinite(depth), depth, 0.0)
    if noise is not None and rng is not None:
        hit = depth > 0
        if noise.sigma_d > 0:
            depth = depth + np.where(hit, rng.normal(0.0, noise.sigma_d, depth.shape), 0.0)
        if noise.p_drop > 0:
            drop = rng.random(depth.shape) < noise.p_drop
            depth = np.where(drop, 0.0, depth)
        depth = np.where(depth > 1e-6, depth, 0.0)
    return depth.astype(np.float64)


def keypoint_occluded(camera_pos: np.ndarray, kp_world: np.ndarray,
                      keypoint: int, cylinders_by_part: dict,
                      extra_cylinders=()) -> bool:
    """Ray test from the camera to a keypoint against all other geometry.

    Cylinders of parts that contain the keypoint are excluded, so a joint
    is not occluded by its own limb surface.
    """
    d = kp_world - camera_pos
    dist = float(np.linalg.norm(d))
    if dist < 1e-9:
        return False
    d = d / dist
    own = {p for p, kps in body.PART_KEYPOINTS.items() if keypoint in kps}
    origin = camera_pos[None, :]
    ray = d[None, :]
    for part, cyl in cylinders_by_part.items():
        if part in own:
            continue
        t = ray_cylinder_hits(origin, ray, cyl)[0]
        if np.isfinite(t) and t < dist - 0.01:
            return True
    for cyl in extra_cylinders:
        t = ray_cylinder_hits(origin, ray, cyl)[0]
        if np.isfinite(t) and t < dist - 0.01:
            return True
    return False


def occlusion_mask(camera_pos: np.ndarray, keypoints_world: np.ndarray,
                   cylinders_by_part: dict, extra_cylinders=()) -> np.ndarray:
    """Occlusion flags for all 17 keypoints at once (one pass per cylinder)."""
    n = len(keypoints_world)
    d = keypoints_world - camera_pos[None, :]
    dist = np.linalg.norm(d, axis=1)
    safe = np.maximum(dist, 1e-9)
    rays = d / safe[:, None]
    origin = camera_pos[None, :]
    occluded = np.zeros(n, dtype=bool)
    for part, cyl in cylinders_by_part.items():
        t = ray_cylinder_hits(origin, rays, cyl)
        hit = np.isfinite(t) & (t < dist - 0.01)
        own = np.array([kp in body.PART_KEYPOINTS[part] for kp in range(n)])
        occluded |= hit & ~own
    for cyl in extra_cylinders:
        t = ray_cylinder_hits(origin, rays, cyl)
        occluded |= np.isfinite(t) & (t < dist - 0.01)
    return occluded


def keypoint_visibility(rig: CameraRig, pose: HumanPose, keypoint: int,
                        robot_links=()) -> str:
    """'visible', 'occluded', or 'out' for one keypoint in one camera."""
    cam_pose = rig.world_pose()
    kp = pose.keypoints[keypoint]
    try:
        pixel, _depth = project(kp, cam_pose, rig.intrinsics)
    except Exception:
        return "out"
    if not rig.intrinsics.contains(pixel):
        return "out"
    parts = {p: pose.states[p].cylinder() for p in range(body.NUM_KEYPARTS)}
    if keypoint_occluded(cam_pose.translation, kp, keypoint, parts, robot_links):
        return "occluded"
    return "visible"


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

    obs = []
    for kp in range(body.NUM_KEYPOINTS):
        z = cam_pts[kp, 2]
        if z <= 0.05:
            pixel = np.array([0.0, 0.0])
            conf = noise.c_out
        else:
            pixel = np.array([
                k.fx * cam_pts[kp, 0] / z + k.cx,
                k.fy * cam_pts[kp, 1] / z + k.cy,
            ])
            if not k.contains(pixel):
                conf = noise.c_out
            elif occluded[kp]:
                conf = noise.c_hi * noise.c_occ
            else:
                conf = noise.c_hi
        if rng is not None and noise.sigma_px > 0:
            pixel = pixel + rng.normal(0.0, noise.sigma_px, 2)
        pixel = np.array([
            float(np.clip(pixel[0], 0.0, k.width - 1)),
            float(np.clip(pixel[1], 0.0, k.height - 1)),
        ])
        obs.append(Observation2D(kp, pixel, float(conf), rig.rig_id, timestamp))
    return obs


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

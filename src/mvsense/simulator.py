"""Synthetic multi-camera RGB-D scene: the test oracle for the pipeline.

The scene holds a ground-truth cylinder human on a scripted 24-DOF
trajectory, a robot arm proxy (a chain of link cylinders on its own
script), and pan-tilt camera rigs. The forward kinematics that poses
the human lives here, ``pose_from_dofs``: six dofs place the torso, and
each other part turns about its proximal joint by two angles, in part
order. The scene renders depth images and tests keypoint occlusion with
one ray-cylinder kernel, ``geometry.cast_rays``.
``synthetic_detect`` stands in for the keypoint detector: it returns a
camera's 17 pixels and confidences as two arrays, the format that
``keypoints.detect`` checks, with confidences that reflect occlusion and
field of view. A render casts in the camera frame, each cylinder only
through the pixels of its projected footprint, and depth noise is drawn
for hit pixels only, so its cost follows the body's size in the image,
not the pixel count. Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import body
from .body import KeypartState, PartDimensions, torso_anchor_points
from .geometry import (
    Cylinder,
    Intrinsics,
    RigidTransform,
    cast_rays,
    cylinder_table,
    pan_tilt_rotation,
    project,
    rot_x,
    rot_y,
    rot_z,
)

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

    def world_pose(self) -> RigidTransform:
        """Camera-to-world pose: mount, then pan about local y, tilt about local x."""
        gimbal = RigidTransform._trusted(pan_tilt_rotation(self.pan, self.tilt), np.zeros(3))
        return self.mount.compose(gimbal)

    def command(self, pan: float, tilt: float) -> None:
        self.target_pan = float(np.clip(pan, *self.pan_limits))
        self.target_tilt = float(np.clip(tilt, *self.tilt_limits))

    def step(self, dt: float) -> None:
        """Move toward the commanded angles at no more than max_rate."""
        move = self.max_rate * dt
        self.pan += float(np.clip(self.target_pan - self.pan, -move, move))
        self.tilt += float(np.clip(self.target_tilt - self.tilt, -move, move))


def _lerp_waypoints(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    """Waypoint values at ``t``, linear between waypoints, held outside them."""
    if len(times) == 1 or t <= times[0]:
        return values[0].copy()
    if t >= times[-1]:
        return values[-1].copy()
    i = int(np.searchsorted(times, t, side="right")) - 1
    t0, t1 = times[i], times[i + 1]
    w = (t - t0) / (t1 - t0)
    return (1.0 - w) * values[i] + w * values[i + 1]


# ---------------------------------------------------------------------------
# forward kinematics: the ground-truth pose from 24 joint angles

# the dof vector: the torso's position and its x, y, z angles, then two
# angles for each other part in part order, part p's at 2p + 4 and 2p + 5
TOTAL_DOF = 6 + 2 * (body.NUM_KEYPARTS - 1)

# identity torso frame: lateral +x, up +z, forward -y (standing upright)
_TORSO_FRAME0 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def limb_frame(ref_frame: np.ndarray, theta_x: float, theta_y: float) -> np.ndarray:
    """A part's frame: its reference frame turned intrinsically x, then y."""
    return ref_frame @ rot_x(theta_x) @ rot_y(theta_y)


@dataclass
class HumanPose:
    """Full-body pose snapshot: per-part states plus the (17, 3) keypoint table.

    ``cylinders`` holds the part cylinders in part order, built once: the
    render, the detector and the scorer all read them.
    """

    states: dict
    keypoints: np.ndarray
    cylinders: list = field(init=False)

    def __post_init__(self):
        self.cylinders = [self.states[p].cylinder() for p in range(body.NUM_KEYPARTS)]


def pose_from_dofs(dofs, dims: PartDimensions) -> HumanPose:
    """Forward kinematics: 24-vector -> world cylinders and 17 keypoints.

    A part's axis is the z of ``limb_frame`` of its two angles and a
    reference frame: the torso frame turned straight up for the head and
    straight down for an upper limb, the parent's frame for a lower limb.
    """
    d = np.asarray(dofs, dtype=np.float64)
    if d.shape != (TOTAL_DOF,):
        raise ValueError(f"expected {TOTAL_DOF} dof values, got {d.shape}")

    px, py, pz, tx, ty, tz = d[:6]
    torso_frame = rot_z(tz) @ rot_y(ty) @ rot_x(tx) @ _TORSO_FRAME0
    torso = KeypartState(body.TORSO, np.array([px, py, pz]), torso_frame[:, 1],
                         dims.height[body.TORSO], dims.radius[body.TORSO], torso_frame)
    states = {body.TORSO: torso}
    keypoints = np.empty((body.NUM_KEYPOINTS, 3))
    keypoints[body.TORSO_ROWS] = torso_anchor_points(torso, dims)
    head_ref = torso_frame @ rot_x(-np.pi / 2.0)
    upper_ref = torso_frame @ rot_x(np.pi / 2.0)

    frames = {}
    for part in range(1, body.NUM_KEYPARTS):
        parent = body.PARENT[part]
        if part == body.HEAD:
            ref, origin = head_ref, torso.tip
        elif parent == body.TORSO:
            ref, origin = upper_ref, keypoints[body.EDGE_KEYPOINT[part]].copy()
        else:
            ref, origin = frames[parent], states[parent].tip
        frame = frames[part] = limb_frame(ref, d[2 * part + 4], d[2 * part + 5])
        states[part] = KeypartState(part, origin, frame[:, 2],
                                    dims.height[part], dims.radius[part])
        distal = body.DISTAL_KEYPOINT.get(part)
        if distal is not None:
            keypoints[distal] = states[part].tip

    # face keypoints on the head cylinder
    head = states[body.HEAD]
    h_fwd = frames[body.HEAD][:, 1] * -1.0  # forward = -y of the head frame
    h_lat = frames[body.HEAD][:, 0]
    r, h = head.radius, head.height
    c = head.base + head.axis * (0.62 * h)
    keypoints[body.NOSE] = c + h_fwd * r
    keypoints[body.L_EYE] = c + head.axis * (0.12 * h) + h_fwd * (0.85 * r) - h_lat * (0.4 * r)
    keypoints[body.R_EYE] = c + head.axis * (0.12 * h) + h_fwd * (0.85 * r) + h_lat * (0.4 * r)
    keypoints[body.L_EAR] = c + head.axis * (0.05 * h) - h_lat * r
    keypoints[body.R_EAR] = c + head.axis * (0.05 * h) + h_lat * r

    return HumanPose(states, keypoints)


@dataclass
class GroundTruthHuman:
    """Scripted human: time-stamped 24-DOF waypoints, linearly interpolated."""

    times: np.ndarray
    dofs: np.ndarray  # (T, 24)
    dims: PartDimensions = field(default_factory=PartDimensions)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.dofs = np.asarray(self.dofs, dtype=np.float64)
        if self.dofs.shape != (len(self.times), TOTAL_DOF):
            raise ValueError("dof waypoints must be (T, 24)")
        if len(self.times) == 0:
            raise ValueError("need at least one waypoint")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("waypoint times must be strictly increasing")

    def dofs_at(self, t: float) -> np.ndarray:
        return _lerp_waypoints(self.times, self.dofs, t)

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

    def links_at(self, t: float) -> list:
        pts = _lerp_waypoints(self.times, self.joints, t)
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


# Camera depth that a box's every corner must reach for its footprint to
# be the image of its corners; a box reaching nearer casts the whole image.
NEAR = 0.05

# rows of the bounding box corners as weights of (base, h axis, r e1, r e2):
# the four corners around the base, then the four around the top
_CORNERS = np.array([[1.0, end, s1, s2] for end in (0.0, 1.0)
                     for s1, s2 in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))])


def _pixel_spans(table: np.ndarray, k: Intrinsics) -> tuple:
    """The pixels ``render_depth`` casts per cylinder, as row spans.

    ``table`` holds the cylinders in camera coordinates
    (``geometry.cylinder_table``). Returns ``(cylinder, row, first
    column, length)`` arrays, one entry per row of each visible cylinder's
    pixel box, in cylinder then row order; a length may be 0.

    A cylinder lies in its oriented bounding box (the ends +- r e1 +- r
    e2, with e1 and e2 unit vectors across the axis), and one rule on the
    box's eight corners gives its footprint. With every corner at camera
    depth ``NEAR`` or more, the box projects inside the hull of its
    projected corners, and so inside a rectangle along the projected axis
    and across it; a row's span is the rectangle's, widened by 1 px on each
    side to absorb rounding. With every corner at depth 0 or less, no ray
    hits (a ray hits at t > 0 only, and t is camera depth), and the
    cylinder casts nothing. Any other box casts every pixel of the image.
    All cylinders are computed at once: numpy's per-call cost makes a loop
    over cylinders slower than the rays it saves at 144x112.
    """
    n, r = len(table), table[:, 7]
    # (base, h axis, r e1, r e2) per cylinder
    basis = np.empty((n, 4, 3))
    basis[:, 0] = table[:, :3]
    basis[:, 1] = table[:, 3:6] * table[:, 6:7]
    bx, by, bz, ax, ay, az = table[:, :6].T
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
    corners = _CORNERS @ basis  # (n, 8, 3)
    z = corners[..., 2]
    front, behind = (z >= NEAR).all(axis=1), (z <= 0.0).all(axis=1)

    # the projected axis has the direction (fx (a_x b_z - a_z b_x),
    # fy (a_y b_z - a_z b_y)) at every point in front of the camera; an
    # axis through the camera has none, and any direction bounds its image
    e = np.column_stack([k.fx * (ax * bz - az * bx), k.fy * (ay * bz - az * by)])
    length = np.hypot(e[:, 0], e[:, 1])
    e = np.where(length[:, None] > 0.0, e / np.maximum(length, 1e-300)[:, None], (1.0, 0.0))
    # columns (du, dv) taking (u, v) to along = e.(u, v) and across = (-e_v, e_u).(u, v)
    turn = np.stack([e, e[:, ::-1] * (-1.0, 1.0)], axis=2)
    focal, centre = np.array([k.fx, k.fy]), np.array([k.cx, k.cy])
    uv = corners[..., :2] / np.maximum(corners[..., 2:], NEAR) * focal + centre
    # per cylinder the low and high u, v, along and across of its corners;
    # unbounded for a box nearer than NEAR, empty for one behind the camera
    values = np.concatenate([uv, uv @ turn], axis=2)
    low, high = values.min(axis=1), values.max(axis=1)
    low[~front], high[~front] = -np.inf, np.inf
    low[behind], high[behind] = np.inf, -np.inf
    box_low = np.maximum(np.ceil(low[:, :2] - 1.0), 0.0)
    box_high = np.minimum(np.floor(high[:, :2] + 1.0), [k.width - 1.0, k.height - 1.0])
    index = np.flatnonzero((box_low <= box_high).all(axis=1))

    # the rectangle: bottom <= du u + dv v <= top along e and across it
    du, dv = turn[index, 0], turn[index, 1]
    du[np.abs(du) < 1e-12] = 1e-12  # moves du u by under 1e-8 px
    bottom = (low[index, 2:] - 1.0) / du
    top = (high[index, 2:] + 1.0) / du
    # in row v the columns run from min(bottom, top) - slope v to
    # max(bottom, top) - slope v for both directions
    coef = np.concatenate([np.minimum(bottom, top), np.maximum(bottom, top), dv / du,
                           box_low[index, :1], box_high[index, :1]], axis=1)
    v0, v1 = box_low[index, 1], box_high[index, 1]
    rows = (v1 - v0).astype(np.int64) + 1
    first_row = np.cumsum(rows) - rows
    from_a, from_b, to_a, to_b, slope_a, slope_b, u0, u1 = np.repeat(coef, rows, axis=0).T
    row = np.arange(rows.sum()) - np.repeat(first_row - v0, rows)
    lo = np.ceil(np.maximum(np.maximum(from_a - slope_a * row, from_b - slope_b * row), u0))
    hi = np.floor(np.minimum(np.minimum(to_a - slope_a * row, to_b - slope_b * row), u1))
    cast = lo <= hi
    first = np.where(cast, lo, 0.0).astype(np.int64)
    spans = np.where(cast, hi - lo + 1.0, 0.0).astype(np.int64)
    return np.repeat(index, rows), row.astype(np.int64), first, spans


def render_depth(rig: CameraRig, cylinders, noise: DepthNoise | None = None,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Ray-cast depth image; misses are 0, depth is camera-frame z.

    The cast runs in the camera frame: the cylinders are moved into it
    (``geometry.cylinder_table``), and the ray through pixel (u, v) is
    ((u - cx) / fx, (v - cy) / fy, 1), so the intersection parameter is the
    camera depth directly. Each cylinder is cast only through the pixels
    of its footprint (``_pixel_spans``): per row, the columns that the
    image of its oriented bounding box can cover, or the whole image when
    the box reaches nearer than ``NEAR``. All cylinders go through one
    ``geometry.cast_rays`` call, whose elementwise arithmetic gives each
    pixel the bits that a cast of any other pixel set, the whole image
    included, gives it.

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
    table = cylinder_table(cylinders, rig.world_pose().inverse())
    cyl, row, first, spans = _pixel_spans(table, k)
    counts = np.bincount(cyl, weights=spans, minlength=len(table)).astype(np.int64)
    cast = spans > 0
    row, first, spans = row[cast], first[cast], spans[cast]
    depth = np.zeros((k.height, k.width))
    if not len(row):
        return depth
    # every hit lies in the union window of the spans; row-major order
    # inside it is the whole image's order, so the draws land alike
    v0, v1 = row.min(), row.max() + 1
    u0, u1 = first.min(), (first + spans).max()
    # each ray's column, and its flat index in the window
    start = np.cumsum(spans) - spans
    col = np.arange(start[-1] + spans[-1]) + np.repeat(first - start, spans)
    in_window = col + np.repeat((row - v0) * (u1 - u0) - u0, spans)
    dirs = np.empty((3, len(col)))
    np.take((np.arange(k.width) - k.cx) / k.fx, col, out=dirs[0])
    dirs[1] = np.repeat((row - k.cy) / k.fy, spans)
    dirs[2] = 1.0
    t = cast_rays(dirs, table, counts)

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


def occlusion_mask(camera_pos: np.ndarray, keypoints_world: np.ndarray,
                   parts, extra_cylinders=()) -> np.ndarray:
    """Occlusion flags for the 17 keypoints, from one ``cast_rays`` call.

    ``parts`` are the ten part cylinders in part order. A keypoint is
    occluded when its sight line from the camera hits a cylinder more
    than 1 cm before it, other than its own parts' surface. The cast runs
    in world axes with the camera at the origin.
    """
    d = keypoints_world - camera_pos[None, :]
    dist = np.linalg.norm(d, axis=1)
    rays = d / np.maximum(dist, 1e-9)[:, None]
    cyls = list(parts) + list(extra_cylinders)
    table = cylinder_table(cyls, RigidTransform._trusted(np.eye(3), -camera_pos))
    t = cast_rays(np.tile(rays.T, len(cyls)), table, [len(rays)] * len(cyls))
    blocked = t.reshape(len(cyls), len(rays)) < dist - 0.01
    blocked[:body.NUM_KEYPARTS] &= ~body.PART_KEYPOINT_MASK
    return blocked.any(axis=0)


def synthetic_detect(k: Intrinsics, cam_pose: RigidTransform, keypoints: np.ndarray,
                     parts, occluders=(), noise: DetectorNoise | None = None,
                     rng: np.random.Generator | None = None) -> tuple:
    """Detector-contract output for one camera: (pixels, confidences).

    ``cam_pose`` is the camera-to-world pose, ``keypoints`` the (17, 3)
    world keypoints and ``parts`` the ten part cylinders in part order.
    Confidence is c_hi for a free view, c_hi * c_occ when the sight line
    is blocked, and c_out outside the image. Pixels get Gaussian noise
    and are clamped into the image bounds.
    """
    noise = noise or DetectorNoise()
    cam_pts = cam_pose.inverse().apply(keypoints)
    occluded = occlusion_mask(cam_pose.translation, keypoints, parts, occluders)

    front = cam_pts[:, 2] > 0.05
    pixel = np.where(front[:, None], project(cam_pts, k), 0.0)
    inside = front & (pixel >= 0.0).all(axis=1) & (pixel < [k.width, k.height]).all(axis=1)
    conf = np.where(inside, np.where(occluded, noise.c_hi * noise.c_occ, noise.c_hi), noise.c_out)
    if rng is not None and noise.sigma_px > 0:
        pixel = pixel + rng.normal(0.0, noise.sigma_px, pixel.shape)
    return np.clip(pixel, 0.0, [k.width - 1, k.height - 1]), conf

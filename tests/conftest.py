import dataclasses

import numpy as np
import pytest

from mvsense import body
from mvsense.body import KeypartState
from keypoints_reference import BehindCamera, project
from mvsense.geometry import Intrinsics, RigidTransform, cast_rays, cylinder_table
from mvsense.geometry import frame_from_axis, normalize, rot_x, rot_y, rot_z
from mvsense.keypoints import fuse
from mvsense.registration import sample_cylinder_local
from mvsense.scheduler import P_CAP
from mvsense.simulator import TOTAL_DOF, occlusion_mask, synthetic_detect


# the default part dimensions, which the tests pose and register with
DIMS = body.PartDimensions()


@pytest.fixture
def k_vga():
    return Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def random_rigid(rng) -> RigidTransform:
    """Random proper rigid transform from three Euler angles."""
    a, b, c = rng.uniform(-np.pi, np.pi, 3)
    r = rot_z(a) @ rot_y(b) @ rot_x(c)
    t = rng.uniform(-2.0, 2.0, 3)
    return RigidTransform(r, t)


def fuse_one(entries) -> tuple:
    """``keypoints.fuse`` of one keypoint seen by every camera of ``entries``.

    ``entries`` holds (position_camera_frame, confidence, cam_to_world)
    triples, one per camera; returns the world position and the fused
    confidence.
    """
    lifts = np.array([p for p, _c, _t in entries], dtype=np.float64)[:, None]
    confidences = np.array([[c] for _p, c, _t in entries], dtype=np.float64)
    positions, fused = fuse(lifts, np.ones(confidences.shape, dtype=bool), confidences,
                            [t for _p, _c, t in entries])
    return positions[0], fused[0]


def ray_cylinder_hits_reference(origins, dirs, cyl):
    """Per-cylinder ray/cylinder body that ``geometry.cast_rays`` replaced.

    Kept as the oracle for the kernel and for the simulator's references,
    every array operation in its original order. Its row dots and matrix
    products round differently from the kernel's elementwise arithmetic,
    so the two agree on hits and on t within rounding, not bit for bit.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=np.float64)) - cyl.base
    d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    if o.shape[0] == 1 and d.shape[0] > 1:
        o = np.broadcast_to(o, d.shape)
    a = cyl.axis
    r2 = cyl.radius * cyl.radius
    h = cyl.height

    od = o @ a
    dd = d @ a
    o_perp = o - np.outer(od, a)
    d_perp = d - np.outer(dd, a)

    qa = np.einsum("ij,ij->i", d_perp, d_perp)
    qb = 2.0 * np.einsum("ij,ij->i", o_perp, d_perp)
    qc = np.einsum("ij,ij->i", o_perp, o_perp) - r2

    best = np.full(o.shape[0], np.inf)

    disc = qb * qb - 4.0 * qa * qc
    valid = (disc >= 0) & (qa > 1e-16)
    sq = np.sqrt(np.where(valid, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            t = (-qb + sign * sq) / (2.0 * qa)
            ax = od + t * dd
            ok = valid & (t > 1e-12) & (ax >= 0.0) & (ax <= h)
            best = np.where(ok & (t < best), t, best)

    moving = np.abs(dd) > 1e-16
    with np.errstate(divide="ignore", invalid="ignore"):
        for plane in (0.0, h):
            t = (plane - od) / np.where(moving, dd, 1.0)
            hit = o + t[:, None] * d
            ax_hit = hit @ a
            radial2 = np.einsum("ij,ij->i", hit, hit) - ax_hit * ax_hit
            ok = moving & (t > 1e-12) & (radial2 <= r2)
            best = np.where(ok & (t < best), t, best)

    return best


def at_origin(origin) -> RigidTransform:
    """The translation that moves ``origin`` to 0, for ``cylinder_table``."""
    return RigidTransform(np.eye(3), -np.asarray(origin, dtype=np.float64))


def first_hit(origin, direction, cyl):
    """Distance to the nearest hit of one ray, or None on a miss.

    ``geometry.cast_rays`` for a single ray; with a unit direction the ray
    parameter is the distance.
    """
    t = cast_rays(np.asarray(direction, dtype=np.float64).reshape(3, 1),
                  cylinder_table([cyl], at_origin(origin)), [1])[0]
    return float(t) if np.isfinite(t) else None


def sample_cylinder(state: KeypartState, n: int) -> np.ndarray:
    """World-frame lateral-surface samples of a posed keypart cylinder."""
    local = sample_cylinder_local(state.radius, state.height, n)
    frame = frame_from_axis(state.axis)
    return state.base + local @ frame.T


def in_image(k, pixel) -> bool:
    """The pixel lies in the image of intrinsics ``k``."""
    u, v = float(pixel[0]), float(pixel[1])
    return 0.0 <= u < k.width and 0.0 <= v < k.height


def detect_view(rig, pose, occluders=(), noise=None, rng=None) -> tuple:
    """``simulator.synthetic_detect`` for a rig at its current pan and tilt."""
    return synthetic_detect(rig.intrinsics, rig.world_pose(), pose.keypoints,
                            pose.cylinders, occluders, noise, rng)


def keypoint_flags(rig, pose, robot_links=()) -> list:
    """'visible', 'occluded' or 'out' per keypoint in one camera.

    ``simulator.occlusion_mask`` plus the in-image projection: 'out' is
    behind the camera or outside the image.
    """
    cam_pose = rig.world_pose()
    occluded = occlusion_mask(cam_pose.translation, pose.keypoints,
                              pose.cylinders, robot_links)
    flags = []
    for kp in range(body.NUM_KEYPOINTS):
        try:
            pixel, _depth = project(pose.keypoints[kp], cam_pose, rig.intrinsics)
        except BehindCamera:
            flags.append("out")
            continue
        if not in_image(rig.intrinsics, pixel):
            flags.append("out")
        else:
            flags.append("occluded" if occluded[kp] else "visible")
    return flags


def hires(cam, width=640, height=480):
    """The same camera spec at 640x480, focal length scaled so no view angle shrinks."""
    s = min(width / cam.width, height / cam.height)
    return dataclasses.replace(cam, width=width, height=height,
                               fx=cam.fx * s, fy=cam.fy * s,
                               cx=(width - 1) / 2.0, cy=(height - 1) / 2.0)


def rest_dofs(position=(0.0, 0.0, 0.0), heading: float = 0.0) -> np.ndarray:
    """Neutral standing pose at a world position with a yaw heading."""
    d = np.zeros(TOTAL_DOF)
    d[0:3] = position
    d[5] = heading
    return d


def limb_angles(ref_frame: np.ndarray, axis: np.ndarray) -> tuple:
    """The (theta_x, theta_y) whose ``simulator.limb_frame`` has z along ``axis``.

    The inverse of the limb parameterization for axes in the reference
    hemisphere.
    """
    local = ref_frame.T @ normalize(axis)
    ty = float(np.arcsin(np.clip(local[0], -1.0, 1.0)))
    tx = float(np.arctan2(-local[1], local[2]))
    return tx, ty


def is_connected(tree) -> bool:
    """True when every active node reaches the root through active nodes."""
    active = set(tree.traversal())
    if not active:
        return True
    if body.TORSO not in active:
        return False
    for p in active:
        q = p
        while q is not None:
            if q not in active:
                return False
            q = body.PARENT[q]
    return True


def objective_value(p_hats, gamma: float) -> float:
    """sum_m gamma^m * ln(1 - p_hat[m]); p_hat clamped below 1.

    The scheduler's discounted objective written out term by term.
    """
    total = 0.0
    for m, p in enumerate(p_hats):
        total += (gamma ** m) * float(np.log(1.0 - min(float(p), P_CAP)))
    return total

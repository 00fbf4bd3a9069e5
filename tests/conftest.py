import dataclasses

import numpy as np
import pytest

from mvsense import body
from mvsense.geometry import BehindCamera, Intrinsics, RigidTransform, project
from mvsense.geometry import rot_x, rot_y, rot_z
from mvsense.simulator import occlusion_mask


@pytest.fixture
def k_vga():
    return Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_rigid(rng) -> RigidTransform:
    """Random proper rigid transform from three Euler angles."""
    a, b, c = rng.uniform(-np.pi, np.pi, 3)
    r = rot_z(a) @ rot_y(b) @ rot_x(c)
    t = rng.uniform(-2.0, 2.0, 3)
    return RigidTransform(r, t)


def ray_cylinder_hits_reference(origins, dirs, cyl):
    """Per-cylinder ray/cylinder body that ``geometry.cast_rays`` replaced.

    Kept as the bitwise oracle for the blocked kernel and for the
    simulator's references: every array operation in its original order.
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


def keypoint_flags(rig, pose, robot_links=()) -> list:
    """'visible', 'occluded' or 'out' per keypoint in one camera.

    ``simulator.occlusion_mask`` plus the in-image projection: 'out' is
    behind the camera or outside the image.
    """
    cam_pose = rig.world_pose()
    parts = {p: pose.states[p].cylinder() for p in range(body.NUM_KEYPARTS)}
    occluded = occlusion_mask(cam_pose.translation, pose.keypoint_array(),
                              parts, robot_links)
    flags = []
    for kp in range(body.NUM_KEYPOINTS):
        try:
            pixel, _depth = project(pose.keypoints[kp], cam_pose, rig.intrinsics)
        except BehindCamera:
            flags.append("out")
            continue
        if not rig.intrinsics.contains(pixel):
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

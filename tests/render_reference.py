"""Reference depth renderers, the oracles for ``simulator.render_depth``.

``render_depth_reference`` is the per-cylinder simulator that the
footprints and the camera-frame kernel replaced: world-frame rays through
each cylinder's bounding box, cast by ``conftest.ray_cylinder_hits_reference``
one cylinder at a time. Its arithmetic differs from ``geometry.cast_rays``,
so it is the oracle for hit masks and for depth within ``DEPTH_TOL``.

``render_depth_box_reference`` is ``render_depth`` before footprints: each
cylinder is cast through its whole bounding box, by ``geometry.cast_rays``
in the camera frame. The kernel gives a pixel the same bits whichever
pixels share the call, so this one is a bitwise oracle for the footprints.
"""

import numpy as np

from conftest import ray_cylinder_hits_reference
from mvsense.geometry import cast_rays, cylinder_table

# depth agreement, in meters, between the kernel and the per-cylinder body
DEPTH_TOL = 1e-9


def camera_rays(k):
    """Camera-frame ray directions with z = 1 per pixel, shape (H, W, 3)."""
    vs, us = np.mgrid[0:k.height, 0:k.width]
    rays = np.empty((k.height, k.width, 3))
    rays[..., 0] = (us - k.cx) / k.fx
    rays[..., 1] = (vs - k.cy) / k.fy
    rays[..., 2] = 1.0
    return rays


def bbox_reference(cyl, cam_from_world, k):
    """The per-cylinder pixel box, ``"full"`` for a cylinder near the camera
    plane, None for one out of view."""
    ends = np.stack([cam_from_world.apply(cyl.base), cam_from_world.apply(cyl.top)])
    z = ends[:, 2]
    if np.all(z + cyl.radius <= 0.0):  # no point of the cylinder in front
        return None
    if np.any(z - cyl.radius <= 0.05):
        return "full"
    us = k.fx * ends[:, 0] / z + k.cx
    vs = k.fy * ends[:, 1] / z + k.cy
    rad_px = max(k.fx, k.fy) * cyl.radius / max(float(np.min(z - cyl.radius)), 0.05)
    pad = rad_px + 2.0
    u0, u1 = int(np.floor(us.min() - pad)), int(np.ceil(us.max() + pad))
    v0, v1 = int(np.floor(vs.min() - pad)), int(np.ceil(vs.max() + pad))
    u0, u1 = max(0, u0), min(k.width - 1, u1)
    v0, v1 = max(0, v0), min(k.height - 1, v1)
    if u1 < u0 or v1 < v0:
        return None
    return (u0, u1, v0, v1)


def box_of(cyl, cam_from_world, k):
    """``bbox_reference`` as (u0, u1, v0, v1), the whole image for "full"."""
    bbox = bbox_reference(cyl, cam_from_world, k)
    return (0, k.width - 1, 0, k.height - 1) if bbox == "full" else bbox


def add_depth_noise(depth, noise, rng):
    """One normal, then one uniform, per hit pixel in row-major order."""
    if noise is not None and rng is not None:
        hit = np.flatnonzero(depth > 0)
        values = depth.flat[hit]
        if noise.sigma_d > 0:
            values = values + rng.normal(0.0, noise.sigma_d, len(hit))
        if noise.p_drop > 0:
            values = np.where(rng.random(len(hit)) < noise.p_drop, 0.0, values)
        depth.flat[hit] = np.where(values > 1e-6, values, 0.0)
    return depth


def render_depth_reference(rig, cylinders, noise=None, rng=None):
    k = rig.intrinsics
    pose = rig.world_pose()
    inv = pose.inverse()
    rays_cam = camera_rays(k)
    origin = pose.translation[None, :]
    depth = np.full((k.height, k.width), np.inf)
    for cyl in cylinders:
        box = box_of(cyl, inv, k)
        if box is None:
            continue
        u0, u1, v0, v1 = box
        sub = rays_cam[v0:v1 + 1, u0:u1 + 1].reshape(-1, 3)
        t = ray_cylinder_hits_reference(origin, sub @ pose.rotation.T, cyl)
        view = depth[v0:v1 + 1, u0:u1 + 1]
        np.minimum(view, t.reshape(v1 - v0 + 1, u1 - u0 + 1), out=view)
    depth = np.where(np.isfinite(depth), depth, 0.0)
    return add_depth_noise(depth, noise, rng)


def render_depth_box_reference(rig, cylinders, noise=None, rng=None):
    k = rig.intrinsics
    inv = rig.world_pose().inverse()
    boxes, cast = [], []
    for cyl in cylinders:
        box = box_of(cyl, inv, k)
        if box is not None:
            boxes.append(box)
            cast.append(cyl)
    dirs = []
    for u0, u1, v0, v1 in boxes:
        x = (np.arange(u0, u1 + 1) - k.cx) / k.fx
        y = (np.arange(v0, v1 + 1) - k.cy) / k.fy
        dirs.append(np.stack([np.tile(x, len(y)), np.repeat(y, len(x)),
                              np.ones(len(x) * len(y))]))
    t = cast_rays(np.concatenate([np.empty((3, 0))] + dirs, axis=1),
                  cylinder_table(cast, inv), [d.shape[1] for d in dirs])
    depth = np.full((k.height, k.width), np.inf)
    start = 0
    for u0, u1, v0, v1 in boxes:
        view = depth[v0:v1 + 1, u0:u1 + 1]
        np.minimum(view, t[start:start + view.size].reshape(view.shape), out=view)
        start += view.size
    depth = np.where(np.isfinite(depth), depth, 0.0)
    return add_depth_noise(depth, noise, rng)


def assert_matches_reference(got, want):
    """The same hit pixels, and depths within ``DEPTH_TOL``."""
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got > 0, want > 0)
    assert np.abs(got - want).max(initial=0.0) <= DEPTH_TOL

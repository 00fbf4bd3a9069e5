"""Camera models, rigid transforms, and ray/cylinder geometry.

Conventions used throughout the package:

  - All lengths are meters, all angles radians.
  - World frame: right-handed, z up.
  - Camera frame: x right, y down, z forward (camera looks along +z).
  - Image plane: pixel origin at the top-left corner, u right, v down.
  - A camera pose is the camera-to-world transform; projecting a world
    point applies the inverse.

Intrinsics carry distinct fx/fy, but mask-width math uses a single
scalar focal length, so simulator-generated cameras are required to
have square pixels (fx == fy); see ``Intrinsics.focal``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-9


class BehindCamera(ValueError):
    """Point has non-positive depth in the camera frame."""


class InvalidDepth(ValueError):
    """Depth value is non-positive or non-finite."""


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics plus image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def focal(self) -> float:
        """Single scalar focal length; requires square pixels."""
        if abs(self.fx - self.fy) > 1e-9:
            raise ValueError("scalar focal length requires fx == fy")
        return self.fx

    def contains(self, pixel) -> bool:
        u, v = float(pixel[0]), float(pixel[1])
        return 0.0 <= u < self.width and 0.0 <= v < self.height


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation; composition and inversion are closed."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = _as_vec3(self.translation)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-8):
            raise ValueError("rotation must be orthonormal")
        if np.linalg.det(r) < 0:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def _trusted(cls, rotation: np.ndarray, translation: np.ndarray) -> "RigidTransform":
        """Skip validation for rotations produced by closed operations."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "rotation", rotation)
        object.__setattr__(obj, "translation", translation)
        return obj

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) array."""
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            return self.rotation @ p + self.translation
        return p @ self.rotation.T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Returns self ∘ other (apply ``other`` first)."""
        return RigidTransform._trusted(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = np.ascontiguousarray(self.rotation.T)
        return RigidTransform._trusted(rt, -rt @ self.translation)


@dataclass(frozen=True)
class Cylinder:
    """Finite cylinder: base point, unit axis, height and radius."""

    base: np.ndarray
    axis: np.ndarray
    height: float
    radius: float

    def __post_init__(self):
        b = _as_vec3(self.base)
        a = _as_vec3(self.axis)
        if abs(np.linalg.norm(a) - 1.0) > _ORTHO_TOL:
            raise ValueError("axis must be a unit vector")
        if self.height <= 0 or self.radius <= 0:
            raise ValueError("height and radius must be positive")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "axis", a)

    @staticmethod
    def from_endpoints(p0, p1, radius: float) -> "Cylinder":
        p0 = _as_vec3(p0)
        p1 = _as_vec3(p1)
        d = p1 - p0
        h = float(np.linalg.norm(d))
        if h <= 0:
            raise ValueError("endpoints must be distinct")
        return Cylinder(p0, d / h, h, radius)

    @property
    def top(self) -> np.ndarray:
        return self.base + self.axis * self.height

    @property
    def midpoint(self) -> np.ndarray:
        return self.base + self.axis * (0.5 * self.height)

    def contains(self, points: np.ndarray, radial_margin: float = 0.0) -> np.ndarray:
        """Boolean mask of points inside the (optionally inflated) cylinder."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64)) - self.base
        ax = p @ self.axis
        radial2 = np.einsum("ij,ij->i", p, p) - ax * ax
        r = self.radius + radial_margin
        return (ax >= 0.0) & (ax <= self.height) & (radial2 <= r * r)


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit vector along the 3-vector ``v``.

    ``np.sqrt(v.dot(v))`` is the path ``np.linalg.norm`` takes for a 1-D
    float array, so the result is bitwise equal, without its wrapper.
    """
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(v.dot(v))
    if n < 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def _cross(a, b) -> tuple:
    """Cross product of two 3-sequences of Python floats.

    Same multiplies and subtractions, in the same order, as ``np.cross``,
    so the result is bitwise equal, without its per-call array overhead.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal rotation taking unit vector a onto unit vector b."""
    a = normalize(a)
    b = normalize(b)
    c = float(np.dot(a, b))
    if c > 1.0 - 1e-12:
        return np.eye(3)
    if c < -1.0 + 1e-12:
        # 180 degrees: rotate about any axis perpendicular to a
        perp = perpendicular_unit(a)
        return 2.0 * np.outer(perp, perp) - np.eye(3)
    v0, v1, v2 = _cross(a.tolist(), b.tolist())
    vx = np.array(
        [[0, -v2, v1], [v2, 0, -v0], [-v1, v0, 0]], dtype=np.float64
    )
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def perpendicular_unit(a: np.ndarray) -> np.ndarray:
    """Deterministic unit vector perpendicular to a."""
    a = normalize(a)
    helper = (0.0, 1.0, 0.0) if abs(a[0]) > 0.9 else (1.0, 0.0, 0.0)
    return normalize(np.array(_cross(a.tolist(), helper)))


def frame_from_axis(axis: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frame (columns) with z along ``axis``."""
    z = normalize(axis).tolist()
    x = perpendicular_unit(z).tolist()
    y = _cross(z, x)
    return np.array([[x[0], y[0], z[0]],
                     [x[1], y[1], z[1]],
                     [x[2], y[2], z[2]]])


# ---------------------------------------------------------------------------
# projection


def project(point_world, pose: RigidTransform, k: Intrinsics):
    """Project a world point; returns ((u, v), depth).

    ``pose`` is the camera-to-world transform. Raises BehindCamera when the
    camera-frame z is non-positive.
    """
    p_cam = pose.inverse().apply(_as_vec3(point_world))
    z = p_cam[2]
    if z <= 0:
        raise BehindCamera(f"point at camera depth {z:.6f}")
    u = k.fx * p_cam[0] / z + k.cx
    v = k.fy * p_cam[1] / z + k.cy
    return np.array([u, v]), float(z)


def reproject(pixel, depth: float, k: Intrinsics) -> np.ndarray:
    """Back-project a pixel with known depth to the camera frame (Kinv route)."""
    if not np.isfinite(depth) or depth <= 0:
        raise InvalidDepth(f"depth {depth!r}")
    u, v = float(pixel[0]), float(pixel[1])
    return np.array(
        [depth * (u - k.cx) / k.fx, depth * (v - k.cy) / k.fy, depth]
    )


def reproject_many(pixels: np.ndarray, depths: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Vectorized back-projection of (N, 2) pixels with (N,) depths."""
    pixels = np.asarray(pixels, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    x = depths * (pixels[:, 0] - k.cx) / k.fx
    y = depths * (pixels[:, 1] - k.cy) / k.fy
    return np.column_stack([x, y, depths])


# ---------------------------------------------------------------------------
# ray / cylinder intersection


# Rays per block of ``cast_rays``. A block's float64 temporaries, about 2 MB
# at 8192 rays, stay near a 2 MB per-core L2; 640x480 renders cast in 64k-ray
# blocks ran about 1.5x slower, and small blocks pay numpy's call overhead.
RAY_BLOCK = 8192


def _ray_blocks(counts: list):
    """``(first, stop)`` ranges of consecutive whole cylinders with at most
    RAY_BLOCK rays, or a single cylinder that alone has more."""
    first, rays = 0, 0
    for i, n in enumerate(counts):
        if i > first and rays + n > RAY_BLOCK:
            yield first, i
            first, rays = i, 0
        rays += n
    yield first, len(counts)


def cast_rays(origin, dirs: list, cylinders: list) -> np.ndarray:
    """Smallest positive ray parameter t per ray from one origin.

    ``dirs[i]``, an (n_i, 3) float64 array, is cast against ``cylinders[i]``
    only; the result holds all rays' t in that order, +inf on a miss. The
    lateral surface and both caps count; t is in units of the directions,
    which need not be unit length.

    Each elementwise step, the ``einsum`` row dots included, runs once per
    block of ``_ray_blocks``: a row gets the same bits whichever rows share
    the call. A product with a cylinder's axis stays one BLAS call (gemv, or
    ddot for one row) on that cylinder's rows, because a batched product or a
    row dot with a repeated axis rounds differently. Origin-only terms are
    computed once per cylinder with the bits the per-ray arrays had: numpy
    sums a broadcast origin's products in order from 0.0, ddot a single ray's.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    counts = [len(d) for d in dirs]
    out = np.empty(sum(counts))
    if not cylinders:
        return out
    axis = np.array([c.axis for c in cylinders])
    o = origin - np.array([c.base for c in cylinders])
    od = 0.0 + o[:, 0] * axis[:, 0] + o[:, 1] * axis[:, 1] + o[:, 2] * axis[:, 2]
    for i in np.flatnonzero(np.equal(counts, 1)):
        od[i] = o[i] @ axis[i]
    o_perp = o - od[:, None] * axis
    r2 = np.array([c.radius * c.radius for c in cylinders])
    qc = np.einsum("ij,ij->i", o_perp, o_perp) - r2
    # one row per per-cylinder term, repeated out to the rays of a block
    terms = np.vstack([axis.T, o.T, od, qc, [c.height for c in cylinders], r2])

    stop = 0
    for first, last in _ray_blocks(counts):
        start, cnt = stop, counts[first:last]
        stop += sum(cnt)
        if stop == start:
            continue
        rows = [(i, slice(e - c, e)) for i, c, e in
                zip(range(first, last), cnt, itertools.accumulate(cnt)) if c]
        a0, a1, a2, o0, o1, o2, od_r, qc_r, h_r, r2_r = np.repeat(terms[:, first:last], cnt, 1)
        d = np.concatenate(dirs[first:last])
        dd, ax_hit = np.empty((2, stop - start))
        for i, r in rows:
            np.matmul(d[r], axis[i], out=dd[r])
        # d minus its axial part by strided columns (a broadcast (n, 3) product is slower)
        d_perp = np.empty_like(d)
        for j, a_j in enumerate((a0, a1, a2)):
            np.subtract(d[:, j], dd * a_j, out=d_perp[:, j])
        qa = np.einsum("ij,ij->i", d_perp, d_perp)
        qb = 2.0 * np.einsum("ij,ij->i", np.repeat(o_perp[first:last], cnt, 0), d_perp)

        best = np.full(stop - start, np.inf)
        disc = qb * qb - 4.0 * qa * qc_r
        valid = (disc >= 0) & (qa > 1e-16)
        sq = np.sqrt(np.where(valid, disc, 0.0))
        moving = np.abs(dd) > 1e-16
        step = np.where(moving, dd, 1.0)
        hit = d_perp
        with np.errstate(divide="ignore", invalid="ignore"):
            for sign in (-1.0, 1.0):
                t = (-qb + sign * sq) / (2.0 * qa)
                ax = od_r + t * dd
                np.minimum(best, t, out=best,
                           where=valid & (t > 1e-12) & (ax >= 0.0) & (ax <= h_r))
            # caps at axial coordinate 0 and h
            for plane in (0.0, h_r):
                t = (plane - od_r) / step
                for j, o_j in enumerate((o0, o1, o2)):
                    np.add(o_j, t * d[:, j], out=hit[:, j])
                for i, r in rows:
                    np.matmul(hit[r], axis[i], out=ax_hit[r])
                radial2 = np.einsum("ij,ij->i", hit, hit) - ax_hit * ax_hit
                np.minimum(best, t, out=best,
                           where=moving & (t > 1e-12) & (radial2 <= r2_r))
        out[start:stop] = best
    return out


# ---------------------------------------------------------------------------
# segment / segment distance (used for collision clearance)


def segment_segment_distance_batch(p0, p1, q0, q1) -> np.ndarray:
    """Pairwise minimum distances between segment sets, shape (N, M).

    Coordinate descent on the convex quadratic over [0,1]^2; a few rounds
    converge to the box-constrained optimum (parallel segments give a
    flat optimum where any fixed point is exact).
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=np.float64))
    p1 = np.atleast_2d(np.asarray(p1, dtype=np.float64))
    q0 = np.atleast_2d(np.asarray(q0, dtype=np.float64))
    q1 = np.atleast_2d(np.asarray(q1, dtype=np.float64))
    u = p1 - p0                                   # (N, 3)
    v = q1 - q0                                   # (M, 3)
    w = p0[:, None, :] - q0[None, :, :]           # (N, M, 3)
    a = np.einsum("ij,ij->i", u, u)[:, None]      # (N, 1)
    b = u @ v.T                                   # (N, M)
    c = np.einsum("ij,ij->i", v, v)[None, :]      # (1, M)
    d = np.einsum("ik,ijk->ij", u, w)             # (N, M)
    e = np.einsum("jk,ijk->ij", v, w)             # (N, M)
    denom = a * c - b * b

    s = np.where(denom > 1e-14, (b * e - c * d) / np.where(denom > 1e-14, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    for _ in range(4):
        t = np.where(c > 1e-14, (b * s + e) / np.where(c > 1e-14, c, 1.0), 0.0)
        t = np.clip(t, 0.0, 1.0)
        s = np.where(a > 1e-14, (b * t - d) / np.where(a > 1e-14, a, 1.0), 0.0)
        s = np.clip(s, 0.0, 1.0)
    diff = (p0[:, None, :] + s[..., None] * u[:, None, :]) \
        - (q0[None, :, :] + t[..., None] * v[None, :, :])
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def segment_segment_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between segments [p0, p1] and [q0, q1]."""
    p0, p1, q0, q1 = (_as_vec3(x) for x in (p0, p1, q0, q1))
    return float(segment_segment_distance_batch(p0[None], p1[None],
                                                q0[None], q1[None])[0, 0])


def cylinder_clearance(c1: Cylinder, c2: Cylinder) -> float:
    """Surface-to-surface clearance between two cylinders, floored at 0.

    Approximates each cylinder by its axis segment plus radius; exact for
    laterally-facing configurations, slightly conservative near caps.
    """
    d = segment_segment_distance(c1.base, c1.top, c2.base, c2.top)
    return max(0.0, d - c1.radius - c2.radius)

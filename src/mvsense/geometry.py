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

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-9


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


def inside_any(cylinders, points: np.ndarray, reach) -> np.ndarray:
    """(N,) mask of ``points`` inside any of ``cylinders``, in one stacked pass.

    A point is inside a cylinder when it lies between the end caps and
    within ``reach[c]`` of the axis, so ``reach`` may inflate each
    cylinder's radius by its own margin. Each cylinder's slice goes
    through the same operations, so its test has the same bits whatever
    other cylinders share the call.
    """
    bases = np.stack([c.base for c in cylinders])
    axes = np.stack([c.axis for c in cylinders])
    heights = np.array([c.height for c in cylinders])
    reach = np.asarray(reach, dtype=np.float64)
    p = points - bases[:, None, :]
    ax = np.matmul(p, axes[:, :, None])[:, :, 0]
    radial2 = np.einsum("cij,cij->ci", p, p) - ax * ax
    inside = (ax >= 0.0) & (ax <= heights[:, None]) & (radial2 <= (reach * reach)[:, None])
    return inside.any(axis=0)


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def pan_tilt_rotation(pan, tilt) -> np.ndarray:
    """The gimbal rotation ``rot_y(pan) @ rot_x(tilt)``, shape (..., 3, 3)
    for ``pan`` and ``tilt`` of one shape (...).

    Each entry of the product has one nonzero term, so it is written out:
    the product's bits up to the sign of a zero.
    """
    cp, sp, ct, st = np.cos(pan), np.sin(pan), np.cos(tilt), np.sin(tilt)
    return np.stack([cp, sp * st, sp * ct, np.zeros_like(cp), ct, -st,
                     -sp, cp * st, cp * ct], axis=-1).reshape(np.shape(cp) + (3, 3))


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
# projection and back-projection


def project(points, k: Intrinsics) -> np.ndarray:
    """Pixels (..., 2) of camera-frame points (..., 3), the mirror of
    ``reproject``, with the same bits whichever points share the call.
    Rows at or behind the camera divide without a warning; each caller
    masks them by its own depth test.
    """
    points = np.asarray(points, dtype=np.float64)
    z = points[..., 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = k.fx * points[..., 0] / z + k.cx
        v = k.fy * points[..., 1] / z + k.cy
    return np.stack([u, v], axis=-1)


def reproject(pixels, depths, k: Intrinsics) -> np.ndarray:
    """Back-project pixels (..., 2) with known depths (...) to camera-frame
    points (..., 3): one pixel with a scalar depth, or (N, 2) with (N,).

    The arithmetic is elementwise, so a pixel's point has the same bits
    whichever pixels share the call.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    x = depths * (pixels[..., 0] - k.cx) / k.fx
    y = depths * (pixels[..., 1] - k.cy) / k.fy
    return np.stack([x, y, depths], axis=-1)


# ---------------------------------------------------------------------------
# ray / cylinder intersection


def cylinder_table(cylinders, frame: RigidTransform) -> np.ndarray:
    """(m, 8) rows of each cylinder's base, axis, height and radius, with the
    base and axis moved by ``frame``.

    The move is written out elementwise, so a cylinder's row has the same
    bits whichever cylinders share the call.
    """
    g = np.array([c.base.tolist() + c.axis.tolist() + [c.height, c.radius]
                  for c in cylinders]).reshape(-1, 8)
    # [i, end, j, k] = rotation[j, k] * point[k] for the base and the axis
    p = g[:, :6].reshape(-1, 2, 1, 3) * frame.rotation
    g[:, :6] = (p[..., 0] + p[..., 1] + p[..., 2]).reshape(-1, 6)
    g[:, :3] += frame.translation
    return g


# Rays per block of ``cast_rays``. A block's float64 temporaries, under 2 MB
# at 8192 rays, stay near a 2 MB per-core L2; 640x480 renders cast in 64k-ray
# blocks ran about 1.5x slower, and small blocks pay numpy's call overhead.
RAY_BLOCK = 8192


def cast_rays(dirs: np.ndarray, cylinders: np.ndarray, counts) -> np.ndarray:
    """Smallest positive ray parameter t per ray from the origin, +inf on a miss.

    ``dirs`` (3, n) holds the ray directions as rows of x, y and z; they need
    not be unit length, and t is in their units. ``cylinders`` (m, 8) holds
    rows of base, unit axis, height and radius relative to the rays' origin
    (``cylinder_table``). The first ``counts[0]`` rays are cast against
    cylinder 0 only, the next ``counts[1]`` against cylinder 1, and so on.
    The lateral surface and both caps count.

    Every step is elementwise arithmetic, with no matrix product or row dot,
    so a ray's t has the same bits whichever rays and cylinders share the
    call. Per cylinder, with b its base and a its axis, the kernel computes
    q = b - (b.a) a, the base's offset from the axis line through the
    origin, and qc = |q|^2 - r^2 once. Along a ray t d, with e = d - (d.a) a,
    the distance from the axis line is r where t^2 |e|^2 - 2 t q.e + qc = 0
    (the half-b form), and the axial coordinate t d.a - b.a is 0 or the
    height at the cap planes. The ray is inside the cylinder where it is
    both between the roots and between the cap planes, and the hit is the
    first positive t of that interval: its start, or its end for an origin
    inside the cylinder.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    out = np.empty(n)
    b, a = cylinders[:, :3].T, cylinders[:, 3:6].T
    ba = b[0] * a[0] + b[1] * a[1] + b[2] * a[2]
    q = b - ba * a
    r = cylinders[:, 7]
    qc = q[0] * q[0] + q[1] * q[1] + q[2] * q[2] - r * r
    # one row per per-cylinder term: t d.a runs from ba to ba + h between the
    # cap planes, and a ray along the axis is inside the side everywhere
    # (within = inf) or nowhere (NaN)
    terms = np.vstack([a, q, qc, ba, ba + cylinders[:, 6], np.where(qc <= 0.0, np.inf, np.nan)])
    ends = np.cumsum(counts)
    for start in range(0, n, RAY_BLOCK):
        stop = min(start + RAY_BLOCK, n)
        rays = np.clip(ends, start, stop) - np.clip(ends - counts, start, stop)
        a0, a1, a2, q0, q1, q2, qc_r, bottom, top, within = np.repeat(terms, rays, axis=1)
        dx, dy, dz = dirs[:, start:stop]
        dd = dx * a0 + dy * a1 + dz * a2
        ex, ey, ez = dx - dd * a0, dy - dd * a1, dz - dd * a2
        qa = ex * ex + ey * ey + ez * ez
        qb = q0 * ex + q1 * ey + q2 * ez
        # NaN, which fails every comparison, stands for an empty interval:
        # a negative discriminant, or a ray along the axis outside its radius
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sq = np.sqrt(qb * qb - qa * qc_r)
            side = qa > 1e-16
            enter = np.where(side, (qb - sq) / qa, -within)
            leave = np.where(side, (qb + sq) / qa, within)
            # a ray in a cap plane (d.a = 0, b.a = 0) is between the planes
            step = np.where(dd == 0.0, 1e-300, dd)
            t0, t1 = bottom / step, top / step
            enter = np.maximum(enter, np.minimum(t0, t1))
            leave = np.minimum(leave, np.maximum(t0, t1))
            t = np.where(enter > 1e-12, enter, leave)
            out[start:stop] = np.where((enter <= leave) & (t > 1e-12), t, np.inf)
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


"""Projection, back-projection, rigid-transform, segment-distance and
ray/cylinder geometry tests.

Back-projection is checked against the one-point projection kept in
``keypoints_reference``.

The ray/cylinder reference is a sphere-tracing oracle on the finite
cylinder's signed distance field, independent of the quadratic solve.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_origin, first_hit, identity, random_rigid, ray_cylinder_hits_reference
import icp_reference as icp_ref
from keypoints_reference import project
from mvsense import geometry
from mvsense.geometry import (
    RAY_BLOCK,
    Cylinder,
    RigidTransform,
    cast_rays,
    cylinder_table,
    frame_from_axis,
    inside_any,
    normalize,
    pan_tilt_rotation,
    reproject,
    rot_x,
    rot_y,
    rotation_between,
    segment_segment_distance_batch,
)


def cylinder_sdf(p, cyl):
    """Signed distance to a finite (capped) cylinder."""
    d = p - cyl.base
    ax = d @ cyl.axis
    rad = np.linalg.norm(d - ax * cyl.axis)
    dr = rad - cyl.radius
    dz = max(-ax, ax - cyl.height)
    if dr <= 0 and dz <= 0:
        return max(dr, dz)
    return float(np.hypot(max(dr, 0.0), max(dz, 0.0)))


def sphere_trace(origin, direction, cyl, t_max=50.0, eps=1e-5):
    """March along the ray by the SDF until a surface hit or escape.

    Grazing rays stop short of the surface, so a sign-change bisection
    polishes the crossing after the march terminates.
    """
    t = 0.0
    hit = None
    for _ in range(10000):
        d = cylinder_sdf(origin + t * direction, cyl)
        if d < eps:
            hit = t
            break
        t += d
        if t > t_max:
            return None
    if hit is None:
        return None
    # bracket the surface crossing and bisect
    lo, hi = hit, None
    step = eps
    probe = hit
    for _ in range(400):
        probe += step
        if cylinder_sdf(origin + probe * direction, cyl) < 0:
            hi = probe
            break
        lo = probe
    if hi is None:
        return hit  # tangential touch: the march point is the best estimate
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cylinder_sdf(origin + mid * direction, cyl) < 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestProjection:
    def test_optical_axis_point_maps_to_principal_point(self, k_vga):
        pixel, depth = project(np.array([0.0, 0.0, 2.0]),
                               identity(), k_vga)
        assert pixel == pytest.approx([320.0, 240.0])
        assert depth == pytest.approx(2.0)

    def test_unit_offset(self, k_vga):
        pixel, _ = project(np.array([1.0, 0.0, 2.0]),
                           identity(), k_vga)
        # 500 * 1/2 + 320
        assert pixel == pytest.approx([570.0, 240.0])

    def test_reproject_principal_point(self, k_vga):
        p = reproject((320.0, 240.0), 3.5, k_vga)
        assert p == pytest.approx([0.0, 0.0, 3.5])

    def test_reproject_unit_lateral(self, k_vga):
        p = reproject((320.0 + 500.0, 240.0), 1.0, k_vga)
        assert p == pytest.approx([1.0, 0.0, 1.0])

    def test_reproject_many_pixels_matches_one_at_a_time(self, k_vga, rng):
        pixels = rng.uniform(0.0, 640.0, (50, 2))
        depths = rng.uniform(0.1, 10.0, 50)
        got = reproject(pixels, depths, k_vga)
        assert got.shape == (50, 3)
        for row, pixel, depth in zip(got, pixels, depths):
            assert row.tobytes() == reproject(pixel, float(depth), k_vga).tobytes()

    def test_project_many_points_matches_one_at_a_time(self, k_vga, rng):
        points = rng.uniform(-2.0, 2.0, (50, 3))
        points[:, 2] = rng.uniform(0.1, 10.0, 50)
        got = geometry.project(points, k_vga)
        assert got.shape == (50, 2)
        for row, point in zip(got, points):
            assert row.tobytes() == geometry.project(point, k_vga).tobytes()

    def test_project_behind_the_camera_warns_nothing(self, k_vga):
        """Rows at or behind the camera, and NaN rows, divide quietly; a
        row in front keeps its pixel."""
        points = np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                           [1.0, -1.0, -2.0], [1e300, 0.0, 1e-300], [np.nan] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometry.project(points, k_vga)
        assert got.shape == (6, 2)
        assert got[0].tolist() == [570.0, 240.0]

    def test_project_inverts_reproject(self, k_vga, rng):
        pixels = rng.uniform(0.0, 640.0, (200, 2))
        depths = rng.uniform(0.1, 10.0, 200)
        back = geometry.project(reproject(pixels, depths, k_vga), k_vga)
        assert np.abs(back - pixels).max() < 1e-9

    def test_round_trip_identity(self, k_vga, rng):
        pose = identity()
        worst = 0.0
        for _ in range(1000):
            z = rng.uniform(0.1, 10.0)
            p = np.array([rng.uniform(-1, 1) * z, rng.uniform(-1, 1) * z, z])
            pixel, depth = project(p, pose, k_vga)
            back = reproject(pixel, depth, k_vga)
            worst = max(worst, float(np.abs(back - p).max()))
        assert worst < 1e-9

    def test_round_trip_with_pose(self, k_vga, rng):
        for _ in range(100):
            pose = random_rigid(rng)
            p_cam = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                              rng.uniform(0.5, 5.0)])
            p_world = pose.apply(p_cam)
            pixel, depth = project(p_world, pose, k_vga)
            assert np.allclose(reproject(pixel, depth, k_vga), p_cam, atol=1e-9)


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(r, np.zeros(3))

    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(50):
            a = random_rigid(rng)
            ident = a.compose(a.inverse())
            assert np.allclose(ident.rotation, np.eye(3), atol=1e-9)
            assert np.allclose(ident.translation, 0.0, atol=1e-9)

    def test_compose_order_applies_other_first(self, rng):
        a = random_rigid(rng)
        b = random_rigid(rng)
        p = rng.uniform(-1, 1, 3)
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_rotation_orthonormal_within_tolerance(self, rng):
        a = random_rigid(rng)
        assert np.abs(a.rotation.T @ a.rotation - np.eye(3)).max() < 1e-9


class TestPanTiltRotation:
    def test_equals_the_product_of_axis_rotations(self, rng):
        """One pair of angles or a stack of them; ``==`` holds -0.0 and 0.0
        equal, the one way the written-out entries may differ."""
        pan = np.concatenate([rng.uniform(-np.pi, np.pi, 200), [0.0, 0.0, np.pi / 2]])
        tilt = np.concatenate([rng.uniform(-np.pi, np.pi, 200), [0.0, -0.3, 0.0]])
        stacked = pan_tilt_rotation(pan, tilt)
        assert stacked.shape == (len(pan), 3, 3)
        for p, t, row in zip(pan.tolist(), tilt.tolist(), stacked):
            want = rot_y(p) @ rot_x(t)
            assert (pan_tilt_rotation(p, t) == want).all()
            assert (row == want).all()


class TestCylinder:
    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            Cylinder(np.zeros(3), np.array([0.0, 0.0, 2.0]), 1.0, 0.5)

    def test_from_endpoints(self):
        c = Cylinder.from_endpoints((0, 0, 0), (0, 0, 2), 0.3)
        assert c.height == pytest.approx(2.0)
        assert c.axis == pytest.approx([0, 0, 1])


UP = np.array([0.0, 0.0, 1.0])


class TestInsideAny:
    def test_one_cylinder(self):
        c = Cylinder(np.zeros(3), UP, 1.0, 0.5)
        inside = inside_any([c], np.array([[0.1, 0.0, 0.5], [0.9, 0.0, 0.5],
                                           [0.0, 0.0, 1.5]]), [c.radius])
        assert inside.tolist() == [True, False, False]

    def test_caps_and_surface_are_inside(self):
        c = Cylinder(np.zeros(3), UP, 1.0, 0.5)
        pts = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -0.5, 0.5],
                        [0.0, 0.0, -1e-9], [0.0, 0.0, 1.0 + 1e-9]])
        assert inside_any([c], pts, [c.radius]).tolist() == [True, True, True, False, False]

    def test_each_cylinder_has_its_own_reach(self):
        a = Cylinder(np.zeros(3), UP, 1.0, 0.1)
        b = Cylinder(np.array([1.0, 0.0, 0.0]), UP, 1.0, 0.1)
        pts = np.array([[x, 0.0, 0.5] for x in (-0.05, 0.15, 0.25, 0.75, 0.85, 1.25)])
        assert inside_any([a, b], pts, [0.1, 0.3]).tolist() == \
            [True, False, False, True, True, True]
        assert inside_any([a, b], pts, [0.3, 0.1]).tolist() == \
            [True, True, True, False, False, False]
        assert inside_any([b, a], pts, [0.1, 0.3]).tolist() == \
            [True, True, True, False, False, False]

    def test_no_points(self):
        c = Cylinder(np.zeros(3), UP, 1.0, 0.5)
        got = inside_any([c, c], np.empty((0, 3)), [0.5, 0.6])
        assert got.shape == (0,) and got.dtype == bool

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_cylinder_reference(self, seed):
        """Random cylinders, each with its own margin, against the union of
        one per-cylinder test each; points are drawn around the cylinders and
        on their inflated surfaces."""
        rng = np.random.default_rng(seed)
        for _ in range(30):
            cylinders = [Cylinder(rng.uniform(-0.5, 0.5, 3), normalize(rng.normal(size=3)),
                                  rng.uniform(0.1, 0.6), rng.uniform(0.02, 0.15))
                         for _ in range(rng.integers(1, 7))]
            margins = rng.uniform(0.0, 0.05, len(cylinders))
            pts = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 400)), 3))
            for c, m in zip(cylinders, margins):  # on the inflated wall
                t = rng.uniform(-0.05, 1.05, 20) * c.height
                side = normalize(np.cross(c.axis, rng.normal(size=3)))
                pts = np.vstack([pts, c.base + t[:, None] * c.axis + (c.radius + m) * side])
            want = np.zeros(len(pts), dtype=bool)
            for c, m in zip(cylinders, margins):
                want |= icp_ref.contains(c, pts, radial_margin=m)
            got = inside_any(cylinders, pts, [c.radius + m for c, m in zip(cylinders, margins)])
            assert got.tolist() == want.tolist()
            assert want.any() and not want.all()


class TestRayCylinder:
    def setup_method(self):
        self.cyl = Cylinder(np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 0.5)

    def test_hits_top_cap(self):
        t = first_hit((0, 0, 5), (0, 0, -1), self.cyl)
        assert t == pytest.approx(4.0, abs=1e-12)

    def test_lateral_miss(self):
        assert first_hit((2, 0, 0.5), (0, 0, -1), self.cyl) is None

    def test_lateral_hit(self):
        t = first_hit((2, 0, 0.5), (-1, 0, 0), self.cyl)
        assert t == pytest.approx(1.5, abs=1e-12)

    def test_inside_hits_wall(self):
        t = first_hit((0, 0, 0.5), (1, 0, 0), self.cyl)
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_random_rays_match_sphere_tracing(self, rng):
        hits = 0
        for i in range(1000):
            origin = rng.uniform(-3, 3, 3)
            if cylinder_sdf(origin, self.cyl) < 0.05:
                continue  # keep origins outside the surface
            if i % 2 == 0:
                # aim at the body so hits are well represented
                target = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                   rng.uniform(0.05, 0.95)])
                direction = normalize(target - origin)
            else:
                direction = normalize(rng.normal(size=3))
            ours = first_hit(origin, direction, self.cyl)
            oracle = sphere_trace(origin, direction, self.cyl)
            if oracle is None:
                assert ours is None or ours > 40.0
            else:
                hits += 1
                assert ours == pytest.approx(oracle, abs=1e-4)
        assert hits > 300  # the comparison actually exercised hits

    def test_rigid_covariance(self, rng):
        for _ in range(200):
            origin = rng.uniform(-3, 3, 3)
            direction = normalize(rng.normal(size=3))
            t0 = first_hit(origin, direction, self.cyl)
            x = random_rigid(rng)
            moved = Cylinder(x.apply(self.cyl.base), x.rotation @ self.cyl.axis,
                             self.cyl.height, self.cyl.radius)
            t1 = first_hit(x.apply(origin), x.rotation @ direction, moved)
            if t0 is None:
                assert t1 is None
            else:
                assert t1 == pytest.approx(t0, abs=1e-9)


def reference_cast(origin, dirs, cylinders):
    """The per-cylinder loop that ``cast_rays`` replaced."""
    return np.concatenate([np.empty(0)] + [
        ray_cylinder_hits_reference(np.asarray(origin)[None, :], d, c)
        for d, c in zip(dirs, cylinders) if len(d)])


def tangent_dirs(origin, cyl, n, rng):
    """Directions from ``origin`` that graze the cylinder's lateral surface."""
    frame = frame_from_axis(cyl.axis)
    rel = (origin - cyl.base) @ frame  # x, y across the axis, z along it
    rho = np.hypot(rel[0], rel[1])
    if rho <= cyl.radius:
        return np.empty((0, 3))
    phi = np.arctan2(rel[1], rel[0]) + rng.choice([-1.0, 1.0], n) * np.arccos(
        cyl.radius / rho)
    touch = np.column_stack([cyl.radius * np.cos(phi), cyl.radius * np.sin(phi),
                             rng.uniform(-0.2, 1.2, n) * cyl.height])
    return touch @ frame.T + cyl.base - origin


def rim_dirs(origin, cyl, n, rng):
    """Directions from ``origin`` to points on the rims of the caps."""
    frame = frame_from_axis(cyl.axis)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    rim = np.column_stack([cyl.radius * np.cos(phi), cyl.radius * np.sin(phi),
                           cyl.height * rng.integers(0, 2, n)])
    return rim @ frame.T + cyl.base - origin


def special_dirs(origin, cyl, n, rng):
    """n directions: aimed near the cylinder or at a cap's rim, along and
    across its axis, grazing its side, and random."""
    target = (cyl.base + np.outer(rng.uniform(-0.2, 1.2, n), cyl.axis * cyl.height)
              + rng.normal(scale=cyl.radius, size=(n, 3)))
    dirs = target - origin
    kind = rng.integers(0, 6, n)
    rim = kind == 5
    dirs[rim] = rim_dirs(origin, cyl, rim.sum(), rng)
    along = kind == 1
    dirs[along] = np.outer(rng.choice([-1.0, 1.0], along.sum()), cyl.axis)
    across = kind == 2  # zero axial component, exactly so on an axis-aligned cylinder
    dirs[across] = dirs[across] - np.outer(dirs[across] @ cyl.axis, cyl.axis)
    if np.count_nonzero(cyl.axis) == 1:
        dirs[np.ix_(across, cyl.axis != 0)] = 0.0
    graze = np.flatnonzero(kind == 3)
    tangent = tangent_dirs(origin, cyl, len(graze), rng)
    dirs[graze[:len(tangent)]] = tangent
    random = kind == 4
    dirs[random] = rng.normal(size=(random.sum(), 3))
    return dirs


COUNTS = [0, 1, 2, 3, 17, 300, RAY_BLOCK - 1, RAY_BLOCK, RAY_BLOCK + 1]


def cast(origin, dirs, cylinders):
    """``cast_rays`` from ``origin``: ``dirs[i]`` (n_i, 3) against ``cylinders[i]``."""
    return cast_rays(np.concatenate([np.empty((0, 3))] + list(dirs)).T,
                     cylinder_table(cylinders, at_origin(origin)), [len(d) for d in dirs])


def ill_conditioned(origin, dirs, cylinders):
    """Rays whose hit or miss is decided by rounding: grazing the side (a
    discriminant within rounding of 0) or meeting it at a cap's rim. Both
    ``special_dirs`` aims at on purpose."""
    flags = [np.zeros(0, dtype=bool)]
    for d, c in zip(dirs, cylinders):
        o = np.asarray(origin, dtype=np.float64) - c.base
        od, dd = o @ c.axis, d @ c.axis
        op, dp = o - od * c.axis, d - np.outer(dd, c.axis)
        qa = np.einsum("ij,ij->i", dp, dp)
        qb = 2.0 * dp @ op
        qc = op @ op - c.radius ** 2
        disc = qb * qb - 4.0 * qa * qc
        grazing = (qa > 1e-16) & (np.abs(disc) <= 1e-8 * (qb * qb + 4.0 * np.abs(qa * qc)))
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = (-qb[:, None] + np.sqrt(np.maximum(disc, 0.0))[:, None] * (-1.0, 1.0)) \
                / (2.0 * qa[:, None])
            ax = od + roots * dd[:, None]
            rim = (np.minimum(np.abs(ax), np.abs(ax - c.height)) <= 1e-8 * c.height).any(axis=1)
        flags.append(grazing | rim)
    return np.concatenate(flags)


def assert_agrees_with_reference(t, ref, ill):
    """The same hit or miss, and t within 1e-9 relative, for every ray whose
    result rounding does not decide."""
    well = ~ill
    assert np.array_equal(np.isfinite(t[well]), np.isfinite(ref[well]))
    hit = well & np.isfinite(ref)
    assert np.all(np.abs(t[hit] - ref[hit]) <= 1e-9 * ref[hit])


def random_cylinders(rng, n, aligned):
    cylinders = []
    for k in range(n):
        if aligned[k]:
            axis = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
        else:
            axis = normalize(rng.normal(size=3))
        cylinders.append(Cylinder(np.round(rng.normal(size=3), 2), axis,
                                  rng.uniform(0.1, 2.0), rng.uniform(0.02, 0.6)))
    return cylinders


class TestCastRays:
    """The elementwise kernel against the per-cylinder body it replaced, and
    its own bitwise contract."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.sampled_from(COUNTS), min_size=1, max_size=5),
           aligned=st.lists(st.booleans(), min_size=5, max_size=5),
           inside=st.booleans())
    def test_matches_per_cylinder_reference(self, seed, counts, aligned, inside):
        rng = np.random.default_rng(seed)
        cylinders = random_cylinders(rng, len(counts), aligned)
        if inside:  # from inside the first cylinder
            c = cylinders[0]
            origin = c.base + c.axis * (0.5 * c.height)
        else:
            origin = np.round(rng.normal(scale=2.0, size=3), 2)
        dirs = [special_dirs(origin, c, n, rng) for c, n in zip(cylinders, counts)]
        t = cast(origin, dirs, cylinders)
        assert_agrees_with_reference(t, reference_cast(origin, dirs, cylinders),
                                     ill_conditioned(origin, dirs, cylinders))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.sampled_from(COUNTS), min_size=1, max_size=4),
           aligned=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_any_subset_of_rays_gives_their_rows_bitwise(self, seed, counts, aligned):
        """Casting a subset of the rays, down to single rays, with any subset
        of the cylinders, gives exactly those rows of the batched cast."""
        rng = np.random.default_rng(seed)
        cylinders = random_cylinders(rng, len(counts), aligned)
        origin = np.round(rng.normal(scale=2.0, size=3), 2)
        dirs = [special_dirs(origin, c, n, rng) for c, n in zip(cylinders, counts)]
        t = cast(origin, dirs, cylinders)
        keep = [rng.random(len(d)) < rng.uniform() for d in dirs]
        sub = cast(origin, [d[k] for d, k in zip(dirs, keep)], cylinders)
        assert sub.tobytes() == t[np.concatenate(keep)].tobytes()
        owner = np.repeat(np.arange(len(counts)), counts)
        for i in rng.choice(len(t), min(len(t), 20), replace=False):
            c = owner[i]
            ray = dirs[c][i - sum(counts[:c])]
            assert cast(origin, [ray[None]], [cylinders[c]]).tobytes() == t[i:i + 1].tobytes()

    @pytest.mark.parametrize("counts", [
        [RAY_BLOCK - 1, 2],           # the second cylinder's rays span two blocks
        [RAY_BLOCK - 1, 1, 5],        # the first block is exactly full
        [5, 3 * RAY_BLOCK + 7, 1],    # one cylinder over several blocks
        [1, 0, 1, 0],                 # single rays and empty cylinders
        [0, 0],
    ])
    def test_block_boundaries(self, counts, rng):
        origin = np.array([0.3, -2.5, 0.4])
        cylinders = [Cylinder(rng.normal(scale=0.5, size=3), normalize(rng.normal(size=3)),
                              1.0, 0.4) for _ in counts]
        dirs = [special_dirs(origin, c, n, rng) for c, n in zip(cylinders, counts)]
        t = cast(origin, dirs, cylinders)
        assert len(t) == sum(counts)
        assert_agrees_with_reference(t, reference_cast(origin, dirs, cylinders),
                                     ill_conditioned(origin, dirs, cylinders))
        # each cylinder alone, in one block or fewer, gives the same bits
        alone = [cast(origin, [d], [c]) for d, c in zip(dirs, cylinders)]
        assert np.concatenate([np.empty(0)] + alone).tobytes() == t.tobytes()

    def test_single_ray_cylinders(self, rng):
        """One ray per cylinder, aimed at it."""
        origin = np.array([0.25, -1.5, 0.75])
        cylinders = [Cylinder(rng.normal(size=3), normalize(rng.normal(size=3)),
                              rng.uniform(0.2, 1.5), rng.uniform(0.05, 0.5))
                     for _ in range(400)]
        dirs = [c.midpoint[None, :] + rng.normal(scale=c.radius, size=(1, 3)) - origin
                for c in cylinders]
        t = cast(origin, dirs, cylinders)
        assert np.isfinite(t).sum() > 100
        assert_agrees_with_reference(t, reference_cast(origin, dirs, cylinders),
                                     ill_conditioned(origin, dirs, cylinders))

    def test_no_cylinders(self):
        assert cast_rays(np.empty((3, 0)), np.empty((0, 8)), []).shape == (0,)

    def test_exact_tangent_and_axis_parallel_rays(self):
        cyl = Cylinder(np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 0.5)
        origin = np.array([2.0, 0.5, 0.5])
        dirs = np.array([[-1.0, 0.0, 0.0],   # grazes the side: discriminant 0
                         [-1.0, 0.0, 0.5],   # crosses the top cap plane off the disc
                         [0.0, 0.0, 1.0],    # parallel to the axis, outside
                         [-4.0, -1.0, 0.0]])  # through the axis, across it
        t = cast(origin, [dirs], [cyl])
        ref = ray_cylinder_hits_reference(origin[None, :], dirs, cyl)
        assert t[0] == 2.0 and t[2] == np.inf
        assert_agrees_with_reference(t, ref, np.array([True, False, False, False]))
        below = cast(np.array([0.1, 0.0, -1.0]), [dirs[2:3]], [cyl])
        assert below.tolist() == [1.0]  # bottom cap, through a single-ray call

    def test_ray_in_a_cap_plane(self):
        """A ray in the bottom cap's plane, across the axis, meets the side
        like the reference's axial test, which counts the plane as inside."""
        cyl = Cylinder(np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 0.5)
        origin = np.array([2.0, 0.0, 0.0])
        dirs = np.array([[-1.0, 0.0, 0.0], [-1.0, 0.2, 0.0]])
        t = cast(origin, [dirs], [cyl])
        ref = ray_cylinder_hits_reference(origin[None], dirs, cyl)
        assert t[0] == 1.5 and np.isfinite(ref[1])
        assert t[1] == pytest.approx(ref[1], rel=1e-9)


def segment_distance(p0, p1, q0, q1) -> float:
    """One pair's distance through the batch, on 1x1 inputs."""
    d = segment_segment_distance_batch(*(np.asarray(x, dtype=np.float64)[None]
                                         for x in (p0, p1, q0, q1)))
    assert d.shape == (1, 1)
    return float(d[0, 0])


class TestSegments:
    def test_parallel_segments(self):
        d = segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_crossing_segments(self):
        d = segment_distance((-1, 0, 0), (1, 0, 0), (0, -1, 1), (0, 1, 1))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_sampling(self, rng):
        for _ in range(50):
            p0, p1, q0, q1 = rng.uniform(-1, 1, (4, 3))
            fast = segment_distance(p0, p1, q0, q1)
            s = np.linspace(0, 1, 400)
            pa = p0 + s[:, None] * (p1 - p0)
            qb = q0 + s[:, None] * (q1 - q0)
            dense = np.sqrt(
                ((pa[:, None, :] - qb[None, :, :]) ** 2).sum(-1)).min()
            assert fast <= dense + 1e-9
            assert fast >= dense - 5e-3  # sampling resolution slack


class TestRotationBetween:
    def test_small_and_large_angles(self, rng):
        for _ in range(200):
            a = normalize(rng.normal(size=3))
            b = normalize(rng.normal(size=3))
            r = rotation_between(a, b)
            assert np.allclose(r @ a, b, atol=1e-9)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_antiparallel(self):
        a = np.array([0.0, 0.0, 1.0])
        r = rotation_between(a, -a)
        assert np.allclose(r @ a, -a, atol=1e-9)

    def test_bitwise_equal_to_np_cross_formulation(self, rng):
        for _ in range(500):
            raw_a, raw_b = rng.normal(size=3), rng.normal(size=3)
            a, b = normalize(raw_a), normalize(raw_b)
            v = np.cross(a, b)
            vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]],
                           [-v[1], v[0], 0]], dtype=np.float64)
            ref = np.eye(3) + vx + vx @ vx / (1.0 + float(np.dot(a, b)))
            assert rotation_between(raw_a, raw_b).tobytes() == ref.tobytes()


def frame_from_axis_np_cross(axis):
    """The np.cross formulation of frame_from_axis, kept as the oracle."""
    z = normalize(axis)
    a = normalize(z)
    helper = np.array([0.0, 1.0, 0.0]) if abs(a[0]) > 0.9 else np.array([1.0, 0.0, 0.0])
    x = normalize(np.cross(a, helper))
    return np.column_stack([x, np.cross(z, x), z])


class TestNormalize:
    def test_bitwise_equal_to_linalg_norm(self, rng):
        mat = rng.normal(size=(50, 3))
        cases = [rng.normal(size=3) * rng.choice([1e-9, 1.0, 1e9])
                 for _ in range(2000)]
        cases += [mat[:3, 1], mat[7], [3.0, 4.0, 0.0], [0.0, -0.0, 2.5]]
        for v in cases:
            ref = np.asarray(v, dtype=np.float64)
            ref = ref / np.linalg.norm(ref)
            assert normalize(v).tobytes() == ref.tobytes()

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0, 1e-13])


class TestFrameFromAxis:
    def test_bitwise_equal_to_np_cross_on_both_branches(self, rng):
        branches = set()
        for i in range(2000):
            axis = rng.normal(size=3) * rng.choice([1e-3, 1.0, 1e3])
            if i % 2:
                axis[0] = 40.0 * axis[0] + np.sign(axis[0])  # |a0| > 0.9
            if i % 5 == 0:
                axis[rng.integers(3)] = 0.0  # signed zeros in the cross terms
            branches.add(bool(abs(normalize(axis)[0]) > 0.9))
            got = frame_from_axis(axis)
            assert got.tobytes() == frame_from_axis_np_cross(axis).tobytes()
            assert got.flags.c_contiguous
        assert branches == {False, True}

    def test_right_handed_orthonormal(self, rng):
        for _ in range(100):
            f = frame_from_axis(rng.normal(size=3))
            assert np.allclose(f.T @ f, np.eye(3), atol=1e-12)
            assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-12)

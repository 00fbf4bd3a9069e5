"""Keypart masks and cloud extraction.

Painting semantics are verified against a per-pixel brute-force oracle:
the label of a pixel must be the covering trapezoid with the smallest
mean paint depth, whatever the input order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from mvsense import body
from mvsense.filters import largest_euclidean_cluster, passthrough, voxel_downsample
from mvsense.geometry import Cylinder, Intrinsics, RigidTransform
from mvsense.keypoints import FusedKeypoint, Observation2D, PresenceWindow
from mvsense.keyparts import (
    BACKGROUND,
    CloudParams,
    MaskImage,
    Trapezoid,
    base_half_length,
    extract_clouds,
    paint_masks,
    part_endpoints,
    part_presence,
    project_keypoints_to_mask,
    trapezoid_for_part,
)


def k_small():
    return Intrinsics(fx=200.0, fy=200.0, cx=79.5, cy=59.5, width=160, height=120)


def make_trapezoid(part, mu, ml, lu, ll, du, dl):
    return Trapezoid(part, np.asarray(mu, float), np.asarray(ml, float),
                     lu, ll, du, dl)


class TestPartPresence:
    def test_max_semantics_one_strong_keypoint(self):
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        confs = {k: 0.0 for k in body.PART_KEYPOINTS[body.L_UPPER_ARM]}
        confs[body.L_SHOULDER] = 1.0
        for _ in range(6):
            w.update(max(confs.values()))
        assert part_presence(w) == 1

    def test_all_members_zero_absent(self):
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        for _ in range(6):
            w.update(0.0)
        assert part_presence(w) == 0

    def test_alternating_history_matches_formula(self):
        history = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        for c in history:
            w.update(c)
        expected = sum((0.7 ** m) * c
                       for m, c in enumerate(reversed(history)))
        assert w.score() == pytest.approx(expected, abs=0)
        assert part_presence(w) == int(expected > 1.0)


class TestTrapezoidGeometry:
    def test_base_half_length_value(self):
        assert base_half_length(500.0, 2.0, 0.1) == pytest.approx(25.0)

    def test_length_depth_product_constant(self):
        f, r = 333.0, 0.07
        ref = base_half_length(f, 1.0, r) * 1.0
        for d in np.linspace(0.2, 8.0, 50):
            assert base_half_length(f, d, r) * d == pytest.approx(ref, abs=1e-9)

    def test_doubling_depth_halves_length(self):
        l1 = base_half_length(400.0, 1.3, 0.05)
        l2 = base_half_length(400.0, 2.6, 0.05)
        assert l2 == pytest.approx(l1 / 2)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            base_half_length(400.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            trapezoid_for_part(2, ((0, 0), (10, 10)), (-1.0, 2.0), k_small(), 0.05)

    def test_equal_depths_give_rectangle(self):
        tz = trapezoid_for_part(2, ((10.0, 10.0), (10.0, 50.0)), (2.0, 2.0),
                                k_small(), 0.05, inflation=1.0)
        corners = tz.corners()
        assert tz.len_upper == pytest.approx(tz.len_lower)
        # opposite sides parallel and equal: a parallelogram (rectangle here)
        assert np.allclose(corners[1] - corners[0], corners[2] - corners[3],
                           atol=1e-12)

    def test_bases_perpendicular_to_axis(self):
        tz = make_trapezoid(1, (5.0, 5.0), (20.0, 30.0), 4.0, 6.0, 1.0, 2.0)
        corners = tz.corners()
        axis = tz.mid_lower - tz.mid_upper
        base_u = corners[1] - corners[0]
        base_l = corners[2] - corners[3]
        assert abs(np.dot(axis, base_u)) < 1e-9
        assert abs(np.dot(axis, base_l)) < 1e-9

    def test_inflation_scales_half_lengths(self):
        tz1 = trapezoid_for_part(2, ((10, 10), (10, 50)), (2.0, 1.0), k_small(),
                                 0.05, inflation=1.0)
        tz2 = trapezoid_for_part(2, ((10, 10), (10, 50)), (2.0, 1.0), k_small(),
                                 0.05, inflation=1.2)
        assert tz2.len_upper == pytest.approx(tz1.len_upper * 1.2)
        assert tz2.len_lower == pytest.approx(tz1.len_lower * 1.2)

    def test_depth_interpolates_along_axis(self):
        tz = make_trapezoid(1, (10.0, 0.0), (10.0, 40.0), 4.0, 4.0, 1.0, 3.0)
        d = tz.depth_at(np.array([[10.0, 0.0], [10.0, 20.0], [10.0, 40.0]]))
        assert d == pytest.approx([1.0, 2.0, 3.0])


class TestProjectKeypointsToMask:
    def test_fused_point_on_optical_axis(self):
        k = k_small()
        fused = {0: FusedKeypoint(0, np.array([0.0, 0.0, 2.0]), 0.9, 1)}
        depth = np.full((120, 160), 2.0)
        anchors = project_keypoints_to_mask(
            fused, {}, RigidTransform.identity(), k, depth, 3, [body.HEAD])
        assert np.allclose(anchors[0].pixel, [k.cx, k.cy], atol=1e-9)
        assert anchors[0].depth == pytest.approx(2.0)
        assert anchors[0].fused

    def test_absent_keypoint_falls_back_to_raw_detection(self):
        k = k_small()
        raw = {0: Observation2D(0, np.array([40.0, 30.0]), 0.4, "c", 0.0)}
        depth = np.full((120, 160), 1.5)
        anchors = project_keypoints_to_mask(
            {}, raw, RigidTransform.identity(), k, depth, 3, [body.HEAD])
        assert np.allclose(anchors[0].pixel, [40.0, 30.0])
        assert anchors[0].depth == pytest.approx(1.5)
        assert not anchors[0].fused

    def test_behind_camera_keypoint_skipped(self):
        k = k_small()
        fused = {0: FusedKeypoint(0, np.array([0.0, 0.0, -1.0]), 0.9, 1)}
        depth = np.full((120, 160), 1.5)
        anchors = project_keypoints_to_mask(
            fused, {}, RigidTransform.identity(), k, depth, 3, [body.HEAD])
        assert 0 not in anchors

    def test_part_endpoints_torso_uses_midpoints(self):
        from mvsense.keyparts import MaskAnchor
        anchors = {
            body.L_SHOULDER: MaskAnchor(5, np.array([10.0, 10.0]), 2.0, True),
            body.R_SHOULDER: MaskAnchor(6, np.array([30.0, 10.0]), 2.2, True),
            body.L_HIP: MaskAnchor(11, np.array([12.0, 60.0]), 2.1, True),
            body.R_HIP: MaskAnchor(12, np.array([28.0, 60.0]), 2.3, True),
        }
        (pu, du), (pl, dl) = part_endpoints(body.TORSO, anchors)
        assert np.allclose(pu, [20.0, 10.0])
        assert np.allclose(pl, [20.0, 60.0])
        assert du == pytest.approx(2.1)
        assert dl == pytest.approx(2.2)

    def test_part_endpoints_missing_side_returns_none(self):
        assert part_endpoints(body.L_UPPER_ARM, {}) is None


def brute_force_labels(trapezoids, width, height):
    """Per pixel: covering trapezoid with the minimum mean paint depth."""
    labels = np.full((height, width), BACKGROUND, dtype=np.int16)
    for v in range(height):
        pix = np.column_stack([np.arange(width), np.full(width, v)]).astype(float)
        best_depth = np.full(width, np.inf)
        for tz in trapezoids:
            inside = tz.contains(pix)
            closer = inside & (tz.paint_depth < best_depth)
            labels[v, closer] = tz.part
            best_depth[closer] = tz.paint_depth
    return labels


class TestPaintMasks:
    def test_nearer_part_owns_overlap(self):
        a = make_trapezoid(1, (20, 10), (20, 50), 10, 10, 1.0, 1.0)
        b = make_trapezoid(2, (25, 10), (25, 50), 10, 10, 3.0, 3.0)
        mask = paint_masks([a, b], 80, 60)
        overlap = mask.labels[30, 22]
        assert overlap == 1

    def test_disjoint_order_independent(self):
        a = make_trapezoid(1, (10, 10), (10, 30), 5, 5, 1.0, 1.0)
        b = make_trapezoid(2, (60, 10), (60, 30), 5, 5, 3.0, 3.0)
        m1 = paint_masks([a, b], 80, 60)
        m2 = paint_masks([b, a], 80, 60)
        assert np.array_equal(m1.labels, m2.labels)

    def test_random_configs_match_per_pixel_oracle(self, rng):
        for _ in range(30):
            tzs = []
            for part in range(rng.integers(2, 6)):
                mu = rng.uniform(5, 70, 2)
                ml = mu + rng.uniform(-25, 25, 2)
                tzs.append(make_trapezoid(
                    part, mu, ml, rng.uniform(2, 12), rng.uniform(2, 12),
                    rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)))
            mask = paint_masks(tzs, 80, 60)
            assert np.array_equal(mask.labels, brute_force_labels(tzs, 80, 60))

    def test_input_permutation_never_changes_mask(self, rng):
        tzs = [make_trapezoid(p, rng.uniform(5, 70, 2), rng.uniform(5, 70, 2),
                              rng.uniform(2, 12), rng.uniform(2, 12),
                              rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
               for p in range(5)]
        ref = paint_masks(tzs, 80, 60)
        for _ in range(5):
            perm = list(rng.permutation(5))
            again = paint_masks([tzs[i] for i in perm], 80, 60)
            assert np.array_equal(ref.labels, again.labels)

    def test_mask_partition_counts(self, rng):
        tzs = [make_trapezoid(p, rng.uniform(5, 70, 2), rng.uniform(5, 70, 2),
                              rng.uniform(2, 12), rng.uniform(2, 12),
                              rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))
               for p in range(4)]
        mask = paint_masks(tzs, 80, 60)
        _labels, counts = np.unique(mask.labels, return_counts=True)
        assert counts.sum() == 80 * 60


class TestFilters:
    def test_voxel_downsample_merges_to_centroids(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.009, 0.0, 0.0], [0.5, 0.5, 0.5]])
        out = voxel_downsample(pts, 0.02)
        assert len(out) == 2
        assert np.allclose(out[0], [0.0045, 0.0, 0.0])

    def test_never_adds_points(self, rng):
        pts = rng.uniform(-1, 1, (500, 3))
        assert len(voxel_downsample(pts, 0.05)) <= 500
        assert len(passthrough(pts, pts[:, 2], -0.5, 0.5)) <= 500
        assert len(largest_euclidean_cluster(pts, 0.2, 5)) <= 500

    def test_passthrough_range(self):
        pts = np.array([[0, 0, 0.1], [0, 0, 3.0], [0, 0, 9.0]], dtype=float)
        out = passthrough(pts, pts[:, 2], 0.2, 5.0)
        assert len(out) == 1 and out[0][2] == 3.0

    def test_cluster_keeps_largest(self):
        a = np.random.default_rng(0).normal(0, 0.01, (30, 3))
        b = np.random.default_rng(1).normal(0, 0.01, (12, 3)) + 5.0
        out = largest_euclidean_cluster(np.vstack([a, b]), 0.1, 5)
        assert len(out) == 30

    def test_cluster_min_size(self):
        pts = np.random.default_rng(0).normal(0, 0.01, (6, 3))
        assert len(largest_euclidean_cluster(pts, 0.1, 10)) == 0

    def test_empty_inputs(self):
        empty = np.zeros((0, 3))
        assert len(voxel_downsample(empty, 0.1)) == 0
        assert len(passthrough(empty, np.zeros(0), 0, 1)) == 0
        assert len(largest_euclidean_cluster(empty, 0.1, 1)) == 0


def reference_cluster(pts, radius, min_size):
    """Largest single-linkage component by scipy's connected_components.

    Ties go to the component holding the lowest point index.
    """
    n = len(pts)
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    adj = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(n, n))
    _n_comp, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    first = {lab: int(np.argmax(labels == lab)) for lab in range(len(sizes))}
    best = min(np.flatnonzero(sizes == sizes.max()), key=first.__getitem__)
    if sizes[best] < min_size:
        return pts[:0]
    return pts[labels == best]


class TestClusterMatchesConnectedComponents:
    @settings(max_examples=150, deadline=None)
    @given(pts=hnp.arrays(np.float64, st.tuples(st.integers(1, 80), st.just(3)),
                          elements=st.floats(-1.0, 1.0, width=32)),
           radius=st.sampled_from([0.05, 0.15, 0.3, 0.6]),
           min_size=st.integers(0, 40))
    def test_random_clouds(self, pts, radius, min_size):
        got = largest_euclidean_cluster(pts, radius, min_size)
        assert np.array_equal(got, reference_cluster(pts, radius, min_size))

    @settings(max_examples=80, deadline=None)
    @given(n_clusters=st.integers(2, 5), size=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), extra=st.booleans())
    def test_equal_size_ties_and_min_size_boundary(self, n_clusters, size,
                                                   seed, extra):
        rng = np.random.default_rng(seed)
        blobs = [rng.uniform(-0.02, 0.02, (size, 3)) + [3.0 * c, 0.0, 0.0]
                 for c in range(n_clusters)]
        pts = np.vstack(blobs)[rng.permutation(n_clusters * size)]
        min_size = size + int(extra)  # exactly at, then just past, the largest
        got = largest_euclidean_cluster(pts, 0.2, min_size)
        assert np.array_equal(got, reference_cluster(pts, 0.2, min_size))
        assert len(got) == (0 if extra else size)
        if not extra:
            assert np.array_equal(got[0], pts[0])  # the tie holds index 0


class TestExtractClouds:
    def _scene(self):
        """One vertical cylinder rendered into a synthetic depth image."""
        from mvsense.simulator import CameraRig, camera_mount, render_depth
        k = k_small()
        rig = CameraRig("c0", k, camera_mount((0, 0, 0.5), 0.0, 0.0))
        cyl = Cylinder(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                       1.0, 0.06)
        depth = render_depth(rig, [cyl])
        return rig, cyl, depth

    def test_empty_mask_gives_no_clouds(self):
        rig, _cyl, depth = self._scene()
        mask = MaskImage.blank(160, 120)
        assert extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics) == []

    def test_points_near_cylinder_axis(self):
        rig, cyl, depth = self._scene()
        tz = make_trapezoid(3, (79.5, 10.0), (79.5, 110.0), 10.0, 10.0, 2.0, 2.0)
        mask = paint_masks([tz], 160, 120)
        clouds = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                                params=CloudParams(cluster_min=5))
        assert len(clouds) == 1
        pts = clouds[0].points
        d = pts - cyl.base
        ax = d @ cyl.axis
        rad = np.sqrt(np.maximum((d * d).sum(1) - ax ** 2, 0.0))
        assert np.all(rad <= cyl.radius + 0.02)

    def test_extracted_points_reproject_into_their_trapezoid(self):
        rig, _cyl, depth = self._scene()
        tz = make_trapezoid(3, (79.5, 10.0), (79.5, 110.0), 10.0, 10.0, 2.0, 2.0)
        mask = paint_masks([tz], 160, 120)
        clouds = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                                params=CloudParams(cluster_min=5))
        cam = rig.world_pose().inverse()
        k = rig.intrinsics
        pts_cam = cam.apply(clouds[0].points)
        u = k.fx * pts_cam[:, 0] / pts_cam[:, 2] + k.cx
        v = k.fy * pts_cam[:, 1] / pts_cam[:, 2] + k.cy
        assert tz.contains(np.column_stack([u, v])).all()

    def test_robot_envelope_removes_points(self):
        rig, cyl, depth = self._scene()
        tz = make_trapezoid(3, (79.5, 10.0), (79.5, 110.0), 10.0, 10.0, 2.0, 2.0)
        mask = paint_masks([tz], 160, 120)
        free = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                              params=CloudParams(cluster_min=5))
        # a robot link envelope covering the lower half of the cylinder
        link = Cylinder(cyl.base, cyl.axis, 0.5, cyl.radius + 0.01)
        blocked = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                                 robot_links=[link],
                                 params=CloudParams(cluster_min=5))
        n_free = len(free[0].points)
        n_blocked = len(blocked[0].points) if blocked else 0
        inside = link.contains(free[0].points,
                               radial_margin=link.radius * 0.1).sum()
        assert n_blocked <= n_free - inside * 0.8
        assert inside > 0

    def test_depth_gate_rejects_background(self):
        from mvsense.simulator import CameraRig, camera_mount, render_depth
        k = k_small()
        rig = CameraRig("c0", k, camera_mount((0, 0, 0.5), 0.0, 0.0))
        near = Cylinder(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 1.0, 0.06)
        far_wall = Cylinder(np.array([4.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]),
                            3.0, 1.5)
        depth = render_depth(rig, [near, far_wall])
        tz = make_trapezoid(3, (79.5, 10.0), (79.5, 110.0), 14.0, 14.0, 2.0, 2.0)
        mask = paint_masks([tz], 160, 120)
        gated = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                               params=CloudParams(cluster_min=5, depth_gate=0.3))
        assert len(gated) == 1
        cam_z = rig.world_pose().inverse().apply(gated[0].points)[:, 2]
        assert np.all(cam_z < 2.5)  # wall points (z ~ 2.5+) were gated out

    def test_dimension_mismatch_rejected(self):
        rig, _cyl, depth = self._scene()
        with pytest.raises(ValueError):
            extract_clouds(MaskImage.blank(10, 10), depth, rig.world_pose(),
                           rig.intrinsics)

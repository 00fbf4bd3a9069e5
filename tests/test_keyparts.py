"""Keypart masks and cloud extraction.

Painting semantics are verified against a per-pixel brute-force oracle:
the label of a pixel must be the covering trapezoid with the smallest
mean paint depth, whatever the input order. Trapezoid placement is
checked bit for bit against the per-part steps in ``keypoints_reference``,
and painting, the label-keyed voxel filter and extraction against the
bodies they replaced, kept here as oracles.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import icp_reference
import keypoints_reference as ref
from conftest import hires, identity, random_rigid
from mvsense import body, harness, keyparts, registration, scenario
from mvsense.filters import largest_euclidean_cluster, voxel_downsample
from mvsense.geometry import Cylinder, Intrinsics, reproject
from mvsense.keypoints import PresenceWindow
from mvsense.keyparts import (
    BACKGROUND,
    LIFT_SAMPLES_PER_VOXEL,
    CloudParams,
    KeypartCloud,
    MaskImage,
    Trapezoid,
    base_half_length,
    extract_clouds,
    lift_stride,
    paint_masks,
    project_keypoints_to_mask,
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
        assert w.present()

    def test_all_members_zero_absent(self):
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        for _ in range(6):
            w.update(0.0)
        assert not w.present()

    def test_alternating_history_matches_formula(self):
        history = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        for c in history:
            w.update(c)
        expected = sum((0.7 ** m) * c
                       for m, c in enumerate(reversed(history)))
        assert w.score() == pytest.approx(expected, abs=0)
        assert w.present() == (expected > 1.0)


RADII = body.PartDimensions().radius


def detection(pixel=(40.0, 30.0), confidence=0.9):
    """A camera's 17 detected pixels, all at ``pixel``, and their
    confidences, all ``confidence``."""
    return (np.tile(np.asarray(pixel, dtype=np.float64), (body.NUM_KEYPOINTS, 1)),
            np.full(body.NUM_KEYPOINTS, confidence))


def fused_table(rows: dict):
    """The (17, 3) world keypoint table with the given rows, NaN elsewhere."""
    table = np.full((body.NUM_KEYPOINTS, 3), np.nan)
    for kp, position in rows.items():
        table[kp] = position
    return table


def at_pixel(u, v, depth):
    """The point that ``k_small`` at the identity pose sees at pixel (u, v)
    and ``depth``."""
    k = k_small()
    return ((u - k.cx) * depth / k.fx, (v - k.cy) * depth / k.fy, depth)


def camera_trapezoids(fused, parts, det=None, depth=None, inflation=1.2):
    """``project_keypoints_to_mask`` for ``k_small`` at the identity pose,
    by default over a flat 1.5 m depth image with every keypoint detected
    at (40, 30)."""
    return project_keypoints_to_mask(
        fused, detection() if det is None else det, identity(), k_small(),
        np.full((120, 160), 1.5) if depth is None else depth, 3, parts, RADII, inflation)


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
            base_half_length(400.0, -1.0, 0.05)

    def test_equal_depths_give_rectangle(self):
        fused = fused_table({body.L_SHOULDER: at_pixel(10.0, 10.0, 2.0),
                             body.L_ELBOW: at_pixel(10.0, 50.0, 2.0)})
        [tz] = camera_trapezoids(fused, [body.L_UPPER_ARM], inflation=1.0)
        corners = tz.corners
        assert tz.len_upper == pytest.approx(tz.len_lower)
        assert tz.len_upper == pytest.approx(base_half_length(200.0, 2.0, 0.05))
        # opposite sides parallel and equal: a parallelogram (rectangle here)
        assert np.allclose(corners[1] - corners[0], corners[2] - corners[3],
                           atol=1e-12)

    def test_bases_perpendicular_to_axis(self):
        tz = make_trapezoid(1, (5.0, 5.0), (20.0, 30.0), 4.0, 6.0, 1.0, 2.0)
        corners = tz.corners
        axis = tz.mid_lower - tz.mid_upper
        base_u = corners[1] - corners[0]
        base_l = corners[2] - corners[3]
        assert abs(np.dot(axis, base_u)) < 1e-9
        assert abs(np.dot(axis, base_l)) < 1e-9

    def test_inflation_scales_half_lengths(self):
        fused = fused_table({body.L_SHOULDER: at_pixel(10.0, 10.0, 2.0),
                             body.L_ELBOW: at_pixel(10.0, 50.0, 1.0)})
        [tz1] = camera_trapezoids(fused, [body.L_UPPER_ARM], inflation=1.0)
        [tz2] = camera_trapezoids(fused, [body.L_UPPER_ARM], inflation=1.2)
        assert tz2.len_upper == pytest.approx(tz1.len_upper * 1.2)
        assert tz2.len_lower == pytest.approx(tz1.len_lower * 1.2)
        assert tz1.len_lower == pytest.approx(2.0 * tz1.len_upper)  # half the depth

    def test_depth_interpolates_along_axis(self):
        tz = make_trapezoid(1, (10.0, 0.0), (10.0, 40.0), 4.0, 4.0, 1.0, 3.0)
        d = tz.depth_at(10.0, np.array([0.0, 20.0, 40.0]))
        assert d == pytest.approx([1.0, 2.0, 3.0])


class TestProjectKeypointsToMask:
    def test_fused_and_unfused_ends(self):
        """A fused keypoint projects through the camera at its camera-frame
        depth; an unfused one falls back to its detected pixel and sliced
        depth."""
        k = k_small()
        [tz] = camera_trapezoids(fused_table({body.L_SHOULDER: (0.0, 0.0, 2.0)}),
                                 [body.L_UPPER_ARM])
        assert tz.part == body.L_UPPER_ARM
        assert np.allclose(tz.mid_upper, [k.cx, k.cy], atol=1e-9)
        assert tz.paint_depth_upper == pytest.approx(2.0)
        assert np.allclose(tz.mid_lower, [40.0, 30.0])
        assert tz.paint_depth_lower == pytest.approx(1.5)
        assert tz.len_upper == pytest.approx(base_half_length(k.focal, 2.0, 0.05) * 1.2)
        assert tz.len_lower == pytest.approx(base_half_length(k.focal, 1.5, 0.05) * 1.2)

    def test_torso_and_head_ends_are_mean_anchors(self):
        fused = fused_table({
            body.L_SHOULDER: at_pixel(10.0, 10.0, 2.0),
            body.R_SHOULDER: at_pixel(30.0, 10.0, 2.2),
            body.L_HIP: at_pixel(12.0, 60.0, 2.1),
            body.R_HIP: at_pixel(28.0, 60.0, 2.3),
        })
        torso, head = camera_trapezoids(fused, [body.TORSO, body.HEAD])
        assert (torso.part, head.part) == (body.TORSO, body.HEAD)  # in ``parts`` order
        assert np.allclose(torso.mid_upper, [20.0, 10.0])
        assert np.allclose(torso.mid_lower, [20.0, 60.0])
        assert torso.paint_depth_upper == pytest.approx(2.1)
        assert torso.paint_depth_lower == pytest.approx(2.2)
        assert torso.len_upper == pytest.approx(base_half_length(200.0, 2.1, 0.15) * 1.2)
        # the five unfused face keypoints fall back to their detected pixel
        assert np.allclose(head.mid_upper, [40.0, 30.0])
        assert head.paint_depth_upper == pytest.approx(1.5)
        assert np.allclose(head.mid_lower, [20.0, 10.0])
        assert head.paint_depth_lower == pytest.approx(2.1)
        assert head.len_upper == pytest.approx(base_half_length(200.0, 1.5, 0.10) * 1.2)

    def test_five_anchor_head_end_beside_a_one_anchor_end(self):
        """The head's upper end is the mean of five fused face anchors, in
        keypoint order, and its lower end the one shoulder that has an
        anchor; every field matches the per-part reference bit for bit."""
        face = {kp: at_pixel(30.0 + 1.7 * i, 20.0 - 0.3 * i, 1.9 + 0.07 * i)
                for i, kp in enumerate(body.PART_KEYPOINTS[body.HEAD])}
        rows = {**face, body.L_SHOULDER: at_pixel(25.0, 45.0, 2.05)}
        pixels, confidences = detection()
        confidences[body.R_SHOULDER] = 0.0  # no fallback anchor either
        depth = np.full((120, 160), 1.5)
        parts = [body.TORSO, body.HEAD]
        got = camera_trapezoids(fused_table(rows), parts, (pixels, confidences), depth)
        head = got[1]
        assert head.part == body.HEAD and len(face) == 5
        anchor_px, anchor_depth = ref.anchor_tables(ref.project_keypoints_to_mask(
            {kp: np.asarray(p) for kp, p in rows.items()}, (pixels, confidences), identity(),
            k_small(), depth, 3, parts))
        assert head.mid_upper.tobytes() == np.mean(anchor_px[list(face)], axis=0).tobytes()
        assert head.paint_depth_upper == float(np.mean(anchor_depth[list(face)]))
        assert np.allclose(head.mid_lower, [25.0, 45.0])
        assert head.paint_depth_lower == pytest.approx(2.05)
        ref.assert_same_trapezoids(got, ref.trapezoids(
            {kp: np.asarray(p) for kp, p in rows.items()}, (pixels, confidences), identity(),
            k_small(), depth, 3, parts, RADII, 1.2))

    def test_mean_anchor_of_negative_zeros_is_positive_zero(self):
        """Five face anchors detected at column -0.0 average to +0.0, as
        ``np.mean``'s sum, which starts from 0.0, gives it."""
        pixels, confidences = detection()
        pixels[list(body.PART_KEYPOINTS[body.HEAD])] = [-0.0, 30.0]
        fused = fused_table({body.L_SHOULDER: at_pixel(25.0, 45.0, 2.0)})
        _torso, head = camera_trapezoids(fused, [body.TORSO, body.HEAD],
                                         (pixels, confidences))
        assert head.mid_upper.tobytes() == np.array([0.0, 30.0]).tobytes()

    def test_zero_confidence_keypoint_has_no_fallback_anchor(self):
        """A keypoint this camera reported at confidence 0 gets no anchor
        from its detected pixel, so a part with no other anchor at that end
        gets no trapezoid; a fused one still projects."""
        k = k_small()
        pixels, confidences = detection()
        confidences[[body.L_ELBOW, body.R_ELBOW, body.NOSE]] = 0.0
        pixels[[body.L_EYE, body.R_EYE, body.L_EAR, body.R_EAR]] = [[20.0, 10.0]] * 4
        fused = fused_table({body.R_ELBOW: (0.0, 0.0, 2.0)})
        got = camera_trapezoids(fused, [body.TORSO, body.HEAD, body.L_UPPER_ARM,
                                        body.R_UPPER_ARM], (pixels, confidences))
        assert [tz.part for tz in got] == [body.TORSO, body.HEAD, body.R_UPPER_ARM]
        assert np.allclose(got[1].mid_upper, [20.0, 10.0])  # the nose is left out
        assert np.allclose(got[2].mid_lower, [k.cx, k.cy], atol=1e-9)
        assert got[2].paint_depth_lower == pytest.approx(2.0)

    def test_detected_pixel_without_depth_skipped(self):
        assert camera_trapezoids(fused_table({}), list(range(body.NUM_KEYPARTS)),
                                 depth=np.zeros((120, 160))) == []

    def test_behind_camera_keypoint_skipped(self):
        fused = fused_table({body.L_SHOULDER: (0.0, 0.0, -1.0),
                             body.R_SHOULDER: at_pixel(30.0, 10.0, 2.0),
                             body.L_ELBOW: (0.1, 0.0, -2.0)})
        torso, upper_arm = camera_trapezoids(fused, [body.TORSO, body.R_UPPER_ARM])
        # the keypoint in front is the torso's whole upper end
        assert (torso.part, upper_arm.part) == (body.TORSO, body.R_UPPER_ARM)
        assert np.allclose(torso.mid_upper, [30.0, 10.0])
        assert torso.paint_depth_upper == pytest.approx(2.0)
        assert camera_trapezoids(fused, [body.L_UPPER_ARM]) == []

    def test_no_parts(self):
        assert camera_trapezoids(fused_table({0: (0.0, 0.0, 2.0)}), []) == []

    def test_other_slice_errors_propagate(self, monkeypatch):
        def broken(*_args):
            raise ZeroDivisionError("bug in slice_depth")

        monkeypatch.setattr(keyparts, "slice_depth", broken)
        with pytest.raises(ZeroDivisionError, match="bug in slice_depth"):
            camera_trapezoids(fused_table({}), [body.HEAD])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_part_reference_bit_for_bit(self, seed):
        """Random tables with unfused rows and rows behind the camera, random
        confidences with zeros, random parts, radii and inflation, and depth
        images with holes that fail some fallbacks, against the anchors,
        endpoints and trapezoids the per-keypoint reference composes."""
        rng = np.random.default_rng(seed)
        k = k_small()
        built = 0
        for _ in range(50):
            pose = random_rigid(rng)
            cam = np.column_stack([rng.uniform(-1.0, 1.0, (body.NUM_KEYPOINTS, 2)),
                                   rng.uniform(-1.0, 4.0, body.NUM_KEYPOINTS)])
            fused = pose.apply(cam)
            fused[rng.random(body.NUM_KEYPOINTS) < 0.3] = np.nan
            pixels = rng.uniform(-5.0, [165.0, 125.0], (body.NUM_KEYPOINTS, 2))
            confidences = np.where(rng.random(body.NUM_KEYPOINTS) < 0.2, 0.0,
                                   rng.uniform(0.05, 1.0, body.NUM_KEYPOINTS))
            depth = rng.uniform(0.5, 4.0, (120, 160))
            depth[rng.random((120, 160)) < 0.3] = 0.0
            depth[:, :40] = 0.0
            parts = sorted(rng.choice(body.NUM_KEYPARTS, rng.integers(0, 11),
                                      replace=False).tolist())
            radii = tuple(rng.uniform(0.02, 0.2, body.NUM_KEYPARTS).tolist())
            inflation = float(rng.uniform(1.0, 1.5))
            rows = {kp: fused[kp] for kp in range(body.NUM_KEYPOINTS)
                    if not np.isnan(fused[kp, 0])}
            got = project_keypoints_to_mask(fused, (pixels, confidences), pose, k, depth,
                                            2, parts, radii, inflation)
            ref.assert_same_trapezoids(got, ref.trapezoids(
                rows, (pixels, confidences), pose, k, depth, 2, parts, radii, inflation))
            built += len(got)
        assert built > 0


class TestFusionMatchesPerKeypointReference:
    """Every fuse and anchor call of short template trials equals the
    per-keypoint reference bit for bit."""

    @pytest.mark.parametrize("config", ["multi-active", "single-fixed"])
    def test_template_trials(self, config, monkeypatch):
        calls = {"fuse": 0, "anchors": 0, "trapezoids": 0}
        fuse, anchor = harness.fuse, keyparts.project_keypoints_to_mask

        def fuse_compared(*args):
            got = fuse(*args)
            ref.assert_same_fusion(got, *args)
            calls["fuse"] += 1
            return got

        def anchor_compared(fused, *rest):
            got = anchor(fused, *rest)
            rows = {kp: fused[kp] for kp in range(body.NUM_KEYPOINTS)
                    if not np.isnan(fused[kp, 0])}
            ref.assert_same_trapezoids(got, ref.trapezoids(rows, *rest))
            calls["anchors"] += 1
            calls["trapezoids"] += len(got)
            return got

        monkeypatch.setattr(harness, "fuse", fuse_compared)
        monkeypatch.setattr(keyparts, "project_keypoints_to_mask", anchor_compared)
        frames = 0
        for name in sorted(scenario.TEMPLATES):
            script = scenario.TEMPLATES[name](seed=3, duration=0.6)
            frames += harness.run_trial(script, config=config).frames
        assert calls["fuse"] == frames
        assert calls["trapezoids"] > calls["anchors"] > 0


def brute_force_labels(trapezoids, width, height):
    """Per pixel: covering trapezoid with the minimum mean paint depth."""
    labels = np.full((height, width), BACKGROUND, dtype=np.int16)
    for v in range(height):
        pix = np.column_stack([np.arange(width), np.full(width, v)]).astype(float)
        best_depth = np.full(width, np.inf)
        for tz in trapezoids:
            inside = tz.contains(pix[:, 0], pix[:, 1])
            closer = inside & (tz.paint_depth < best_depth)
            labels[v, closer] = tz.part
            best_depth[closer] = tz.paint_depth
    return labels


class TestPaintMasks:
    def test_nearer_part_owns_overlap(self):
        a = make_trapezoid(1, (20, 10), (20, 50), 10, 10, 1.0, 1.0)
        b = make_trapezoid(2, (25, 10), (25, 50), 10, 10, 3.0, 3.0)
        mask = paint_masks([a, b], 80, 60)
        overlap = mask.expanded().labels[30, 22]
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
            mask = paint_masks(tzs, 80, 60).expanded()
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
        mask = paint_masks(tzs, 80, 60).expanded()
        _labels, counts = np.unique(mask.labels, return_counts=True)
        assert counts.sum() == 80 * 60


class TestMaskWindow:
    """paint_masks stores only the union window of its trapezoids' boxes."""

    def test_window_is_the_union_of_the_boxes(self):
        a = make_trapezoid(1, (20, 10), (20, 30), 4, 4, 1.0, 1.0)
        b = make_trapezoid(2, (50, 35), (55, 45), 3, 3, 2.0, 2.0)
        mask = paint_masks([a, b], 80, 60)
        corners = np.vstack([a.corners, b.corners])
        (u0, v0), (u1, v1) = np.floor(corners.min(axis=0)), np.ceil(corners.max(axis=0))
        assert mask.shape == (60, 80)
        assert mask.origin == (v0, u0)
        assert mask.labels.shape == mask.depths.shape == (v1 - v0 + 1, u1 - u0 + 1)
        whole = mask.expanded()
        assert whole.origin == (0, 0) and whole.labels.shape == (60, 80)
        assert np.array_equal(whole.labels, brute_force_labels([a, b], 80, 60))
        assert (mask.labels != BACKGROUND).sum() == (whole.labels != BACKGROUND).sum()

    def test_nothing_in_the_image(self, k_vga):
        mask = paint_masks([make_trapezoid(1, (-30, 10), (-25, 40), 5, 5, 1.0, 1.0)], 80, 60)
        assert mask.labels.size == 0 and mask.shape == (60, 80)
        assert (mask.expanded().labels == BACKGROUND).all()
        depth = np.full((60, 80), 2.0)
        assert extract_clouds(mask, depth, identity(), k_vga) == []

    def test_blank_is_the_whole_image(self):
        mask = MaskImage.blank(80, 60)
        assert mask.origin == (0, 0) and mask.shape == (60, 80) == mask.labels.shape

    def test_extract_reads_the_window(self):
        """The same labels painted in a window and over the whole image
        give the same clouds."""
        rig, depth, _paint = wall_frame(5)
        tz = make_trapezoid(body.TORSO, (60.0, 30.0), (95.0, 90.0), 14.0, 10.0, 1.5, 1.6)
        mask = paint_masks([tz], 160, 120)
        assert mask.labels.size < 160 * 120
        got = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics)
        want = extract_clouds(mask.expanded(), depth, rig.world_pose(), rig.intrinsics)
        assert got and same_clouds(got, want)


def trapezoid_contains_reference(tz, pixels):
    """Trapezoid.contains as it was before its edge functions became
    separable: the point test over an (N, 2) array of (u, v) pixels."""
    corners = tz.corners
    pts = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
    area2 = 0.0
    for i in range(4):
        a = corners[i]
        b = corners[(i + 1) % 4]
        area2 += a[0] * b[1] - b[0] * a[1]
    orient = 1.0 if area2 >= 0 else -1.0
    inside = np.ones(len(pts), dtype=bool)
    for i in range(4):
        a = corners[i]
        b = corners[(i + 1) % 4]
        e = b - a
        cross = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
        inside &= orient * cross >= -1e-9
    return inside


def paint_masks_reference(trapezoids, width, height):
    """paint_masks as it was: (u, v) arrays over each clipped box from
    ``mgrid``, the point test and ``depth_at`` at every pixel of the box."""
    mask = MaskImage.blank(width, height)
    for tz in sorted(trapezoids, key=lambda t: (-t.paint_depth, t.part)):
        corners = tz.corners
        u0 = max(0, int(np.floor(corners[:, 0].min())))
        u1 = min(width - 1, int(np.ceil(corners[:, 0].max())))
        v0 = max(0, int(np.floor(corners[:, 1].min())))
        v1 = min(height - 1, int(np.ceil(corners[:, 1].max())))
        if u1 < u0 or v1 < v0:
            continue
        vv, uu = np.mgrid[v0:v1 + 1, u0:u1 + 1]
        pix = np.column_stack([uu.ravel(), vv.ravel()]).astype(np.float64)
        inside = trapezoid_contains_reference(tz, pix)
        depths = tz.depth_at(pix[:, 0], pix[:, 1])
        inside2 = inside.reshape(vv.shape)
        mask.labels[v0:v1 + 1, u0:u1 + 1][inside2] = tz.part
        mask.depths[v0:v1 + 1, u0:u1 + 1][inside2] = depths[inside]
    return mask


def same_mask(got, want) -> bool:
    got = got.expanded()
    return (got.labels.dtype == want.labels.dtype and got.depths.dtype == want.depths.dtype
            and got.labels.tobytes() == want.labels.tobytes()
            and got.depths.tobytes() == want.depths.tobytes())


def winding(tz) -> float:
    c = tz.corners
    return float(sum(c[i, 0] * c[(i + 1) % 4, 1] - c[(i + 1) % 4, 0] * c[i, 1]
                     for i in range(4)))


# (part, mid_upper, mid_lower, len_upper, len_lower, depth_upper, depth_lower)
CONSTRUCTED_TRAPEZOIDS = {
    "end-on square patch": [(2, (40.3, 30.7), (40.3, 30.7), 6.5, 4.0, 1.5, 1.5)],
    "crosses left border": [(1, (-6.0, 10.0), (12.0, 45.0), 9.0, 7.0, 2.0, 2.5)],
    "crosses right border": [(1, (70.0, 5.5), (86.25, 40.0), 8.0, 5.0, 2.0, 1.0)],
    "crosses top border": [(3, (30.0, -9.0), (36.0, 20.0), 10.0, 6.0, 1.0, 3.0)],
    "crosses bottom border": [(3, (50.0, 48.0), (47.5, 70.0), 7.0, 11.0, 2.5, 2.0)],
    "crosses a corner": [(4, (-4.0, -4.0), (9.0, 9.0), 8.0, 8.0, 1.0, 1.0)],
    "covers the image": [(0, (40.0, -20.0), (40.0, 80.0), 60.0, 60.0, 2.0, 2.0)],
    "outside the image": [(5, (-30.0, 10.0), (-25.0, 40.0), 5.0, 5.0, 1.0, 1.0)],
    "end-on at a corner": [(6, (79.0, 59.0), (79.0, 59.0), 3.0, 3.0, 1.0, 1.0)],
    "both windings overlapping": [(1, (20.0, 10.0), (30.0, 50.0), 8.0, 6.0, 2.0, 2.0),
                                  (2, (25.0, 12.0), (28.0, 48.0), -7.0, -5.0, 1.5, 1.8)],
}


class TestPaintMatchesPerBoxReference:
    """paint_masks, which tests each box by separable edge functions and
    interpolates depth only inside, equals the per-box reference bit for
    bit, labels and painted depths."""

    @pytest.mark.parametrize("size", [(144, 112), (640, 480)])
    def test_template_trials(self, size, monkeypatch):
        results = []
        paint = keyparts.paint_masks

        def compared(*args):
            got = paint(*args)
            results.append((same_mask(got, paint_masks_reference(*args)),
                            int((got.labels != BACKGROUND).sum())))
            return got

        monkeypatch.setattr(keyparts, "paint_masks", compared)
        for name in sorted(scenario.TEMPLATES):
            script = scenario.TEMPLATES[name](seed=3, duration=0.6)
            script.cameras = [hires(cam, *size) for cam in script.cameras]
            harness.run_trial(script, config="multi-fixed")
        assert results and all(equal for equal, _ in results)
        assert sum(n for _, n in results) > 0

    @pytest.mark.parametrize("case", sorted(CONSTRUCTED_TRAPEZOIDS))
    def test_constructed(self, case):
        tzs = [make_trapezoid(*spec) for spec in CONSTRUCTED_TRAPEZOIDS[case]]
        got = paint_masks(tzs, 80, 60)
        assert same_mask(got, paint_masks_reference(tzs, 80, 60))
        if case != "outside the image":
            assert (got.labels != BACKGROUND).any()

    def test_constructed_cases_hold_both_windings(self):
        signs = {np.sign(winding(make_trapezoid(*spec)))
                 for specs in CONSTRUCTED_TRAPEZOIDS.values() for spec in specs}
        assert signs == {-1.0, 1.0}

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @example(seed=190625392, n=2)  # a one-pixel trapezoid
    def test_random_trapezoids(self, seed, n):
        rng = np.random.default_rng(seed)
        tzs = []
        for part in range(n):
            mu = rng.uniform(-20, 100, 2)
            ml = mu + rng.uniform(-40, 40, 2) * (rng.random() > 0.2)  # some end-on
            sign = rng.choice([-1.0, 1.0])
            tzs.append(make_trapezoid(part, mu, ml, sign * rng.uniform(0.5, 15),
                                      sign * rng.uniform(0.5, 15),
                                      rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)))
        assert same_mask(paint_masks(tzs, 80, 60), paint_masks_reference(tzs, 80, 60))


class TestFilters:
    def test_voxel_downsample_merges_to_centroids(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.009, 0.0, 0.0], [0.5, 0.5, 0.5]])
        out, labels = voxel_downsample(pts, np.zeros(3, dtype=np.int16), 0.02)
        assert len(out) == 2
        assert np.allclose(out[0], [0.0045, 0.0, 0.0])
        assert labels.tolist() == [0, 0]

    def test_voxel_downsample_keeps_labels_apart(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.009, 0.0, 0.0], [0.5, 0.5, 0.5]])
        out, labels = voxel_downsample(pts, np.array([3, 1, 3], dtype=np.int16), 0.02)
        assert labels.tolist() == [1, 3, 3]
        assert np.array_equal(out, pts[[1, 0, 2]])

    def test_never_adds_points(self, rng):
        pts = rng.uniform(-1, 1, (500, 3))
        assert len(voxel_downsample(pts, rng.integers(0, 4, 500), 0.05)[0]) <= 500
        assert len(largest_euclidean_cluster(pts, 0.2, 5)) <= 500

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
        out, labels = voxel_downsample(empty, np.zeros(0, dtype=np.int16), 0.1)
        assert out.shape == (0, 3) and labels.shape == (0,)
        assert len(largest_euclidean_cluster(empty, 0.1, 1)) == 0


def voxel_downsample_reference(points, voxel):
    """The per-part voxel filter that the label-keyed one replaced: one
    centroid per occupied voxel, in voxel-key order."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return pts.reshape(0, 3)
    keys = np.floor(pts / voxel).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    keys = keys[order]
    pts = pts[order]
    change = np.any(np.diff(keys, axis=0) != 0, axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1, [len(pts)]])
    out = np.add.reduceat(pts, starts[:-1], axis=0)
    counts = np.diff(starts)
    return out / counts[:, None]


@st.composite
def labeled_clouds(draw):
    """Points with interleaved labels, some exactly on voxel boundaries,
    negative coordinates, and labels that hold a single point."""
    voxel = draw(st.sampled_from([0.02, 0.05, 0.25]))
    n = draw(st.integers(1, 60))
    coord = st.one_of(st.floats(-1.0, 1.0, width=32),
                      st.integers(-40, 40).map(lambda i: i * voxel))
    pts = draw(hnp.arrays(np.float64, (n, 3), elements=coord))
    labels = draw(hnp.arrays(np.int16, n, elements=st.integers(0, 9)))
    return pts, labels, voxel


class TestVoxelMatchesPerLabelReference:
    @settings(max_examples=100, deadline=None)
    @given(cloud=labeled_clouds())
    def test_label_keyed_equals_per_label_calls(self, cloud):
        pts, labels, voxel = cloud
        got, got_labels = voxel_downsample(pts, labels, voxel)
        want = [voxel_downsample_reference(pts[labels == part], voxel)
                for part in np.unique(labels)]
        want_labels = np.repeat(np.unique(labels), [len(w) for w in want])
        assert got.dtype == np.float64 and got.shape == (len(want_labels), 3)
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert got_labels.dtype == labels.dtype
        assert np.array_equal(got_labels, want_labels)

    def test_cloud_too_wide_for_one_sort_key_raises(self):
        pts = np.array([[0.0, 0.0, 0.0], [1e4, -1e4, 1e4]])
        with pytest.raises(ValueError, match="too many for one sort key"):
            voxel_downsample(pts, np.array([0, 9], dtype=np.int16), 1e-3)

    def test_coincident_points_of_two_labels_stay_apart(self):
        pts = np.array([[-0.02, 0.0, 0.04]] * 3)
        got, got_labels = voxel_downsample(pts, np.array([5, 2, 5], dtype=np.int16), 0.02)
        assert got_labels.tolist() == [2, 5]
        assert np.array_equal(got, pts[:2])


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
        assert tz.contains(u, v).all()

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
        inside = icp_reference.contains(link, free[0].points,
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

    def test_range_gate_on_camera_depth(self):
        rig, _cyl, depth = self._scene()
        tz = make_trapezoid(3, (79.5, 10.0), (79.5, 110.0), 10.0, 10.0, 2.0, 2.0)
        mask = paint_masks([tz], 160, 120)
        cam = rig.world_pose().inverse()
        kept = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                              params=CloudParams(cluster_min=5, range_max=1.955))
        cam_z = cam.apply(kept[0].points)[:, 2]  # the near side spans 1.94-1.975 m
        assert np.all(cam_z <= 1.955) and len(cam_z) >= 5
        every = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                               params=CloudParams(cluster_min=5))
        assert len(every[0].points) > len(kept[0].points)
        assert extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics,
                              params=CloudParams(cluster_min=5, range_min=1.98)) == []

    def test_inf_depth_evaluates_no_invalid_gate(self):
        rig, depth, paint = wall_frame(seed=4)
        mask = MaskImage.blank(160, 120)
        mask.labels[:, 40:120] = body.TORSO
        mask.depths[:, 40:120] = paint[:, 40:120]
        mask.labels[::2, 60] = BACKGROUND  # background inside the window
        mask.depths[::2, 60] = np.inf
        depth[::4, 60] = np.inf  # inf - inf there before validity was tested first
        depth[5, 50] = np.inf  # and an inf at a labeled pixel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clouds = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics)
        assert [c.part for c in clouds] == [body.TORSO]

    def test_dimension_mismatch_rejected(self):
        rig, _cyl, depth = self._scene()
        with pytest.raises(ValueError):
            extract_clouds(MaskImage.blank(10, 10), depth, rig.world_pose(),
                           rig.intrinsics)


def extract_clouds_reference(mask, depth_image, world_from_cam, k, robot_links=(),
                             params=CloudParams(), samples=LIFT_SAMPLES_PER_VOXEL):
    """extract_clouds with the validity test over the whole image, as it was
    before the test moved inside the labeled window, and with the robot,
    voxel and range filters run once per part, as before they ran once per
    camera. Its gate evaluates inf - inf where the depth image holds inf.
    The lift stride is tested at every pixel of the image, background
    included (its inf paint depth gives stride 1), and a part whose
    strided points a robot link cuts takes all its pixels; ``samples=np.inf``
    lifts every pixel, as extraction did before the stride."""
    mask = mask.expanded()
    if mask.labels.shape != depth_image.shape:
        raise ValueError("mask and depth image dimensions differ")
    valid = (mask.labels != BACKGROUND) & np.isfinite(depth_image) & (depth_image > 0)
    if params.depth_gate > 0:
        valid &= np.abs(depth_image - mask.depths) <= params.depth_gate
    on_grid = (np.indices(valid.shape) % np.fmax(1.0, np.floor(
        params.voxel * k.focal / (samples * mask.depths))) == 0).all(axis=0)
    clouds = []
    if not (valid & on_grid).any():
        return clouds
    vs, us = np.nonzero(valid)
    labels = mask.labels[vs, us]
    on_grid = on_grid[vs, us]
    depths = depth_image[vs, us].astype(np.float64)
    cam_pts = reproject(np.column_stack([us, vs]).astype(np.float64), depths, k)
    world_pts = world_from_cam.apply(cam_pts)

    def outside_links(pts):
        keep = np.ones(len(pts), dtype=bool)
        for link in robot_links:
            margin = link.radius * (params.robot_margin_scale - 1.0)
            keep &= ~icp_reference.contains(link, pts, radial_margin=margin)
        return keep

    cam_from_world = world_from_cam.inverse()
    for part in np.unique(labels[on_grid]):
        pts = world_pts[(labels == part) & on_grid]
        if not outside_links(pts).all():
            pts = world_pts[labels == part]
        pts = pts[outside_links(pts)]

        pts = voxel_downsample_reference(pts, params.voxel)
        if len(pts):
            cam_z = cam_from_world.apply(pts)[:, 2]
            pts = pts[(cam_z >= params.range_min) & (cam_z <= params.range_max)]
        pts = largest_euclidean_cluster(pts, params.cluster_radius, params.cluster_min)
        if len(pts):
            clouds.append(KeypartCloud(int(part), pts))
    return clouds


def same_clouds(got, want) -> bool:
    return ([(c.part, c.points.dtype, c.points.shape) for c in got]
            == [(c.part, c.points.dtype, c.points.shape) for c in want]
            and all(g.points.tobytes() == w.points.tobytes() for g, w in zip(got, want)))


def quiet_reference(*args, **kwargs):
    """extract_clouds_reference without its inf - inf warning."""
    with np.errstate(invalid="ignore"):
        return extract_clouds_reference(*args, **kwargs)


def wall_frame(seed):
    """A wall filling a 160x120 view, with zero, NaN and inf pixels, and
    paint depths around the measured depth, some past the gate."""
    from mvsense.simulator import CameraRig, camera_mount, render_depth
    rig = CameraRig("c0", k_small(), camera_mount((0, 0, 0.5), 0.0, 0.0))
    wall = Cylinder(np.array([3.0, 0.0, -3.0]), np.array([0.0, 0.0, 1.0]), 6.0, 1.5)
    depth = render_depth(rig, [wall])
    assert np.all(depth > 0)
    rng = np.random.default_rng(seed)
    for bad in (0.0, np.nan, np.inf):
        depth[rng.integers(0, 120, 40), rng.integers(0, 160, 40)] = bad
    paint = depth + rng.normal(0.0, 0.2, depth.shape)
    return rig, depth, paint


class TestExtractMatchesFullImageReference:
    """extract_clouds, which tests depth only inside the labeled window and
    filters all parts of a camera in one pass, equals the full-image,
    per-part reference bit for bit."""

    @pytest.mark.parametrize("size", [(144, 112), (640, 480)])
    def test_template_trials(self, size, monkeypatch):
        # run_trial turns a frame's exception into a failed frame, so the
        # comparison is recorded here and asserted after the trials
        results = []
        extract = keyparts.extract_clouds

        def compared(*args, **kwargs):
            got = extract(*args, **kwargs)
            results.append((same_clouds(got, quiet_reference(*args, **kwargs)), len(got)))
            return got

        monkeypatch.setattr(keyparts, "extract_clouds", compared)
        for name in sorted(scenario.TEMPLATES):
            script = scenario.TEMPLATES[name](seed=3, duration=0.6)
            script.cameras = [hires(cam, *size) for cam in script.cameras]
            harness.run_trial(script, config="multi-fixed")
        assert results and all(equal for equal, _ in results)
        assert sum(n for _, n in results) > 0

    @pytest.mark.parametrize("window", [
        (slice(0, 1), slice(0, 160)),      # top row
        (slice(119, 120), slice(0, 160)),  # bottom row
        (slice(0, 120), slice(0, 1)),      # left column
        (slice(0, 120), slice(159, 160)),  # right column
        (slice(0, 120), slice(0, 160)),    # whole image
        (slice(0, 6), slice(0, 9)),        # top-left corner
        (slice(110, 120), slice(150, 160)),  # bottom-right corner
        (slice(40, 75), slice(50, 95)),    # interior
    ])
    @pytest.mark.parametrize("params", [CloudParams(cluster_min=1),
                                        CloudParams(depth_gate=0.0), CloudParams()])
    def test_windows_touching_the_borders(self, window, params):
        rig, depth, paint = wall_frame(seed=window[0].start + window[1].start)
        rng = np.random.default_rng(window[0].stop)
        mask = MaskImage.blank(160, 120)
        labels = rng.integers(-1, 4, mask.labels[window].shape)  # -1 is BACKGROUND
        mask.labels[window] = labels
        mask.depths[window] = np.where(labels == BACKGROUND, np.inf, paint[window])
        got = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics, params=params)
        want = quiet_reference(mask, depth, rig.world_pose(), rig.intrinsics, params=params)
        assert same_clouds(got, want)
        assert want or params.cluster_min > 1  # a one-pixel strip may be below 10 points

    def test_nothing_painted(self):
        rig, depth, _paint = wall_frame(seed=0)
        mask = MaskImage.blank(160, 120)
        assert extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics) == []
        assert quiet_reference(mask, depth, rig.world_pose(), rig.intrinsics) == []

    @pytest.mark.parametrize("pixel", [(0, 0), (0, 159), (119, 0), (119, 159), (60, 80)])
    def test_single_painted_pixel(self, pixel):
        rig, depth, _paint = wall_frame(seed=1)
        depth[pixel] = 2.0
        mask = MaskImage.blank(160, 120)
        mask.labels[pixel] = body.TORSO
        mask.depths[pixel] = 2.0
        params = CloudParams(cluster_min=1)
        got = extract_clouds(mask, depth, rig.world_pose(), rig.intrinsics, params=params)
        want = quiet_reference(mask, depth, rig.world_pose(), rig.intrinsics, params=params)
        assert same_clouds(got, want)
        assert [(c.part, len(c.points)) for c in got] == [(body.TORSO, 1)]


def near_wall():
    """A wall 0.8-0.81 m in front of a 160x120 camera: at f = 200 its depth
    gives the default 2 cm voxel a lift stride of 2 (floor(2 / 0.8))."""
    from mvsense.simulator import CameraRig, camera_mount, render_depth
    rig = CameraRig("c0", k_small(), camera_mount((0, 0, 0.5), 0.0, 0.0))
    wall = Cylinder(np.array([5.8, 0.0, -3.0]), np.array([0.0, 0.0, 1.0]), 6.0, 5.0)
    return rig, render_depth(rig, [wall])


class TestLiftStride:
    """extract_clouds lifts a labeled pixel only on its stride's grid of
    whole-image rows and columns, and every pixel of a part that a robot
    link cuts; the stride is 1 at 144x112, and at 640x480 it thins the
    clouds but keeps every part of 25 points or more."""

    def test_stride_two_lifts_even_rows_and_columns_whatever_the_origin(self, monkeypatch):
        rig, depth = near_wall()
        rows, cols = slice(21, 100), slice(31, 131)
        whole = MaskImage.blank(160, 120)
        whole.labels[rows, cols] = body.TORSO
        whole.depths[rows, cols] = depth[rows, cols]
        assert (lift_stride(depth[rows, cols], CloudParams().voxel, rig.intrinsics.focal) == 2).all()
        # the same labels in a window whose first pixel has an odd row and column
        window = MaskImage(whole.labels[rows, cols].copy(), whole.depths[rows, cols].copy(),
                           (rows.start, cols.start), (120, 160))
        lifted = []
        lift = keyparts.reproject

        def recorded(pixels, depths, k):
            lifted.append(pixels)
            return lift(pixels, depths, k)

        monkeypatch.setattr(keyparts, "reproject", recorded)
        got = extract_clouds(whole, depth, rig.world_pose(), rig.intrinsics)
        moved = extract_clouds(window, depth, rig.world_pose(), rig.intrinsics)
        vs, us = np.nonzero(whole.labels != BACKGROUND)
        even = (vs % 2 == 0) & (us % 2 == 0)
        assert len(lifted) == 2
        assert all(np.array_equal(pixels, np.column_stack([us[even], vs[even]]))
                   for pixels in lifted)
        assert got and same_clouds(got, moved)

    def test_stride_is_one_at_144x112(self, monkeypatch):
        """desk-sweep's trials: 3 s of each template at each configuration."""
        strides = []
        extract = keyparts.extract_clouds

        def recorded(mask, depth_image, world_from_cam, k, robot_links, params):
            paint = mask.depths[mask.labels != BACKGROUND]
            strides.append(lift_stride(paint, params.voxel, k.focal).max(initial=1))
            return extract(mask, depth_image, world_from_cam, k, robot_links, params)

        monkeypatch.setattr(keyparts, "extract_clouds", recorded)
        for config in scenario.CONFIGS:
            for name in sorted(scenario.TEMPLATES):
                harness.run_trial(scenario.TEMPLATES[name](seed=0, duration=3.0), config=config)
        assert len(strides) > 100 and max(strides) == 1

    def test_parts_of_25_points_keep_a_cloud_at_640x480(self, monkeypatch):
        """Per frame, every part whose unstrided clouds over the cameras
        hold at least 25 points still reaches registration with a cloud,
        and the stride leaves fewer points than lifting every pixel.

        A part that a robot link cuts is lifted at every pixel, so it keeps
        its unstrided cloud. Over seeds 0, 1000, 3000, 5000, 7000 and 9000
        of 7 s trials, the stride lost 2 of 10233 part-clouds, of 21 and
        22 points. Striding the cut parts too lost 6, among them cut parts
        of 36 and 38 points; on the trials below it loses one of 34."""
        unstrided, frames = {}, []
        extract, register = keyparts.extract_clouds, registration.register_tree

        def lifted(mask, depth_image, world_from_cam, k, robot_links, params):
            args = mask, depth_image, world_from_cam, k, robot_links, params
            for c in quiet_reference(*args, samples=np.inf):
                unstrided[c.part] = unstrided.get(c.part, 0) + len(c.points)
            return extract(*args)

        def registered(tree, clouds, *rest):
            frames.append((dict(unstrided), {p: len(pts) for p, pts in clouds.items()}))
            unstrided.clear()
            return register(tree, clouds, *rest)

        monkeypatch.setattr(keyparts, "extract_clouds", lifted)
        monkeypatch.setattr(registration, "register_tree", registered)
        for seed in (3, 7000):
            for name in sorted(scenario.TEMPLATES):
                script = scenario.TEMPLATES[name](seed=seed, duration=1.5)
                script.cameras = [hires(cam) for cam in script.cameras]
                harness.run_trial(script, config="multi-fixed")
        lost = [n for full, got in frames for part, n in full.items() if part not in got]
        assert all(n < 25 for n in lost), lost
        full_points = sum(n for full, _ in frames for n in full.values())
        points = sum(n for _, got in frames for n in got.values())
        assert 0 < points < 0.85 * full_points

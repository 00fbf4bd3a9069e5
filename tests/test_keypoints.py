"""Keypoint detection pipeline: the detector contract, presence windows,
depth lifting and its surface-to-joint offsets, and confidence-weighted
multi-camera fusion.

Fusion correctness is checked against an independent gradient-descent
minimizer of the weighted squared-distance objective.
"""

import numpy as np
import pytest

import keypoints_reference as ref
from conftest import fuse_one, identity, random_rigid
from mvsense import body
from mvsense.body import NUM_KEYPOINTS
from mvsense.keypoints import (
    DetectorFailure,
    NoValidDepth,
    PresenceWindow,
    detect,
    effectiveness_factor,
    fuse,
    keypoint_depth_offsets,
    lift_depth,
    slice_depth,
)


def detections(count=17):
    return np.zeros((count, 2)), np.full(count, 0.5)


class TestDetect:
    @pytest.mark.parametrize("count", [5, 16, 18])
    def test_wrong_count_rejected(self, count):
        with pytest.raises(DetectorFailure, match=f"returned {count} keypoints"):
            detect(detections(count))

    def test_pixels_of_the_wrong_shape_rejected(self):
        with pytest.raises(DetectorFailure, match=r"pixels of shape \(17, 3\)"):
            detect((np.zeros((17, 3)), np.full(17, 0.5)))

    def test_arrays_pass_through_as_float64(self):
        pixels = [(k, 2 * k) for k in range(17)]
        got_pixels, got_conf = detect((pixels, [0.5] * 17))
        assert got_pixels.dtype == got_conf.dtype == np.float64
        assert got_pixels[3].tolist() == [3.0, 6.0]
        assert got_conf.tolist() == [0.5] * 17

    @pytest.mark.parametrize("field, column, value", [
        ("pixel", 0, np.nan), ("pixel", 1, np.inf), ("pixel", 0, -np.inf),
        ("confidence", None, np.nan), ("confidence", None, np.inf),
        ("confidence", None, -0.1),
    ])
    def test_bad_value_fails_naming_the_keypoint(self, field, column, value):
        pixels, conf = detections()
        if field == "pixel":
            pixels[7, column] = value
        else:
            conf[7] = value
        with pytest.raises(DetectorFailure, match="keypoint 7 has"):
            detect((pixels, conf))

    def test_zero_confidence_accepted(self):
        pixels, conf = detections()
        conf[:] = 0.0
        assert detect((pixels, conf))[1].tolist() == [0.0] * 17


class TestPresence:
    def test_geometric_series_present(self):
        w = PresenceWindow(m=4, gamma=0.9, alpha=2.0)
        for _ in range(5):
            w.update(1.0)
        assert w.score() == pytest.approx(1 + 0.9 + 0.81 + 0.729 + 0.6561)
        assert w.present()

    def test_all_zero_absent(self):
        w = PresenceWindow(m=4, gamma=0.9, alpha=2.0)
        for _ in range(5):
            w.update(0.0)
        assert not w.present()

    def test_exact_threshold_is_absent(self):
        # score = 1 + 0.5 + 0.25 = 1.75 == alpha -> sgn(0) convention: absent
        w = PresenceWindow(m=2, gamma=0.5, alpha=1.75)
        for _ in range(3):
            w.update(1.0)
        assert w.score() == pytest.approx(1.75)
        assert not w.present()

    def test_warm_up_pads_missing_history_with_zero(self):
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        w.update(0.9)
        assert w.score() == pytest.approx(0.9)
        assert not w.present()  # biased toward absence at startup
        w.update(0.9)
        assert w.present()

    def test_parameter_ranges_validated(self):
        with pytest.raises(ValueError):
            PresenceWindow(m=5, gamma=1.5, alpha=1.0)
        with pytest.raises(ValueError):
            PresenceWindow(m=5, gamma=0.7, alpha=7.0)

    def test_monotone_raising_confidence_never_flips_to_absent(self, rng):
        for _ in range(200):
            confs = rng.uniform(0, 1, 6)
            w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
            for c in confs:
                w.update(c)
            before = w.present()
            bump = rng.integers(0, 6)
            confs2 = confs.copy()
            confs2[bump] = min(1.0, confs2[bump] + rng.uniform(0, 1))
            w2 = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
            for c in confs2:
                w2.update(c)
            if before:
                assert w2.present()

    def test_array_entries_score_each_row_bit_for_bit(self, rng):
        """One window over 27 rows gives each row the Python-float sum
        that a window of its own gives it."""
        history = rng.uniform(0, 1, (9, 27))
        history[:, ::5] = 0.0
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        for n in range(1, len(history) + 1):
            w.update(history[n - 1])
            hand = []
            for row in history[:n].T.tolist():
                total = 0.0
                for m, c in enumerate(reversed(row[-6:])):
                    total += 0.7 ** m * c
                hand.append(total)
            assert w.score().tolist() == hand
            assert w.present().tolist() == [x > 1.0 for x in hand]


class TestLiftDepth:
    def test_constant_plane(self, k_vga):
        depth = np.full((480, 640), 2.0)
        p = lift_depth(np.array([400.0, 100.0]), depth, 5, k_vga)
        assert p[2] == pytest.approx(2.0)
        assert p[0] == pytest.approx((400 - 320) * 2 / 500)
        assert p[1] == pytest.approx((100 - 240) * 2 / 500)

    def test_masked_mean_ignores_invalid(self, k_vga, rng):
        # half the disc valid at 2 m, half invalid: oracle = mean of valid only
        depth = np.zeros((480, 640))
        depth[100:106, 395:406] = 2.0  # upper half rows invalid below
        d = slice_depth(np.array([400.0, 105.0]), depth, 5)
        assert d == pytest.approx(2.0)

    def test_single_valid_pixel(self, k_vga):
        depth = np.zeros((480, 640))
        depth[105, 400] = 1.5
        p = lift_depth(np.array([400.0, 105.0]), depth, 5, k_vga)
        assert p[2] == pytest.approx(1.5)

    def test_no_valid_depth_raises(self, k_vga):
        depth = np.zeros((480, 640))
        with pytest.raises(NoValidDepth):
            lift_depth(np.array([400.0, 105.0]), depth, 5, k_vga)

    def test_invariant_to_invalid_count_with_same_valid_mean(self, k_vga, rng):
        base = np.zeros((480, 640))
        base[200:210, 300:310] = 3.0
        pixel = np.array([305.0, 205.0])
        d1 = slice_depth(pixel, base, 5)
        fewer = base.copy()
        fewer[200:203, 300:310] = 0.0  # knock out some valid pixels
        d2 = slice_depth(pixel, fewer, 5)
        assert d1 == pytest.approx(3.0)
        assert d2 == pytest.approx(3.0)


class TestDepthOffsets:
    def test_depth_offsets_zero_for_face_points(self):
        off = keypoint_depth_offsets(body.PartDimensions())
        for kp in body.PART_KEYPOINTS[body.HEAD]:
            assert off[kp] == 0.0
        assert off[body.L_WRIST] > 0.0

    @pytest.mark.parametrize("radius", [
        body.PartDimensions().radius,
        (0.05, 0.12, 0.2, 0.04, 0.03, 0.09, 0.05, 0.11, 0.08, 0.02),
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    ])
    def test_depth_offsets_match_per_keypoint_loop(self, radius):
        """Each keypoint's smallest radius over the parts it lies on, 0 on
        the face, as the per-keypoint loop computed it."""
        dims = body.PartDimensions(radius=radius)
        want = np.zeros(body.NUM_KEYPOINTS)
        for kp in range(body.NUM_KEYPOINTS):
            if kp in body.PART_KEYPOINTS[body.HEAD]:
                continue
            want[kp] = min(dims.radius[p] for p, kps in body.PART_KEYPOINTS.items()
                           if kp in kps)
        got = keypoint_depth_offsets(dims)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def fusion_objective(p, entries):
    total = 0.0
    for pos, conf, world_from_cam in entries:
        w = world_from_cam.apply(np.asarray(pos))
        total += conf * float(((w - p) ** 2).sum())
    return total


def gradient_descent_minimizer(entries, iters=300):
    """Independent numeric minimizer of the weighted squared distance."""
    weights = np.array([c for _, c, _ in entries])
    worlds = np.stack([t.apply(np.asarray(p)) for p, _c, t in entries])
    x = np.zeros(3)
    lr = 0.5 / weights.sum()
    for _ in range(iters):
        grad = 2.0 * (weights[:, None] * (x[None, :] - worlds)).sum(axis=0)
        x = x - lr * grad
    return x


def random_frame(rng, cameras, lift_share=0.7):
    """A frame's fuse inputs: (C, 17, 3) lifts, (C, 17) lifted mask and
    confidences, C poses. Unlifted slots hold NaN or junk, which fusion
    must ignore; about one confidence in eight is 0."""
    lifts = rng.uniform(-2.0, 2.0, (cameras, NUM_KEYPOINTS, 3))
    lifted = rng.random((cameras, NUM_KEYPOINTS)) < lift_share
    lifts[~lifted & (rng.random(lifted.shape) < 0.5)] = np.nan
    confidences = rng.uniform(0.0, 1.0, (cameras, NUM_KEYPOINTS))
    confidences[rng.random(confidences.shape) < 0.125] = 0.0
    return lifts, lifted, confidences, [random_rigid(rng) for _ in range(cameras)]


class TestFuse:
    def test_single_camera(self, rng):
        t = random_rigid(rng)
        q = rng.uniform(-1, 1, 3)
        position, confidence = fuse_one([(q, 0.8, t)])
        assert np.allclose(position, t.apply(q), atol=1e-12)
        expected = (1 - np.exp(-1)) / (1 + np.exp(-1)) * 0.8
        assert confidence == pytest.approx(expected, abs=1e-12)
        assert confidence == pytest.approx(0.46211715726 * 0.8, abs=1e-9)

    def test_two_equal_cameras_average(self):
        ident = identity()
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        position, _confidence = fuse_one([(a, 0.5, ident), (b, 0.5, ident)])
        assert np.allclose(position, (a + b) / 2, atol=1e-12)

    def test_unlifted_keypoint_is_unfused(self, rng):
        lifts, lifted, confidences, poses = random_frame(rng, 2, lift_share=1.0)
        lifted[:, 3] = False
        positions, fused = fuse(lifts, lifted, confidences + 0.1, poses)
        assert np.isnan(positions[3]).all() and fused[3] == 0.0
        assert not np.isnan(np.delete(positions, 3, axis=0)).any()

    def test_zero_weight_keypoint_is_unfused(self, rng):
        """Lifted only by cameras that report confidence 0: a NaN row, not 0/0."""
        lifts, lifted, confidences, poses = random_frame(rng, 3, lift_share=1.0)
        confidences[:, 5] = 0.0
        confidences[:, 6] = (0.0, 0.5, 0.5)
        with np.errstate(all="raise"):
            positions, fused = fuse(lifts, lifted, confidences, poses)
        assert np.isnan(positions[5]).all() and fused[5] == 0.0
        # a camera of weight 0 beside others leaves the keypoint fused
        assert np.isfinite(positions[6]).all() and fused[6] > 0.0

    @pytest.mark.parametrize("cameras", [1, 2, 3, 4])
    def test_matches_per_keypoint_reference_bit_for_bit(self, rng, cameras):
        for _ in range(40):
            lifts, lifted, confidences, poses = random_frame(rng, cameras)
            ref.assert_same_fusion(fuse(lifts, lifted, confidences, poses),
                                   lifts, lifted, confidences, poses)

    def test_matches_numeric_minimizer(self, rng):
        for _ in range(50):
            n = rng.integers(2, 5)
            entries = [(rng.uniform(-1, 1, 3), rng.uniform(0.1, 1.0),
                        random_rigid(rng)) for _ in range(n)]
            position, _confidence = fuse_one(entries)
            numeric = gradient_descent_minimizer(entries)
            assert np.allclose(position, numeric, atol=1e-6)

    def test_closed_form_beats_perturbations(self, rng):
        entries = [(rng.uniform(-1, 1, 3), rng.uniform(0.1, 1.0),
                    random_rigid(rng)) for _ in range(3)]
        position, _confidence = fuse_one(entries)
        best = fusion_objective(position, entries)
        for _ in range(1000):
            delta = rng.uniform(-1, 1, 3)
            delta = delta / np.linalg.norm(delta) * rng.uniform(0, 0.1)
            assert fusion_objective(position + delta, entries) >= best - 1e-12

    def test_weight_scaling_leaves_position_unchanged(self, rng):
        entries = [(rng.uniform(-1, 1, 3), rng.uniform(0.1, 0.5),
                    random_rigid(rng)) for _ in range(4)]
        position1, confidence1 = fuse_one(entries)
        lam = 1.7
        scaled = [(p, c * lam, t) for p, c, t in entries]
        position2, confidence2 = fuse_one(scaled)
        assert np.allclose(position1, position2, atol=1e-12)
        assert confidence1 != pytest.approx(confidence2)

    def test_effectiveness_factor_monotone_and_bounded(self):
        values = [effectiveness_factor(n) for n in range(1, 11)]
        assert all(0 < v < 1 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_fused_confidence_increasing_in_camera_count(self):
        ident = identity()
        prev = 0.0
        for n in range(1, 8):
            entries = [(np.zeros(3), 0.6, ident)] * n
            _position, confidence = fuse_one(entries)
            assert 0 < confidence < 1
            assert confidence > prev
            prev = confidence

"""Scene simulator: depth rendering, synthetic detection, servo stepping,
and oracle-consistency of the rendered data."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    DIMS,
    detect_view,
    first_hit,
    identity,
    in_image,
    keypoint_flags,
    ray_cylinder_hits_reference,
    rest_dofs,
)
from render_reference import (
    assert_matches_reference,
    box_of,
    camera_rays,
    render_depth_box_reference,
    render_depth_reference,
)
from mvsense import body, harness, scenario
from mvsense.body import PartDimensions
from mvsense.geometry import Cylinder, Intrinsics, cast_rays, cylinder_table, normalize
from mvsense.keypoints import detect, lift_depth
from mvsense.simulator import (
    NEAR,
    TOTAL_DOF,
    CameraRig,
    DepthNoise,
    DetectorNoise,
    GroundTruthHuman,
    RobotArmProxy,
    Scene,
    _pixel_spans,
    camera_mount,
    pose_from_dofs,
    render_depth,
    synthetic_detect,
)


def small_rig(pos=(0.0, 0.0, 1.0), yaw=0.0, pitch=0.0):
    k = Intrinsics(fx=200.0, fy=200.0, cx=79.5, cy=59.5, width=160, height=120)
    return CameraRig("cam", k, camera_mount(pos, yaw, pitch))


class TestRenderDepth:
    def test_empty_scene_all_zero(self):
        depth = render_depth(small_rig(), [])
        assert depth.shape == (120, 160)
        assert np.all(depth == 0.0)

    def test_cylinders_out_of_view_all_zero(self):
        behind = Cylinder(np.array([-3.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 1.0, 0.2)
        aside = Cylinder(np.array([3.0, 30.0, 0.0]), np.array([0.0, 0.0, 1.0]), 1.0, 0.2)
        depth = render_depth(small_rig(), [behind, aside])
        assert depth.shape == (120, 160)
        assert np.all(depth == 0.0)

    def test_center_pixel_matches_analytic_intersection(self):
        rig = small_rig()
        cyl = Cylinder(np.array([3.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                       2.0, 0.4)
        depth = render_depth(rig, [cyl])
        pose = rig.world_pose()
        # exact ray through the center pixel
        d_cam = np.array([(79.0 - 79.5) / 200.0, (59.0 - 59.5) / 200.0, 1.0])
        d_world = pose.rotation @ d_cam
        n = np.linalg.norm(d_world)
        t = first_hit(pose.translation, d_world / n, cyl)
        expected_z = t / n
        assert depth[59, 79] == pytest.approx(expected_z, abs=1e-4)

    def test_min_depth_compositing(self):
        rig = small_rig()
        far = Cylinder(np.array([3.0, 0.0, 0.0]), np.array([0, 0, 1.0]), 2.0, 0.4)
        near = Cylinder(np.array([1.5, 0.0, 0.0]), np.array([0, 0, 1.0]), 2.0, 0.2)
        both = render_depth(rig, [far, near])
        only_far = render_depth(rig, [far])
        center = both[60, 80]
        assert center < only_far[60, 80]
        assert center == pytest.approx(1.5 - 0.2, abs=0.01)

    def test_noise_and_dropout(self):
        rig = small_rig()
        cyl = Cylinder(np.array([2.0, 0.0, 0.0]), np.array([0, 0, 1.0]), 2.0, 0.5)
        rng = np.random.default_rng(0)
        noisy = render_depth(rig, [cyl], DepthNoise(sigma_d=0.01, p_drop=0.3), rng)
        clean = render_depth(rig, [cyl])
        hit = clean > 0
        dropped = hit & (noisy == 0)
        assert 0.2 < dropped.sum() / hit.sum() < 0.4
        kept = hit & (noisy > 0)
        assert np.abs(noisy[kept] - clean[kept]).max() < 0.08

    def test_cylinder_through_the_camera_plane_is_rendered(self):
        """Both axis ends at camera depth 0, the surface in front: the
        camera looks out of the cylinder's side from inside it."""
        k = Intrinsics(fx=100.0, fy=100.0, cx=71.5, cy=55.5, width=144, height=112)
        rig = CameraRig("cam", k, identity())
        cyl = Cylinder(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 2.0, 0.2)
        t = cast_rays(camera_rays(k).reshape(-1, 3).T, cylinder_table([cyl], identity()),
                      [k.width * k.height])
        full = np.where(np.isfinite(t), t, 0.0).reshape(k.height, k.width)
        assert np.count_nonzero(full) == k.width * k.height
        assert render_depth(rig, [cyl]).tobytes() == full.tobytes()
        assert full[56, 72] == pytest.approx(0.2, abs=1e-3)

    def test_deterministic_given_stream(self):
        rig = small_rig()
        cyl = Cylinder(np.array([2.0, 0.0, 0.0]), np.array([0, 0, 1.0]), 2.0, 0.5)
        a = render_depth(rig, [cyl], DepthNoise(0.01, 0.1),
                         np.random.default_rng(42))
        b = render_depth(rig, [cyl], DepthNoise(0.01, 0.1),
                         np.random.default_rng(42))
        assert np.array_equal(a, b)


class TestCameraRig:
    def test_mount_looks_along_yaw_pitch(self):
        rig = small_rig(pos=(1.0, 2.0, 3.0), yaw=np.pi / 2, pitch=0.0)
        pose = rig.world_pose()
        assert np.allclose(pose.rotation[:, 2], [0.0, 1.0, 0.0], atol=1e-12)
        # y axis points down for a level camera
        assert np.allclose(pose.rotation[:, 1], [0.0, 0.0, -1.0], atol=1e-12)

    def test_rate_limited_step(self):
        rig = small_rig()
        rig.max_rate = 1.0
        rig.command(0.5, -0.2)
        rig.step(0.1)
        assert rig.pan == pytest.approx(0.1)
        assert rig.tilt == pytest.approx(-0.1)
        for _ in range(10):
            rig.step(0.1)
        assert rig.pan == pytest.approx(0.5)
        assert rig.tilt == pytest.approx(-0.2)

    def test_zero_command_holds(self):
        rig = small_rig()
        rig.step(0.1)
        assert rig.pan == 0.0 and rig.tilt == 0.0

    def test_commands_clamped_to_limits(self):
        rig = small_rig()
        rig.pan_limits = (-0.5, 0.5)
        rig.command(2.0, 0.0)
        assert rig.target_pan == 0.5

    def test_pan_rotates_view(self):
        rig = small_rig()
        fwd0 = rig.world_pose().rotation[:, 2].copy()
        rig.pan = 0.3
        fwd1 = rig.world_pose().rotation[:, 2]
        assert not np.allclose(fwd0, fwd1)
        assert fwd1[2] == pytest.approx(fwd0[2], abs=1e-12)  # pan keeps pitch


class TestScripts:
    def test_human_waypoint_lerp_matches_oracle(self):
        times = np.array([0.0, 2.0, 6.0])
        d0, d1, d2 = rest_dofs((0, 0, 0.9)), rest_dofs((1, 0, 0.9)), rest_dofs((1, 2, 0.9))
        human = GroundTruthHuman(times, np.stack([d0, d1, d2]))
        for t in np.linspace(0.0, 6.0, 25):
            got = human.dofs_at(t)
            if t <= 2.0:
                w = t / 2.0
                expected = (1 - w) * d0 + w * d1
            else:
                w = (t - 2.0) / 4.0
                expected = (1 - w) * d1 + w * d2
            assert np.allclose(got, expected, atol=1e-9)

    def test_clamped_outside_range(self):
        human = GroundTruthHuman(np.array([1.0]), rest_dofs()[None, :])
        assert np.allclose(human.dofs_at(-5.0), human.dofs_at(99.0))

    def test_human_and_robot_share_the_waypoint_expression(self, rng):
        """Both scripts interpolate as (1 - w) a + w b with w = (t - t0) / (t1 - t0),
        bit for bit, and hold their end values outside the waypoints."""
        times = np.array([0.0, 0.7, 2.0, 3.1])
        dofs = rng.uniform(-1.0, 1.0, (4, TOTAL_DOF))
        joints = rng.uniform(-1.0, 1.0, (4, 2, 3))
        human = GroundTruthHuman(times, dofs)
        robot = RobotArmProxy(times, joints)
        for t in (-1.0, 0.0, 0.3, 0.7, 1.234, 2.9, 3.1, 5.0):
            if t <= times[0] or t >= times[-1]:
                want_dofs, want_joints = (dofs[0], joints[0]) if t <= times[0] \
                    else (dofs[-1], joints[-1])
            else:
                i = int(np.searchsorted(times, t, side="right")) - 1
                w = (t - times[i]) / (times[i + 1] - times[i])
                want_dofs = (1.0 - w) * dofs[i] + w * dofs[i + 1]
                want_joints = (1.0 - w) * joints[i] + w * joints[i + 1]
            assert human.dofs_at(t).tobytes() == want_dofs.tobytes()
            assert robot.links_at(t)[0].base.tobytes() == want_joints[0].tobytes()

    def test_robot_links_from_joint_chain(self):
        robot = RobotArmProxy(np.array([0.0]),
                              np.array([[[0, 0, 0], [0, 0, 1], [1, 0, 1]]],
                                       dtype=float), radius=0.05)
        links = robot.links_at(0.0)
        assert len(links) == 2
        assert links[0].height == pytest.approx(1.0)
        assert links[1].axis == pytest.approx([1.0, 0.0, 0.0])

    def test_scene_step_advances_time_and_servos(self):
        human = GroundTruthHuman(np.array([0.0]), rest_dofs()[None, :])
        rig = small_rig()
        scene = Scene(human, None, [rig], seed=0)
        rig.command(0.3, 0.0)
        scene.step(0.1)
        assert scene.t == pytest.approx(0.1)
        assert scene.frame_index == 1
        assert rig.pan > 0.0
        with pytest.raises(ValueError):
            scene.step(0.0)


class TestSyntheticDetect:
    def _scene(self):
        dofs = rest_dofs(position=(2.5, 0.0, 0.9), heading=np.pi / 2)
        pose = pose_from_dofs(dofs, DIMS)
        rig = small_rig(pos=(0.0, 0.0, 1.2), yaw=0.0, pitch=0.0)
        return rig, pose

    def test_visible_keypoint_exact_pixel_and_ceiling_confidence(self):
        rig, pose = self._scene()
        pixels, conf = detect_view(rig, pose, noise=DetectorNoise(sigma_px=0.0))
        cam = rig.world_pose().inverse().apply(pose.keypoints[body.NOSE])
        expected = [200.0 * cam[0] / cam[2] + 79.5, 200.0 * cam[1] / cam[2] + 59.5]
        assert pixels[body.NOSE] == pytest.approx(expected, abs=1e-9)
        assert conf[body.NOSE] == pytest.approx(0.9)

    def test_out_of_fov_gets_floor_confidence(self):
        rig, pose = self._scene()
        rig.pan = 0.9  # look away
        _pixels, conf = detect_view(rig, pose, noise=DetectorNoise(sigma_px=0.0))
        assert conf.tolist() == pytest.approx([0.05] * body.NUM_KEYPOINTS)

    def test_floor_confidence_drives_window_absent(self):
        from mvsense.keypoints import PresenceWindow
        w = PresenceWindow(m=5, gamma=0.7, alpha=1.0)
        for _ in range(10):
            w.update(0.05)
        assert not w.present()

    def test_occluded_by_robot_link_gets_product_confidence(self):
        rig, pose = self._scene()
        nose_w = pose.keypoints[body.NOSE]
        cam_pos = rig.world_pose().translation
        mid = 0.5 * (nose_w + cam_pos)
        axis = np.array([0.0, 0.0, 1.0])
        blocker = Cylinder(mid - axis * 0.5, axis, 1.0, 0.25)
        _pixels, conf = detect_view(rig, pose, [blocker], noise=DetectorNoise(sigma_px=0.0))
        assert conf[body.NOSE] == pytest.approx(0.9 * 0.15)

    def test_visibility_flag_agrees_with_depth_z_test(self):
        # thin-limbed human so the rendered surface is at the keypoint depth
        dims = PartDimensions(radius=(0.008,) * 10)
        pose = pose_from_dofs(rest_dofs(position=(2.5, 0.0, 0.9),
                                        heading=np.pi / 2), dims)
        rig = small_rig(pos=(0.0, 0.0, 1.2))
        axis = np.array([0.0, 0.0, 1.0])
        blocker = Cylinder(np.array([1.2, 0.05, 0.0]), axis, 2.0, 0.18)
        cyls = [pose.states[p].cylinder() for p in range(10)] + [blocker]
        depth = render_depth(rig, cyls)
        cam_pose = rig.world_pose()
        flags = keypoint_flags(rig, pose, robot_links=[blocker])
        for kp, flag in enumerate(flags):
            if flag == "out":
                continue
            cam_pt = cam_pose.inverse().apply(pose.keypoints[kp])
            u, v = (int(round(200 * cam_pt[0] / cam_pt[2] + 79.5)),
                    int(round(200 * cam_pt[1] / cam_pt[2] + 59.5)))
            rendered = depth[v, u]
            z_blocked = rendered > 0 and rendered < cam_pt[2] - 0.05
            assert (flag == "occluded") == z_blocked, (kp, flag, rendered, cam_pt[2])

    def test_detector_contract_passes_the_synthetic_detections(self):
        """``keypoints.detect`` passes ``synthetic_detect``'s arrays on bit
        for bit, noise included."""
        rig, pose = self._scene()
        got = detect(detect_view(rig, pose, [], DetectorNoise(), np.random.default_rng(5)))
        want = detect_view(rig, pose, [], DetectorNoise(), np.random.default_rng(5))
        assert_same_detections(got, want)

    def test_takes_the_callers_cylinders_and_camera_pose(self):
        """The occluding parts and the camera pose come from the caller: a
        blocker handed in as a part occludes, and the pose need not be the
        rig's own."""
        rig, pose = self._scene()
        nose_w = pose.keypoints[body.NOSE]
        mid = 0.5 * (nose_w + rig.world_pose().translation)
        axis = np.array([0.0, 0.0, 1.0])
        parts = pose.cylinders
        parts[body.L_LOWER_LEG] = Cylinder(mid - axis * 0.5, axis, 1.0, 0.25)
        noise = DetectorNoise(sigma_px=0.0)
        _pixels, conf = synthetic_detect(rig.intrinsics, rig.world_pose(),
                                         pose.keypoints, parts, (), noise)
        assert conf[body.NOSE] == pytest.approx(0.9 * 0.15)
        turned = dataclasses.replace(rig, pan=0.9).world_pose()  # a copy looks away
        _pixels, conf = synthetic_detect(rig.intrinsics, turned, pose.keypoints,
                                         pose.cylinders, (), noise)
        assert conf.tolist() == pytest.approx([0.05] * body.NUM_KEYPOINTS)


class TestOracleConsistency:
    def test_thin_limb_round_trip_within_two_voxels(self):
        dims = PartDimensions(radius=(0.008,) * 10)
        pose = pose_from_dofs(rest_dofs(position=(2.0, 0.0, 0.9),
                                        heading=np.pi / 2), dims)
        rig = small_rig(pos=(0.0, 0.0, 1.0))
        cyls = [pose.states[p].cylinder() for p in range(10)]
        depth = render_depth(rig, cyls)
        cam_pose = rig.world_pose()
        k = rig.intrinsics
        checked = 0
        for kp, flag in enumerate(keypoint_flags(rig, pose)):
            if flag != "visible":
                continue
            cam_pt = cam_pose.inverse().apply(pose.keypoints[kp])
            pixel = np.array([k.fx * cam_pt[0] / cam_pt[2] + k.cx,
                              k.fy * cam_pt[1] / cam_pt[2] + k.cy])
            lifted = lift_depth(pixel, depth, 2, k)
            world = cam_pose.apply(lifted)
            assert np.linalg.norm(world - pose.keypoints[kp]) < 0.04
            checked += 1
        assert checked >= 8

    def test_observation_stream_determinism(self):
        script = scenario.scene_assembly(seed=9, duration=1.0)
        from mvsense.harness import build_scene
        streams = []
        for _ in range(2):
            scene = build_scene(script, "multi-active")
            rows = []
            for _f in range(10):
                pose = scene.human.pose_at(scene.t)
                links = scene.robot.links_at(scene.t)
                for ci, rig in enumerate(scene.rigs):
                    pixels, conf = detect_view(rig, pose, links, scene.detector_noise,
                                               scene.rng(1, ci))
                    rows.append(np.column_stack([pixels, conf]).ravel())
                scene.step(0.1)
            streams.append(np.stack(rows))
        assert np.array_equal(streams[0], streams[1])


# ---------------------------------------------------------------------------
# the per-cylinder simulator that the footprints and the camera-frame kernel
# replaced (``render_reference``), and its keypoint detector


def synthetic_detect_reference(rig, pose, robot_links=(), noise=None, rng=None):
    noise = noise or DetectorNoise()
    cam_pose = rig.world_pose()
    k = rig.intrinsics
    targets = pose.keypoints
    cam_pts = cam_pose.inverse().apply(targets)
    # occlusion, one pass per cylinder
    n = len(targets)
    d = targets - cam_pose.translation[None, :]
    dist = np.linalg.norm(d, axis=1)
    rays = d / np.maximum(dist, 1e-9)[:, None]
    origin = cam_pose.translation[None, :]
    occluded = np.zeros(n, dtype=bool)
    for part in range(body.NUM_KEYPARTS):
        t = ray_cylinder_hits_reference(origin, rays, pose.states[part].cylinder())
        own = np.array([kp in body.PART_KEYPOINTS[part] for kp in range(n)])
        occluded |= np.isfinite(t) & (t < dist - 0.01) & ~own
    for cyl in robot_links:
        t = ray_cylinder_hits_reference(origin, rays, cyl)
        occluded |= np.isfinite(t) & (t < dist - 0.01)
    pixels, confidences = [], []
    for kp in range(body.NUM_KEYPOINTS):
        z = cam_pts[kp, 2]
        if z <= 0.05:
            pixel = np.array([0.0, 0.0])
            conf = noise.c_out
        else:
            pixel = np.array([k.fx * cam_pts[kp, 0] / z + k.cx,
                              k.fy * cam_pts[kp, 1] / z + k.cy])
            if not in_image(k, pixel):
                conf = noise.c_out
            elif occluded[kp]:
                conf = noise.c_hi * noise.c_occ
            else:
                conf = noise.c_hi
        if rng is not None and noise.sigma_px > 0:
            pixel = pixel + rng.normal(0.0, noise.sigma_px, 2)
        pixels.append([float(np.clip(pixel[0], 0.0, k.width - 1)),
                       float(np.clip(pixel[1], 0.0, k.height - 1))])
        confidences.append(float(conf))
    return np.array(pixels), np.array(confidences)


def at_resolution(rig, size):
    """The rig at ``size`` pixels, focal length scaled so no view angle shrinks."""
    k = rig.intrinsics
    w, h = size
    s = min(w / k.width, h / k.height)
    return dataclasses.replace(rig, intrinsics=Intrinsics(
        k.fx * s, k.fy * s, (w - 1) / 2.0, (h - 1) / 2.0, w, h))


def assert_same_detections(got, want):
    """Equal (pixels, confidences) pairs, shape, dtype and bits."""
    shapes = [(body.NUM_KEYPOINTS, 2), (body.NUM_KEYPOINTS,)]
    for g, w, shape in zip(got, want, shapes, strict=True):
        assert g.shape == w.shape == shape
        assert g.dtype == w.dtype == np.float64 and g.tobytes() == w.tobytes()


def template_views(size, times=(0.0, 1.3, 2.6)):
    """(scene, rig index, rig, pose, scene cylinders, detector links) for a
    few frames of each template, with the rigs panned and tilted so that
    keypoints leave the image."""
    for name in sorted(scenario.TEMPLATES):
        script = scenario.TEMPLATES[name](seed=4, duration=3.0)
        scene = harness.build_scene(script, "multi-active")
        props = harness.prop_cylinders(script)
        for t in times:
            scene.t = t
            pose = scene.human.pose_at(t)
            links = list(scene.robot.links_at(t)) if scene.robot else []
            for ci, rig in enumerate(scene.rigs):
                rig = at_resolution(rig, size)
                rig.pan, rig.tilt = 0.45 * np.sin(3.0 * t + ci), -0.2 * np.cos(t)
                yield scene, ci, rig, pose, pose.cylinders + links + props, links + props


SIZES = [(144, 112), (640, 480)]


class TestMatchesPerCylinderReference:
    """render_depth hits the pixels the per-cylinder simulator it replaced
    hits, at depths within ``render_reference.DEPTH_TOL``, so the noise
    draws land alike; synthetic_detect's detections equal its, bit for
    bit."""

    @pytest.mark.parametrize("size", SIZES)
    def test_render_depth_on_template_frames(self, size):
        for scene, ci, rig, _pose, cyls, _links in template_views(size):
            assert_matches_reference(render_depth(rig, cyls), render_depth_reference(rig, cyls))
            got = render_depth(rig, cyls, scene.depth_noise, scene.rng(0, ci))
            want = render_depth_reference(rig, cyls, scene.depth_noise, scene.rng(0, ci))
            assert_matches_reference(got, want)

    @pytest.mark.parametrize("size", SIZES)
    def test_synthetic_detect_on_template_frames(self, size):
        out_of_image = 0
        for scene, ci, rig, pose, _cyls, links in template_views(size):
            for rng in (None, scene.rng(1, ci)):
                got = detect_view(rig, pose, links, scene.detector_noise, rng)
                want = synthetic_detect_reference(
                    rig, pose, links, scene.detector_noise,
                    None if rng is None else scene.rng(1, ci))
                assert_same_detections(got, want)
            out_of_image += int(np.sum(got[1] == scene.detector_noise.c_out))
        assert out_of_image > 0

    @pytest.mark.parametrize("size", SIZES)
    def test_camera_inside_the_body_and_occluders(self, size):
        """Keypoints behind the camera, outside the image and occluded; the
        camera sits inside the torso cylinder."""
        pose = pose_from_dofs(rest_dofs(position=(2.5, 0.0, 0.9), heading=np.pi / 2), DIMS)
        blocker = Cylinder(np.array([1.2, 0.05, 0.0]), np.array([0.0, 0.0, 1.0]), 2.0, 0.1)
        cyls = [pose.states[p].cylinder() for p in range(body.NUM_KEYPARTS)] + [blocker]
        noise = DetectorNoise()
        torso = pose.states[body.TORSO].cylinder()
        confidences, behind = set(), 0
        for rig in (small_rig(pos=(0.0, 0.0, 1.2)),
                    small_rig(pos=tuple(torso.midpoint), yaw=0.3, pitch=-0.2)):
            rig = at_resolution(rig, size)
            got = render_depth(rig, cyls, DepthNoise(), np.random.default_rng(5))
            want = render_depth_reference(rig, cyls, DepthNoise(), np.random.default_rng(5))
            assert_matches_reference(got, want)
            for rng in (None, 6):
                got = detect_view(rig, pose, [blocker], noise,
                                  rng and np.random.default_rng(rng))
                want = synthetic_detect_reference(rig, pose, [blocker], noise,
                                                  rng and np.random.default_rng(rng))
                assert_same_detections(got, want)
                confidences |= set(want[1].tolist())
            z = rig.world_pose().inverse().apply(pose.keypoints)[:, 2]
            behind += int(np.sum(z <= 0.05))
        assert behind > 0
        assert confidences == {noise.c_hi, noise.c_hi * noise.c_occ, noise.c_out}


class TestDepthNoiseRule:
    """Depth noise and dropout are drawn for hit pixels only."""

    @pytest.mark.parametrize("size", SIZES)
    def test_one_normal_then_one_uniform_per_hit_pixel(self, size):
        noise = DepthNoise()
        hits, kept, errors = 0, 0, []
        views = template_views(size, times=(0.0, 2.6))
        for seed, (_scene, _ci, rig, _pose, cyls, _links) in enumerate(views):
            clean = render_depth(rig, cyls)
            rng = np.random.default_rng(seed)
            noisy = render_depth(rig, cyls, noise, rng)
            hit = clean > 0
            n_hit = int(hit.sum())
            assert noisy[~hit].tobytes() == bytes(8 * (clean.size - n_hit))
            advanced = np.random.default_rng(seed)
            advanced.normal(0.0, noise.sigma_d, n_hit)
            advanced.random(n_hit)
            assert rng.bit_generator.state == advanced.bit_generator.state
            survived = hit & (noisy > 0)
            hits += n_hit
            kept += int(survived.sum())
            errors.append(noisy[survived] - clean[survived])
        errors = np.concatenate(errors)
        assert hits > 0
        assert abs((hits - kept) / hits - noise.p_drop) < 0.005
        assert np.std(errors) == pytest.approx(noise.sigma_d, rel=0.05)
        assert abs(np.mean(errors)) < 4.0 * noise.sigma_d / np.sqrt(len(errors))


def box_masks(rig, cyls):
    """(len(cyls), H, W) masks of each cylinder's ``bbox_reference`` box."""
    k = rig.intrinsics
    inv = rig.world_pose().inverse()
    masks = np.zeros((len(cyls), k.height, k.width), dtype=bool)
    for i, cyl in enumerate(cyls):
        box = box_of(cyl, inv, k)
        if box is not None:
            u0, u1, v0, v1 = box
            masks[i, v0:v1 + 1, u0:u1 + 1] = True
    return masks


def footprint_masks(rig, cyls):
    """(len(cyls), H, W) masks of the pixels render_depth casts per cylinder."""
    k = rig.intrinsics
    table = cylinder_table(cyls, rig.world_pose().inverse())
    cyl, row, first, spans = _pixel_spans(table, k)
    masks = np.zeros((len(cyls), k.height, k.width), dtype=bool)
    for c, v, u, n in zip(cyl, row, first, spans):
        masks[c, v, u:u + n] = True
    return masks


def full_image_hits(rig, cyls):
    """(len(cyls), H, W) masks of the pixels whose ray hits each cylinder."""
    k = rig.intrinsics
    table = cylinder_table(cyls, rig.world_pose().inverse())
    rays = camera_rays(k).reshape(-1, 3).T
    return np.array([np.isfinite(cast_rays(rays, row[None], [rays.shape[1]]))
                     for row in table]).reshape(len(cyls), k.height, k.width)


def camera_cylinder(rig, base_cam, axis_cam, height, radius):
    """A cylinder given in the rig's camera coordinates."""
    pose = rig.world_pose()
    return Cylinder(pose.apply(np.asarray(base_cam, dtype=np.float64)),
                    pose.rotation @ normalize(axis_cam), height, radius)


def random_camera_cylinders(rig, rng, n=25):
    """Cylinders in hard poses for a footprint: end-on, along the image
    axes, crossing the near plane, around the camera, and random."""
    cyls = []
    for i in range(n):
        kind = i % 5
        height, radius = rng.uniform(0.05, 1.2), rng.uniform(0.02, 0.3)
        base = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8), rng.uniform(0.4, 4.0)])
        if kind == 0:  # end-on, exactly or nearly along the optical axis
            axis = (0.0, 0.0, rng.choice([-1.0, 1.0]))
            if i % 10:
                axis = normalize(np.array(axis) + rng.normal(scale=0.02, size=3))
            if i % 15 == 0:
                base[:2] = 0.0  # its image is one point
        elif kind == 1:  # along an image axis
            axis = np.eye(3)[rng.integers(2)] * rng.choice([-1.0, 1.0])
        elif kind == 2:  # crossing the camera plane
            base[2] = rng.uniform(-1.0, 0.0)
            axis = normalize(np.array([rng.normal(), rng.normal(), 1.0]))
            height = rng.uniform(0.5, 3.0)
        elif kind == 3:  # around the camera
            axis = normalize(rng.normal(size=3))
            base = -axis * rng.uniform(0.0, height)
        else:
            axis = normalize(rng.normal(size=3))
        cyls.append(camera_cylinder(rig, base, axis, height, radius))
    return cyls + thin_rods(rig)


def thin_rods(rig):
    """Thin rods just beside the camera, through its plane: their images
    reach the image border, far past the corners' clamped projections."""
    return [camera_cylinder(rig, base, (0.0, 0.0, 1.0), 2.0, 0.003)
            for base in ((0.005, 0.0, -0.5), (0.0, -0.004, -0.3))]


def hard_views(size):
    """(rig, cylinders) pairs: random cylinders in hard poses, and a camera
    inside the torso of a template body."""
    rng = np.random.default_rng(11)
    pose = pose_from_dofs(rest_dofs(position=(2.5, 0.0, 0.9), heading=np.pi / 2), DIMS)
    body_cyls = [pose.states[p].cylinder() for p in range(body.NUM_KEYPARTS)]
    torso = pose.states[body.TORSO].cylinder()
    for yaw, pitch in ((0.0, 0.0), (0.7, -0.3), (-1.2, 0.5)):
        rig = at_resolution(small_rig(pos=(0.3, -0.2, 1.1), yaw=yaw, pitch=pitch), size)
        yield rig, random_camera_cylinders(rig, rng)
        rig = at_resolution(small_rig(pos=tuple(torso.midpoint), yaw=yaw, pitch=pitch), size)
        yield rig, body_cyls


class TestPixelBoundingBox:
    """Pixels outside a cylinder's footprint are never cast, so no ray
    through them may hit the cylinder; nor may a ray outside the box that
    the whole-box reference casts."""

    @pytest.mark.parametrize("size", SIZES)
    def test_every_hit_pixel_lies_in_its_bbox(self, size):
        hits = cast = boxed = 0
        for _scene, _ci, rig, _pose, cyls, _links in template_views(size, times=(0.0, 2.6)):
            hit = full_image_hits(rig, cyls)
            box = box_masks(rig, cyls)
            footprint = footprint_masks(rig, cyls)
            assert not np.any(hit & ~box)
            assert not np.any(hit & ~footprint)
            hits += int(hit.sum())
            cast += int(footprint.sum())
            boxed += int(box.sum())
        assert hits > 0
        assert cast < 0.8 * boxed  # the footprints do cut the rays

    @pytest.mark.parametrize("size", SIZES)
    def test_hard_poses_hit_only_inside_footprint(self, size):
        hits = 0
        for rig, cyls in hard_views(size):
            hit = full_image_hits(rig, cyls)
            footprint = footprint_masks(rig, cyls)
            assert not np.any(hit & ~footprint)
            hits += int(hit.sum())
        assert hits > 0

    def test_one_pixel_footprint_casts_one_pixel(self):
        """A tiny cylinder whose footprint holds only the corner pixel (0, 0)
        is cast through that pixel alone; a little further in, through the
        four pixels of its footprint."""
        rig = small_rig()
        k = rig.intrinsics
        cast = []
        for u, v in ((-0.7, -0.7), (0.3, 0.3)):
            base = ((u - k.cx) / k.fx * 3.0, (v - k.cy) / k.fy * 3.0, 3.0)
            cast.append(footprint_masks(rig, [camera_cylinder(rig, base, (1.0, 1.0, 0.0),
                                                                1e-3, 1e-3)])[0])
        assert cast[0].sum() == 1 and cast[0][0, 0]
        assert cast[1].sum() == 4 and cast[1][:2, :2].all()

    @pytest.mark.parametrize("size", SIZES)
    def test_box_reaching_the_near_plane_casts_the_whole_image(self, size):
        """A cylinder whose box crosses depth NEAR is cast through every
        pixel, one wholly behind the camera plane through none, and pixels
        hit nearer than NEAR are cast."""
        near_hits = 0
        for rig, cyls in hard_views(size):
            depth = render_depth(rig, cyls)
            near_hits += int(((depth > 0) & (depth < NEAR)).sum())
        assert near_hits > 0
        rig = at_resolution(small_rig(yaw=0.4, pitch=-0.2), size)
        behind = [camera_cylinder(rig, (0.2, 0.1, -1.5), (0.0, 0.0, 1.0), 1.0, 0.2),
                  camera_cylinder(rig, (0.0, 0.0, -0.3), (1.0, 0.0, 0.0), 0.4, 0.1)]
        footprint = footprint_masks(rig, thin_rods(rig) + behind)
        assert footprint[:2].all()
        assert not footprint[2:].any()

    @pytest.mark.parametrize("size", SIZES)
    def test_no_template_footprint_is_the_whole_image(self, size):
        """Template cameras keep every body, robot and prop box beyond NEAR,
        so none of their renders pays for a whole-image cast."""
        for _scene, _ci, rig, _pose, cyls, _links in template_views(size):
            assert not footprint_masks(rig, cyls).all(axis=(1, 2)).any()


class TestMatchesBoxCastReference:
    """render_depth equals, bit for bit, the whole-box cast through the same
    kernel, which it replaced."""

    @pytest.mark.parametrize("size", SIZES)
    def test_template_frames(self, size):
        for scene, ci, rig, _pose, cyls, _links in template_views(size):
            want = render_depth_box_reference(rig, cyls)
            assert render_depth(rig, cyls).tobytes() == want.tobytes()
            got = render_depth(rig, cyls, scene.depth_noise, scene.rng(0, ci))
            want = render_depth_box_reference(rig, cyls, scene.depth_noise, scene.rng(0, ci))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", SIZES)
    def test_hard_poses(self, size):
        for seed, (rig, cyls) in enumerate(hard_views(size)):
            for noise in (None, DepthNoise()):
                got = render_depth(rig, cyls, noise, np.random.default_rng(seed))
                want = render_depth_box_reference(rig, cyls, noise, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes()

    def test_hard_poses_one_cylinder_at_a_time(self):
        for rig, cyls in hard_views(SIZES[0]):
            for cyl in cyls:
                assert render_depth(rig, [cyl]).tobytes() == \
                    render_depth_box_reference(rig, [cyl]).tobytes()

    def test_one_pixel_footprints(self):
        """Tiny cylinders over the corner pixel, some of which it hits."""
        rng = np.random.default_rng(3)
        rig = small_rig()
        k = rig.intrinsics
        hits = 0
        for _ in range(200):
            u, v = rng.uniform(-0.8, 0.2, 2)
            z = rng.uniform(0.5, 4.0)
            base = ((u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z)
            cyl = camera_cylinder(rig, base, rng.normal(size=3), 0.01, rng.uniform(1e-3, 0.01))
            got = render_depth(rig, [cyl])
            assert got.tobytes() == render_depth_box_reference(rig, [cyl]).tobytes()
            hits += bool(got[0, 0] > 0)
        assert hits > 0

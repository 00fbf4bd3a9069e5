"""Scene simulator: depth rendering, synthetic detection, servo stepping,
and oracle-consistency of the rendered data."""

import dataclasses

import numpy as np
import pytest

from conftest import keypoint_flags, ray_cylinder_hits_reference
from mvsense import body, harness, scenario
from mvsense.body import PartDimensions, pose_from_dofs, rest_dofs
from mvsense.geometry import Cylinder, Intrinsics, cast_rays, ray_cylinder_intersect
from mvsense.keypoints import Observation2D, lift_depth
from mvsense.simulator import (
    CameraRig,
    DepthNoise,
    DetectorNoise,
    GroundTruthHuman,
    RobotArmProxy,
    Scene,
    SyntheticDetector,
    _cached_rays,
    _cylinder_pixel_bbox,
    camera_mount,
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
        t = ray_cylinder_intersect(pose.translation, d_world / n, cyl)
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
        pose = pose_from_dofs(dofs)
        rig = small_rig(pos=(0.0, 0.0, 1.2), yaw=0.0, pitch=0.0)
        return rig, pose

    def test_visible_keypoint_exact_pixel_and_ceiling_confidence(self):
        rig, pose = self._scene()
        obs = synthetic_detect(rig, pose, noise=DetectorNoise(sigma_px=0.0))
        nose = obs[body.NOSE]
        cam = rig.world_pose().inverse().apply(pose.keypoints[body.NOSE])
        expected = [200.0 * cam[0] / cam[2] + 79.5, 200.0 * cam[1] / cam[2] + 59.5]
        assert nose.pixel == pytest.approx(expected, abs=1e-9)
        assert nose.confidence == pytest.approx(0.9)

    def test_out_of_fov_gets_floor_confidence(self):
        rig, pose = self._scene()
        rig.pan = 0.9  # look away
        obs = synthetic_detect(rig, pose, noise=DetectorNoise(sigma_px=0.0))
        assert all(o.confidence == pytest.approx(0.05) for o in obs)

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
        obs = synthetic_detect(rig, pose, robot_links=[blocker],
                               noise=DetectorNoise(sigma_px=0.0))
        assert obs[body.NOSE].confidence == pytest.approx(0.9 * 0.15)

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

    def test_heatmap_mode_peaks_at_observation(self):
        rig, pose = self._scene()
        det = SyntheticDetector((160, 120), heatmaps=True, heatmap_size=(80, 60))
        frame = (rig, pose, [], DetectorNoise(sigma_px=0.0), None, 0.0)
        heatmaps = det.infer(frame)
        assert len(heatmaps) == 17
        from mvsense.keypoints import decode_heatmap
        obs = synthetic_detect(rig, pose, noise=DetectorNoise(sigma_px=0.0))
        for hm, o in zip(heatmaps, obs):
            pixel, conf = decode_heatmap(hm, (160, 120))
            if o.confidence > 0.5:  # in-view keypoints localize
                assert np.hypot(*(pixel - o.pixel)) <= 2.0


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
            obs = Observation2D(kp, pixel, 0.9, "cam", 0.0)
            lifted = lift_depth(obs, depth, 2, k)
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
                    obs = synthetic_detect(rig, pose, links,
                                           scene.detector_noise,
                                           scene.rng(1, ci), scene.t)
                    rows.append(np.concatenate(
                        [np.concatenate([o.pixel, [o.confidence]]) for o in obs]))
                scene.step(0.1)
            streams.append(np.stack(rows))
        assert np.array_equal(streams[0], streams[1])


# ---------------------------------------------------------------------------
# the per-cylinder simulator that the blocked ray cast replaced, kept as the
# bitwise reference


def bbox_reference(cyl, cam_from_world, k):
    ends = np.stack([cam_from_world.apply(cyl.base), cam_from_world.apply(cyl.top)])
    z = ends[:, 2]
    if np.all(z <= 0.05):
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


def render_depth_reference(rig, cylinders, noise=None, rng=None):
    k = rig.intrinsics
    pose = rig.world_pose()
    inv = pose.inverse()
    rays_cam = _cached_rays(k)
    origin = pose.translation[None, :]
    depth = np.full((k.height, k.width), np.inf)
    for cyl in cylinders:
        bbox = bbox_reference(cyl, inv, k)
        if bbox is None:
            continue
        if bbox == "full":
            u0, u1, v0, v1 = 0, k.width - 1, 0, k.height - 1
        else:
            u0, u1, v0, v1 = bbox
        sub = rays_cam[v0:v1 + 1, u0:u1 + 1].reshape(-1, 3)
        t = ray_cylinder_hits_reference(origin, sub @ pose.rotation.T, cyl)
        view = depth[v0:v1 + 1, u0:u1 + 1]
        np.minimum(view, t.reshape(v1 - v0 + 1, u1 - u0 + 1), out=view)
    depth = np.where(np.isfinite(depth), depth, 0.0)
    if noise is not None and rng is not None:
        # one normal, then one uniform, per hit pixel in row-major order
        hit = np.flatnonzero(depth > 0)
        values = depth.flat[hit]
        if noise.sigma_d > 0:
            values = values + rng.normal(0.0, noise.sigma_d, len(hit))
        if noise.p_drop > 0:
            values = np.where(rng.random(len(hit)) < noise.p_drop, 0.0, values)
        depth.flat[hit] = np.where(values > 1e-6, values, 0.0)
    return depth.astype(np.float64)


def synthetic_detect_reference(rig, pose, robot_links=(), noise=None, rng=None,
                               timestamp=0.0):
    noise = noise or DetectorNoise()
    cam_pose = rig.world_pose()
    k = rig.intrinsics
    targets = pose.keypoint_array()
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
    obs = []
    for kp in range(body.NUM_KEYPOINTS):
        z = cam_pts[kp, 2]
        if z <= 0.05:
            pixel = np.array([0.0, 0.0])
            conf = noise.c_out
        else:
            pixel = np.array([k.fx * cam_pts[kp, 0] / z + k.cx,
                              k.fy * cam_pts[kp, 1] / z + k.cy])
            if not k.contains(pixel):
                conf = noise.c_out
            elif occluded[kp]:
                conf = noise.c_hi * noise.c_occ
            else:
                conf = noise.c_hi
        if rng is not None and noise.sigma_px > 0:
            pixel = pixel + rng.normal(0.0, noise.sigma_px, 2)
        pixel = np.array([float(np.clip(pixel[0], 0.0, k.width - 1)),
                          float(np.clip(pixel[1], 0.0, k.height - 1))])
        obs.append(Observation2D(kp, pixel, float(conf), rig.rig_id, timestamp))
    return obs


def at_resolution(rig, size):
    """The rig at ``size`` pixels, focal length scaled so no view angle shrinks."""
    k = rig.intrinsics
    w, h = size
    s = min(w / k.width, h / k.height)
    return dataclasses.replace(rig, intrinsics=Intrinsics(
        k.fx * s, k.fy * s, (w - 1) / 2.0, (h - 1) / 2.0, w, h))


def assert_same_observations(got, want):
    assert len(got) == len(want) == body.NUM_KEYPOINTS
    for g, w in zip(got, want):
        assert (g.keypoint, g.confidence, g.camera, g.timestamp) == \
            (w.keypoint, w.confidence, w.camera, w.timestamp)
        assert type(g.confidence) is float
        assert g.pixel.dtype == np.float64 and g.pixel.tobytes() == w.pixel.tobytes()


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
                yield scene, ci, rig, pose, scene.cylinders(pose) + props, links + props


SIZES = [(144, 112), (640, 480)]


class TestMatchesPerCylinderReference:
    """render_depth and synthetic_detect equal, bit for bit, the per-cylinder
    simulator they replaced."""

    @pytest.mark.parametrize("size", SIZES)
    def test_render_depth_on_template_frames(self, size):
        for scene, ci, rig, _pose, cyls, _links in template_views(size):
            want = render_depth_reference(rig, cyls)
            assert render_depth(rig, cyls).tobytes() == want.tobytes()
            got = render_depth(rig, cyls, scene.depth_noise, scene.rng(0, ci))
            want = render_depth_reference(rig, cyls, scene.depth_noise, scene.rng(0, ci))
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", SIZES)
    def test_synthetic_detect_on_template_frames(self, size):
        out_of_image = 0
        for scene, ci, rig, pose, _cyls, links in template_views(size):
            for rng in (None, scene.rng(1, ci)):
                got = synthetic_detect(rig, pose, links, scene.detector_noise, rng, 0.7)
                want = synthetic_detect_reference(
                    rig, pose, links, scene.detector_noise,
                    None if rng is None else scene.rng(1, ci), 0.7)
                assert_same_observations(got, want)
            out_of_image += sum(o.confidence == scene.detector_noise.c_out for o in got)
        assert out_of_image > 0

    @pytest.mark.parametrize("size", SIZES)
    def test_camera_inside_the_body_and_occluders(self, size):
        """Keypoints behind the camera, outside the image and occluded; the
        camera sits inside the torso cylinder."""
        pose = pose_from_dofs(rest_dofs(position=(2.5, 0.0, 0.9), heading=np.pi / 2))
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
            assert got.tobytes() == want.tobytes()
            for rng in (None, 6):
                got = synthetic_detect(rig, pose, [blocker], noise,
                                       rng and np.random.default_rng(rng))
                want = synthetic_detect_reference(rig, pose, [blocker], noise,
                                                  rng and np.random.default_rng(rng))
                assert_same_observations(got, want)
                confidences |= {o.confidence for o in want}
            z = rig.world_pose().inverse().apply(pose.keypoint_array())[:, 2]
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


class TestPixelBoundingBox:
    """Pixels outside a cylinder's bbox are never cast, so no ray through
    them may hit the cylinder."""

    @pytest.mark.parametrize("size", SIZES)
    def test_every_hit_pixel_lies_in_its_bbox(self, size):
        hits = 0
        for _scene, _ci, rig, _pose, cyls, _links in template_views(size, times=(0.0, 2.6)):
            k = rig.intrinsics
            pose = rig.world_pose()
            rays = _cached_rays(k).reshape(-1, 3) @ pose.rotation.T
            t = cast_rays(pose.translation, [rays] * len(cyls), cyls)
            hit = np.isfinite(t).reshape(len(cyls), k.height, k.width)
            for cyl, mask in zip(cyls, hit):
                bbox = _cylinder_pixel_bbox(cyl, pose.inverse(), k)
                inside = np.zeros_like(mask)
                if bbox is not None:
                    u0, u1, v0, v1 = bbox
                    inside[v0:v1 + 1, u0:u1 + 1] = True
                assert not np.any(mask & ~inside), (cyl, bbox)
                hits += int(mask.sum())
        assert hits > 0

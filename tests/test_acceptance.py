"""Acceptance criteria for the whole engine, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Criterion 8 executes the full three-scenario, four-config,
ten-seed comparison sweep and dominates the runtime.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import (
    DIMS,
    fuse_one,
    is_connected,
    keypoint_flags,
    objective_value,
    random_rigid,
    rest_dofs,
    sample_cylinder,
)
from mvsense import body, harness, scenario, scheduler
from mvsense.body import (
    KeypartState,
    PartDimensions,
    augment,
    build_tree,
)
from mvsense.geometry import Intrinsics, normalize, rot_x, rot_z
from mvsense.keypoints import (
    PresenceWindow,
    effectiveness_factor,
    lift_depth,
)
from mvsense.keyparts import Trapezoid, base_half_length, paint_masks, BACKGROUND
from mvsense.registration import (
    MAX_ITERATIONS,
    TOL,
    TRIM,
    icp_register,
    register_level,
    register_tree,
    sample_cylinder_local,
)
from mvsense.simulator import pose_from_dofs, render_depth


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------------------


def test_criterion_01_fusion_optimality(rng):
    """Closed-form fusion matches an independent numeric minimizer."""
    t0 = time.perf_counter()
    cases = []
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        entries = [(rng.uniform(-1, 1, 3), float(rng.uniform(0.1, 1.0)),
                    random_rigid(rng)) for _ in range(n)]
        cases.append(entries)

    # pad into arrays for one vectorized gradient descent over all cases
    max_n = 4
    worlds = np.zeros((len(cases), max_n, 3))
    weights = np.zeros((len(cases), max_n))
    for i, entries in enumerate(cases):
        for j, (p, c, t) in enumerate(entries):
            worlds[i, j] = t.apply(np.asarray(p))
            weights[i, j] = c
    x = np.zeros((len(cases), 3))
    lr = 0.45 / weights.sum(axis=1, keepdims=True)
    for _ in range(400):
        grad = 2.0 * (weights[..., None] * (x[:, None, :] - worlds)).sum(axis=1)
        x = x - lr * grad

    worst = 0.0
    for i, entries in enumerate(cases):
        position, _confidence = fuse_one(entries)
        worst = max(worst, float(np.linalg.norm(position - x[i])))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6, f"max deviation {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"fusion matches numeric minimizer (max {worst:.2e} m, {elapsed:.2f}s)")


def test_criterion_02_confidence_update(rng):
    """Fused confidence matches the direct formula and grows with N."""
    for _ in range(500):
        n = int(rng.integers(1, 11))
        confs = rng.uniform(0.05, 0.95, n)
        entries = [(np.zeros(3), float(c),
                    random_rigid(rng)) for c in confs]
        _position, confidence = fuse_one(entries)
        e = np.exp(-float(n))
        direct = (1.0 - e) / (1.0 + e) * (confs.sum() / n)
        assert abs(confidence - direct) < 1e-12
    factors = [effectiveness_factor(n) for n in range(1, 11)]
    assert all(b > a for a, b in zip(factors, factors[1:]))
    assert all(0.0 < f < 1.0 for f in factors)
    ok(2, "confidence update exact to 1e-12 and monotone in camera count")


def test_criterion_03_presence_windows_exhaustive():
    """All binary length-6 confidence sequences match the geometric sums."""
    m, gamma, alpha = 5, 0.7, 1.0
    for bits in itertools.product((0.0, 1.0), repeat=6):
        w = PresenceWindow(m=m, gamma=gamma, alpha=alpha)
        for c in bits:
            w.update(c)
        hand = 0.0
        for i, c in enumerate(reversed(bits)):
            hand += gamma ** i * c
        assert w.score() == hand  # identical accumulation, bitwise equal
        # keypart windows share the rule via the max-confidence drive
        assert int(w.present()) == int(hand > alpha)
    ok(3, "64/64 binary windows match hand-evaluated geometric sums")


def test_criterion_04_reprojection_round_trip():
    """Ground-truth keypoint -> rendered depth -> lift -> world < 1 cm.

    A thin-limbed body keeps the rendered surface at the keypoint itself,
    so the check isolates the depth-slice and reprojection chain.
    """
    from mvsense.simulator import CameraRig, camera_mount
    k = Intrinsics(fx=200.0, fy=200.0, cx=79.5, cy=59.5, width=160, height=120)
    rig = CameraRig("cam", k, camera_mount((0.0, 0.0, 1.0), 0.0, 0.0))
    dims = PartDimensions(radius=(0.005,) * 10)
    depths_seen = []
    worst = 0.0
    for x in (0.62, 1.0, 1.6, 2.4, 3.2, 3.95):
        pose = pose_from_dofs(rest_dofs(position=(x, 0.0, 0.9),
                                        heading=np.pi / 2), dims)
        cyls = [pose.states[p].cylinder() for p in range(10)]
        depth = render_depth(rig, cyls)
        cam_pose = rig.world_pose()
        for kp, flag in enumerate(keypoint_flags(rig, pose)):
            if flag != "visible":
                continue
            cam_pt = cam_pose.inverse().apply(pose.keypoints[kp])
            if not (0.5 <= cam_pt[2] <= 4.0):
                continue
            pixel = np.array([k.fx * cam_pt[0] / cam_pt[2] + k.cx,
                              k.fy * cam_pt[1] / cam_pt[2] + k.cy])
            try:
                lifted = lift_depth(pixel, depth, 2, k)
            except Exception:
                continue  # N_r = 0: the contract treats this as absent
            world = cam_pose.apply(lifted)
            err = float(np.linalg.norm(world - pose.keypoints[kp]))
            worst = max(worst, err)
            depths_seen.append(cam_pt[2])
    assert worst < 0.01, f"worst round-trip error {worst * 100:.2f} cm"
    assert len(depths_seen) >= 30
    assert min(depths_seen) < 0.8 and max(depths_seen) > 3.5
    ok(4, f"depth round trip worst {worst * 100:.2f} cm over "
          f"depths {min(depths_seen):.2f}-{max(depths_seen):.2f} m")


def test_criterion_05_mask_semantics(rng):
    """Per-pixel labels equal the min-depth oracle; L*d stays constant."""
    width, height = 72, 56
    for _ in range(100):
        tzs = []
        for part in range(int(rng.integers(2, 6))):
            mu = rng.uniform(4, 66, 2)
            ml = mu + rng.uniform(-22, 22, 2)
            tzs.append(Trapezoid(part, mu, ml, float(rng.uniform(2, 10)),
                                 float(rng.uniform(2, 10)),
                                 float(rng.uniform(0.5, 4.0)),
                                 float(rng.uniform(0.5, 4.0))))
        mask = paint_masks(tzs, width, height).expanded()
        pix_row = np.arange(width)
        for v in range(height):
            pix = np.column_stack([pix_row, np.full(width, v)]).astype(float)
            best = np.full(width, np.inf)
            label = np.full(width, BACKGROUND, dtype=np.int16)
            for tz in tzs:
                inside = tz.contains(pix[:, 0], pix[:, 1])
                closer = inside & (tz.paint_depth < best)
                label[closer] = tz.part
                best[closer] = tz.paint_depth
            assert np.array_equal(mask.labels[v], label)
    f, r = 450.0, 0.09
    ref = base_half_length(f, 1.0, r)
    for d in np.linspace(0.25, 7.5, 60):
        assert base_half_length(f, d, r) * d == pytest.approx(ref, abs=1e-9)
    ok(5, "100/100 random masks equal the min-depth oracle; L*d constant")


def test_criterion_06_icp():
    """Known-transform recovery, noisy Monte-Carlo, and runtime bound.

    The free fit (the torso's) recovers a rigid motion on the sampled
    model; an anchored part goes through the level solve.
    """
    radius, height = 0.05, 0.3
    model = sample_cylinder_local(radius, height, 160)
    init = KeypartState(2, np.zeros(3), np.array([0.0, 0.0, 1.0]), height, radius)

    # noiseless free-motion recovery
    r_true = rot_z(0.2) @ rot_x(np.radians(10.0))
    moved = KeypartState(2, np.array([0.02, -0.01, 0.015]),
                         normalize(r_true @ init.axis), height, radius)
    data = sample_cylinder(moved, len(model))
    res = icp_register(model, data, init)
    rot_err = np.degrees(np.arccos(np.clip(np.dot(res.state.axis, moved.axis),
                                           -1, 1)))
    trans_err = np.linalg.norm(res.state.base - moved.base)
    assert rot_err < 0.5, f"rotation error {rot_err:.3f} deg"
    assert trans_err < 1e-3, f"translation error {trans_err * 1000:.3f} mm"

    # Gaussian noise robustness over 100 seeds
    success = 0
    for seed in range(100):
        local_rng = np.random.default_rng(seed)
        axis = normalize(rot_x(np.radians(12.0)) @ init.axis)
        noisy_state = KeypartState(2, init.base, axis, height, radius)
        pts = sample_cylinder(noisy_state, 600)
        pts = pts + local_rng.normal(0.0, 0.005, pts.shape)
        out = register_level([init], [pts], MAX_ITERATIONS, TOL, TRIM)[0]
        err = np.degrees(np.arccos(np.clip(np.dot(out.state.axis, axis), -1, 1)))
        if err < 2.0:
            success += 1
    assert success >= 95, f"only {success}/100 noisy recoveries under 2 deg"

    # runtime at 2000 data points
    big = sample_cylinder(moved, 2000)
    icp_register(model, big, init)  # warm numpy paths
    t0 = time.perf_counter()
    icp_register(model, big, init)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05, f"{elapsed * 1000:.1f} ms"
    ok(6, f"ICP: {rot_err:.3f} deg / {trans_err * 1000:.2f} mm noiseless, "
          f"{success}/100 noisy, {elapsed * 1000:.1f} ms at 2000 pts")


def test_criterion_07_tree_connectivity(rng):
    """All 2^10 anchorable subsets connect; registered joints have no gaps."""
    pose = pose_from_dofs(rest_dofs(), DIMS)
    kps = pose.keypoints
    for bits in itertools.product((0, 1), repeat=10):
        present = [p for p, b in enumerate(bits) if b]
        tree = augment(build_tree(present), kps, DIMS)
        assert is_connected(tree)
        assert not tree.excluded  # every part anchorable with full keypoints

    dofs = rest_dofs(position=(0.3, -0.2, 0.9), heading=0.4)
    dofs[8:10] = (-0.4, -0.3)
    dofs[12:14] = (-0.2, 0.45)
    posed = pose_from_dofs(dofs, DIMS)
    clouds = {p: sample_cylinder(posed.states[p], 400)
              + rng.normal(0, 0.003, (400, 3)) for p in range(10)}
    tree = register_tree(augment(build_tree(range(10)),
                                 posed.keypoints, DIMS),
                         clouds, DIMS)
    worst_gap = 0.0
    for part, parent in body.PARENT.items():
        if parent is None:
            continue
        joint = body.parent_joint_position(part, tree)
        gap = float(np.linalg.norm(tree.nodes[part].state.base - joint))
        worst_gap = max(worst_gap, gap)
    assert worst_gap < 1e-6
    ok(7, f"1024/1024 subsets connected; worst joint gap {worst_gap:.2e} m")


@pytest.mark.slow
def test_criterion_08_configuration_ordering():
    """Desk-scale substitute for the four-system comparison.

    Exact field accuracies are out of reach (they depend on the real
    detector, hardware and operators); the required property is the
    ordering of the four camera configurations and a minimum gap between
    the best and worst, on the built-in scenes across ten seeds each.
    """
    t0 = time.perf_counter()
    per_scene = {}
    for name, builder in scenario.TEMPLATES.items():
        script = builder(seed=0)
        per_scene[name] = harness.compare_configs(script, trials=10, jobs=2)
    totals = {
        config: float(np.mean([per_scene[s][config]["mean_accuracy"]
                               for s in per_scene]))
        for config in scenario.CONFIGS
    }
    elapsed = time.perf_counter() - t0
    print()
    print(harness.format_comparison(per_scene))
    ma, mf = totals["multi-active"], totals["multi-fixed"]
    sa, sf = totals["single-active"], totals["single-fixed"]
    assert ma > mf > sf, f"ordering failed: {totals}"
    assert ma > sa > sf, f"ordering failed: {totals}"
    assert ma - sf >= 0.10, f"gap {ma - sf:.3f} < 0.10"
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s"
    ok(8, f"ordering ma {ma:.4f} > mf {mf:.4f} > sa-path, sa {sa:.4f} > "
          f"sf {sf:.4f}; gap {ma - sf:.3f}; {elapsed:.0f}s")


def test_criterion_09_scheduler():
    """Objective formula exact; toy-grid planning is optimal and >= hold."""
    expected = np.log(0.9) + 0.9 * np.log(0.8)
    got = objective_value([0.1, 0.2], 0.9)
    assert abs(got - expected) < 1e-12

    from mvsense.geometry import Cylinder
    from mvsense.scheduler import _CameraTable, _sequence_value
    from mvsense.simulator import CameraRig, camera_mount

    def vertical(x, y):
        return Cylinder(np.array([x, y, 0.0]), np.array([0.0, 0.0, 1.0]), 1.6, 0.1)

    k = Intrinsics(fx=170.0, fy=170.0, cx=47.5, cy=35.5, width=96, height=72)
    rig = CameraRig("cam", k, camera_mount((0.0, 0.0, 1.0), 0.0, 0.0),
                    pan_limits=(-1.0, 1.0), tilt_limits=(-0.6, 0.6),
                    max_rate=10.0)
    params = scheduler.SchedulerParams(horizon=2, gamma=0.9, interval=0.5,
                                       grid_pan=5, grid_tilt=5, growth=0.8,
                                       sigma_obs=0.02, exhaustive_limit=10 ** 9)
    tracks = {0: (vertical(2.0, 1.3), 0.55), 1: (vertical(2.4, -0.9), 0.5)}
    est = scheduler.estimate_collision(tracks, lambda t: [vertical(2.1, 0.4)], params)
    traj = scheduler.plan([rig], est, params)
    assert traj.mode == "exhaustive"

    # brute-force optimum over every rate-feasible sequence
    tables = [_CameraTable(rig, params, est.positions)]
    best = -np.inf

    def recurse(step, cur, prefix):
        nonlocal best
        if step == params.horizon + 1:
            best = max(best, _sequence_value(tuple(prefix), tables, est, params))
            return
        for idx in tables[0].reachable_from(cur):
            recurse(step + 1, tables[0].orientations[idx], prefix + [(idx,)])

    recurse(0, tables[0].hold, [])
    hold_seq = tuple((tables[0].index[tables[0].hold],)
                     for _ in range(params.horizon + 1))
    hold_val = _sequence_value(hold_seq, tables, est, params)
    # the planner's value of holding still is the objective written out
    sig, p_hats = est.sigmas, []
    for m, (idx,) in enumerate(hold_seq):
        sig = scheduler._advance_sigma(sig, tables[0].vis[idx], params)
        p_hats.append(1.0 - np.prod(
            1.0 - scheduler.collision_probability(est.clearances[m], sig)))
    assert objective_value(p_hats, params.gamma) == pytest.approx(hold_val, abs=1e-12)
    assert traj.objective == pytest.approx(best, abs=1e-9)
    assert traj.objective >= hold_val - 1e-12
    ok(9, f"objective exact; toy optimum attained ({traj.objective:.4f} "
          f">= hold {hold_val:.4f})")


def test_criterion_10_determinism(tmp_path):
    """Same script + seed twice: byte-identical metrics files."""
    script = scenario.scene_assembly(seed=12, duration=2.5)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    harness.run_trial(script, config="multi-active", out_dir=d1)
    harness.run_trial(script, config="multi-active", out_dir=d2)
    stem = "assembly_multi-active_12"
    for suffix in ("_frames.csv", "_summary.json"):
        b1 = (d1 / (stem + suffix)).read_bytes()
        b2 = (d2 / (stem + suffix)).read_bytes()
        assert b1 == b2, f"{suffix} differs between identical runs"
    ok(10, "repeated trial produced byte-identical metrics files")

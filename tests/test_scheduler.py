"""Viewpoint scheduling: collision surrogate, discounted objective, and
planning against exhaustive-search oracles on toy grids and, bit for
bit, against the replaced search in ``scheduler_reference``."""

import itertools

import numpy as np
import pytest

import scheduler_reference as reference
from conftest import objective_value
from mvsense.geometry import Cylinder, Intrinsics
from mvsense.scheduler import (
    CollisionEstimate,
    SchedulerParams,
    _advance_sigma,
    _step,
    collision_probability,
    estimate_collision,
    grown_sigma,
    plan,
    update_tracks,
)
from mvsense.simulator import CameraRig, camera_mount


def vertical(x, y, h=1.0, r=0.1):
    return Cylinder(np.array([x, y, 0.0]), np.array([0.0, 0.0, 1.0]), h, r)


def toy_rig(pan_range=1.0, tilt_range=0.6, rate=10.0, fov=120.0):
    k = Intrinsics(fx=fov, fy=fov, cx=47.5, cy=35.5, width=96, height=72)
    rig = CameraRig("cam", k, camera_mount((0.0, 0.0, 1.0), 0.0, 0.0),
                    pan_limits=(-pan_range, pan_range),
                    tilt_limits=(-tilt_range, tilt_range), max_rate=rate)
    return rig


class TestCollisionSurrogate:
    def test_overlapping_cylinders_probability_one(self):
        est = estimate_collision(
            {0: (vertical(0.0, 0.0), 0.05)},
            lambda t: [vertical(0.05, 0.0)], SchedulerParams(horizon=1))
        assert est.clearances[0, 0] == 0.0
        p = collision_probability(est.clearances, est.sigmas)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_large_clearance_probability_near_zero(self):
        est = estimate_collision(
            {0: (vertical(0.0, 0.0), 0.05)},
            lambda t: [vertical(5.0, 0.0)], SchedulerParams(horizon=1))
        assert collision_probability(est.clearances, est.sigmas)[0, 0] < 1e-12

    def test_doubling_sigma_raises_probability(self):
        c = np.array([0.5])
        p1 = collision_probability(c, np.array([0.2]))
        p2 = collision_probability(c, np.array([0.4]))
        assert p2 > p1

    def test_probability_bounds(self, rng):
        c = rng.uniform(0, 3, 100)
        s = rng.uniform(0.01, 2, 100)
        p = collision_probability(c, s)
        assert np.all(p >= 0) and np.all(p < 1.0)

    def test_step_term_is_the_any_part_union(self):
        # no growth and no view keep sigma at 0.2; clearance 0.2 * sqrt(2 ln 2)
        # gives p = 0.5 per part, and a far robot gives p = 0
        params = SchedulerParams(growth=0.0)
        sig = np.array([0.2, 0.2])
        half = 0.2 * np.sqrt(2.0 * np.log(2.0))
        _sig2, term = _step(sig, np.zeros(2), np.array([half, half]), 0, params)
        assert 1.0 - np.exp(term) == pytest.approx(0.75)
        _sig2, term = _step(sig, np.zeros(2), np.array([1e9, 1e9]), 0, params)
        assert term == 0.0

    def test_step_scores_each_option_row_like_a_single_row(self, rng):
        params = SchedulerParams()
        sig, clear = rng.uniform(0.05, 0.8, 4), rng.uniform(0.0, 1.0, 4)
        quality = rng.uniform(0.0, 1.0, (3, 2, 4))
        sig2, terms = _step(sig, quality, clear, 2, params)
        assert sig2.shape == (3, 2, 4) and terms.shape == (3, 2)
        for pos in np.ndindex(terms.shape):
            row_sig, row_term = _step(sig, quality[pos], clear, 2, params)
            assert row_sig.tobytes() == sig2[pos].tobytes()
            assert row_term.tobytes() == terms[pos].tobytes()

    def test_moving_robot_changes_interval_clearances(self):
        def links_at(t):
            return [vertical(2.0 - t, 0.0)]
        est = estimate_collision({0: (vertical(0.0, 0.0), 0.1)},
                                 links_at, SchedulerParams(horizon=2, interval=0.5))
        assert est.clearances[2, 0] < est.clearances[0, 0]


class TestTracks:
    def test_observed_part_restarts_at_sigma_obs(self):
        params = SchedulerParams()
        old, new = vertical(0.0, 0.0), vertical(1.0, 0.5)
        tracks = {2: (old, 0.9)}
        update_tracks(tracks, [(2, new)], 0.1, params)
        assert tracks == {2: (new, params.sigma_obs)}

    def test_unseen_part_grows_until_the_cap(self):
        params = SchedulerParams(growth=0.5, sigma_obs=0.02, sigma_cap=0.3)
        part = vertical(0.0, 0.0)
        tracks = {4: (part, params.sigma_obs)}
        update_tracks(tracks, [], 0.2, params)
        assert tracks[4][0] is part
        assert tracks[4][1] == params.sigma_obs + params.growth * 0.2
        for _ in range(5):
            update_tracks(tracks, [], 0.2, params)
        assert tracks[4][1] == params.sigma_cap

    def test_a_part_never_observed_is_not_tracked(self):
        params = SchedulerParams()
        tracks = {}
        update_tracks(tracks, [], 0.1, params)
        assert tracks == {}
        update_tracks(tracks, [(1, vertical(0.0, 0.0))], 0.1, params)
        update_tracks(tracks, [], 0.1, params)
        assert list(tracks) == [1]

    def test_planner_step_grows_by_the_same_rule(self, rng):
        params = SchedulerParams(sigma_cap=0.6)
        sig = rng.uniform(0.0, 0.8, 50)
        assert _advance_sigma(sig, 0.0, params).tobytes() == \
            grown_sigma(sig, params.interval, params).tobytes()


class TestObjective:
    def test_hand_computed_value(self):
        expected = np.log(0.9) + 0.9 * np.log(0.8)
        assert objective_value([0.1, 0.2], 0.9) == pytest.approx(expected, abs=1e-12)

    def test_probability_clamped_below_one(self):
        val = objective_value([1.0], 0.9)
        assert np.isfinite(val)
        assert val == pytest.approx(np.log(1e-9), rel=1e-6)


def brute_force_plan(rigs, estimate, params):
    """Exhaustive oracle over the full joint candidate product space."""
    from mvsense.scheduler import _CameraTable, _sequence_value
    tables = [_CameraTable(rig, params, estimate.positions) for rig in rigs]
    m1 = params.horizon + 1
    best_seq, best_val = None, -np.inf

    def options(table, cur):
        return table.reachable_from(cur)

    def recurse(step, current, prefix):
        nonlocal best_seq, best_val
        if step == m1:
            val = _sequence_value(tuple(prefix), tables, estimate, params)
            if val > best_val + 1e-15:
                best_seq, best_val = tuple(prefix), val
            return
        for joint in itertools.product(*[options(t, c)
                                         for t, c in zip(tables, current)]):
            nxt = tuple(tables[c].orientations[joint[c]]
                        for c in range(len(tables)))
            recurse(step + 1, nxt, prefix + [joint])

    recurse(0, tuple(t.hold for t in tables), [])
    commands = {rig.rig_id: [tables[c].orientations[s[c]] for s in best_seq]
                for c, rig in enumerate(rigs)}
    return commands, best_val


class TestPlan:
    def test_zero_risk_holds_current_angles(self):
        rig = toy_rig()
        rig.pan = 0.2
        params = SchedulerParams(horizon=2, grid_pan=5, grid_tilt=5)
        est = estimate_collision({0: (vertical(3.0, 0.0), 0.02)},
                                 lambda t: [vertical(-50.0, 0.0)], params)
        traj = plan([rig], est, params)
        assert all(cmd == (0.2, 0.0) for cmd in traj.commands["cam"])

    def test_no_tracked_parts_holds(self):
        rig = toy_rig()
        params = SchedulerParams()
        est = CollisionEstimate([], np.zeros((4, 0)), np.zeros(0), np.zeros((0, 3)))
        traj = plan([rig], est, params)
        assert traj.mode == "hold"

    def test_single_risky_part_centered_on_toy_grid(self):
        # 5x5 grid, horizon 2, exhaustive mode: the planner must bring the
        # off-axis risky part near the FOV center
        rig = toy_rig(fov=170.0)
        params = SchedulerParams(horizon=2, gamma=0.9, interval=0.5,
                                 grid_pan=5, grid_tilt=5, growth=0.8,
                                 sigma_obs=0.02, exhaustive_limit=100000)
        part = vertical(2.0, 1.4, h=1.6, r=0.1)
        est = estimate_collision({3: (part, 0.6)},
                                 lambda t: [vertical(2.0, 2.1, h=1.6)], params)
        assert est.clearances[0, 0] > 0.3  # genuine risk gradient, not a cap
        traj = plan([rig], est, params)
        assert traj.mode == "exhaustive"
        final_pan, final_tilt = traj.commands["cam"][-1]
        # the part must sit near the FOV center at the final orientation
        from mvsense.scheduler import _view_quality
        q = _view_quality(rig, [(final_pan, final_tilt)],
                          part.midpoint[None, :])[0]
        assert q[0] == pytest.approx(1.0)
        # final pan within one grid cell of the part bearing
        bearing = np.arctan2(1.4, 2.0)
        grid_step = 2.0 / 4  # pan limits +-1, 5 points
        assert abs(abs(final_pan) - bearing) <= grid_step + 1e-9

    def test_matches_exhaustive_oracle_single_camera(self, rng):
        rig = toy_rig(fov=170.0)
        params = SchedulerParams(horizon=2, gamma=0.9, interval=0.5,
                                 grid_pan=5, grid_tilt=5, growth=0.8,
                                 sigma_obs=0.02, exhaustive_limit=10 ** 9)
        tracks = {0: (vertical(2.0, 1.2, r=0.08), 0.5),
                  1: (vertical(2.2, -0.8, r=0.08), 0.4)}
        est = estimate_collision(tracks, lambda t: [vertical(2.1, 0.2)], params)
        traj = plan([rig], est, params)
        _oracle_cmds, oracle_val = brute_force_plan([rig], est, params)
        assert traj.mode == "exhaustive"
        assert traj.objective == pytest.approx(oracle_val, abs=1e-9)

    def test_two_cameras_split_coverage(self):
        # two risk regions on opposite sides; a tiny grid keeps the joint
        # product space exhaustively searchable
        rig_a = toy_rig(fov=170.0)
        rig_b = toy_rig(fov=170.0)
        rig_b.rig_id = "cam2"
        params = SchedulerParams(horizon=1, gamma=0.9, interval=0.6,
                                 grid_pan=3, grid_tilt=1, growth=0.8,
                                 sigma_obs=0.02, exhaustive_limit=10 ** 7)
        # parts near the +-1 rad grid bearings so a camera must commit a side
        tracks = {0: (vertical(2.0, 3.1, h=1.6, r=0.1), 0.6),
                  1: (vertical(2.0, -3.1, h=1.6, r=0.1), 0.6)}
        est = estimate_collision(
            tracks,
            lambda t: [vertical(2.0, 3.8, h=1.6), vertical(2.0, -3.8, h=1.6)],
            params)
        assert est.clearances.min() > 0.3
        traj = plan([rig_a, rig_b], est, params)
        assert traj.mode == "exhaustive"
        cmds, val = brute_force_plan([rig_a, rig_b], est, params)
        assert traj.objective == pytest.approx(val, abs=1e-9)
        final_a = traj.commands["cam"][-1][0]
        final_b = traj.commands["cam2"][-1][0]
        assert np.sign(final_a) != np.sign(final_b)  # cameras split sides

    def test_greedy_never_below_hold(self, rng):
        from mvsense.scheduler import _CameraTable, _sequence_value
        for trial in range(10):
            rig = toy_rig(fov=150.0, rate=2.0)
            rig.pan = float(rng.uniform(-0.5, 0.5))
            params = SchedulerParams(horizon=3, grid_pan=7, grid_tilt=5,
                                     growth=0.5, exhaustive_limit=1)  # force greedy
            parts = [vertical(rng.uniform(1.5, 3.0), rng.uniform(-1.5, 1.5), r=0.08)
                     for _ in range(3)]
            tracks = {i: (part, rng.uniform(0.05, 0.8)) for i, part in enumerate(parts)}
            est = estimate_collision(tracks, lambda t: [vertical(2.0, 0.0)], params)
            traj = plan([rig], est, params)
            tables = [_CameraTable(rig, params, est.positions)]
            hold_seq = tuple((tables[0].index[tables[0].hold],)
                             for _ in range(params.horizon + 1))
            hold_val = _sequence_value(hold_seq, tables, est, params)
            assert traj.objective >= hold_val - 1e-12

    def test_rate_limit_feasibility(self, rng):
        rig = toy_rig(rate=0.8)
        params = SchedulerParams(horizon=3, interval=0.4, grid_pan=7,
                                 grid_tilt=5, growth=0.8, exhaustive_limit=1)
        est = estimate_collision({0: (vertical(2.0, 1.5, r=0.1), 0.7)},
                                 lambda t: [vertical(2.0, 1.6)], params)
        traj = plan([rig], est, params)
        reach = rig.max_rate * params.interval + 1e-9
        prev = (rig.pan, rig.tilt)
        for cmd in traj.commands["cam"]:
            assert abs(cmd[0] - prev[0]) <= reach
            assert abs(cmd[1] - prev[1]) <= reach
            prev = cmd


def random_problem(rng):
    """A seeded toy planning problem: 1-2 rigs, a small grid and rate, a
    horizon of 1-3 and a robot that is missing at some sampled times."""
    n_rigs = int(rng.integers(1, 3))
    rigs = []
    for c in range(n_rigs):
        rig = toy_rig(pan_range=float(rng.uniform(0.4, 1.2)),
                      tilt_range=float(rng.uniform(0.2, 0.6)),
                      rate=float(rng.choice([0.5, 1.5, 10.0])),
                      fov=float(rng.choice([120.0, 170.0])))
        rig.rig_id = f"cam{c}"
        rig.pan = float(rng.uniform(*rig.pan_limits)) if rng.random() < 0.5 else 0.0
        rigs.append(rig)
    grid = [(1, 1), (2, 1), (3, 1), (3, 2), (2, 3), (4, 2)]
    grid_pan, grid_tilt = grid[int(rng.integers(len(grid)))]
    params = SchedulerParams(horizon=int(rng.integers(1, 4)),
                             gamma=float(rng.uniform(0.5, 0.95)),
                             interval=float(rng.choice([0.25, 0.4, 0.5])),
                             grid_pan=grid_pan, grid_tilt=grid_tilt,
                             growth=float(rng.uniform(0.0, 1.0)),
                             sigma_obs=0.02,
                             sigma_cap=float(rng.choice([0.3, 1.0])),
                             exhaustive_limit=int(rng.choice([1, 2000, 10 ** 6])))
    parts = {int(j): vertical(rng.uniform(1.0, 3.0), rng.uniform(-2.0, 2.0),
                              h=float(rng.uniform(0.3, 1.6)), r=float(rng.uniform(0.03, 0.12)))
             for j in rng.choice(10, size=int(rng.integers(1, 5)), replace=False)}
    tracks = {j: (c, float(rng.uniform(0.02, 0.9))) for j, c in parts.items()}
    t0 = float(rng.uniform(0.0, 5.0))
    links_per_time = [[vertical(rng.uniform(1.0, 3.0), rng.uniform(-2.0, 2.0),
                         h=float(rng.uniform(0.5, 1.6)), r=0.07)
                for _ in range(int(rng.integers(0, 3)))]
               for _ in range(params.horizon + 2)]

    def links_at(t):
        return links_per_time[int(round((t - t0) / params.interval))]

    return rigs, tracks, links_at, params, t0


class TestReference:
    def test_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(14)
        modes = []
        for _ in range(300):
            rigs, tracks, links_at, params, t0 = random_problem(rng)
            est = estimate_collision(tracks, links_at, params, t0)
            reference.assert_same_estimate(est, reference.estimate_collision(
                tracks, links_at, params, t0))
            traj = plan(rigs, est, params)
            reference.assert_same_plan(traj, reference.plan(rigs, est, params))
            modes.append((traj.mode, len(rigs)))
        for mode in ("exhaustive", "greedy"):
            for n_rigs in (1, 2):
                assert modes.count((mode, n_rigs)) >= 20, (mode, n_rigs)

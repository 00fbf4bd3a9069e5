"""Cylinder ICP, the anchored level solve and hierarchical tree registration.

Known-transform recovery uses synthetic clouds generated from the model
itself; the SVD-step optimality check compares the closed-form update
against random rigid perturbations at fixed correspondences. The level
solve is checked bit for bit against ``icp_reference``'s per-part loop.
"""

import copy
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

import icp_reference as ref
from conftest import DIMS, rest_dofs, sample_cylinder
from mvsense import body, harness, registration, scenario
from mvsense.body import KeypartState, augment, build_tree
from mvsense.geometry import inside_any, normalize, rot_x, rot_y, rot_z
from mvsense.registration import (
    _BLOCK_ENTRIES,
    _svd_rotation,
    _trimmed_order,
    best_rigid_update,
    icp_register,
    nearest_model_search,
    register_level,
    register_tree,
    sample_cylinder_local,
)
from mvsense.simulator import pose_from_dofs


def axis_angle_deg(a, b):
    return float(np.degrees(np.arccos(np.clip(np.dot(normalize(a), normalize(b)),
                                              -1.0, 1.0))))


class TestSampleCylinder:
    def test_all_samples_on_lateral_surface(self):
        pts = sample_cylinder_local(0.05, 0.3, 200)
        rad = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(rad, 0.05, atol=1e-12)

    def test_axial_span_equals_height(self):
        pts = sample_cylinder_local(0.05, 0.3, 128)
        assert pts[:, 2].max() - pts[:, 2].min() == pytest.approx(0.3, abs=1e-9)

    def test_centroid_near_axis_midpoint(self):
        for n in (64, 256, 1024):
            pts = sample_cylinder_local(0.08, 0.4, n)
            c = pts.mean(axis=0)
            assert abs(c[2] - 0.2) < 1e-9  # z grid is symmetric
            assert np.hypot(c[0], c[1]) < 0.08 * 5.0 / n  # O(1/n) lateral bias

    def test_deterministic_for_fixed_n(self):
        a = sample_cylinder_local(0.05, 0.3, 100)
        b = sample_cylinder_local(0.05, 0.3, 100)
        assert np.array_equal(a, b)

    def test_minimum_count_enforced(self):
        with pytest.raises(ValueError):
            sample_cylinder_local(0.05, 0.3, 4)

    def test_world_samples_follow_state(self):
        st = KeypartState(2, np.array([1.0, 2.0, 3.0]),
                          normalize(np.array([1.0, 1.0, 0.0])), 0.3, 0.05)
        pts = sample_cylinder(st, 64)
        d = pts - st.base
        ax = d @ st.axis
        rad = np.sqrt(np.maximum((d * d).sum(1) - ax ** 2, 0))
        assert np.allclose(rad, 0.05, atol=1e-9)
        assert ax.min() == pytest.approx(0.0, abs=1e-9)
        assert ax.max() == pytest.approx(0.3, abs=1e-9)


class TestClosedFormUpdates:
    def test_rigid_update_recovers_transform(self, rng):
        pts = rng.uniform(-1, 1, (100, 3))
        r_true = rot_z(0.4) @ rot_x(-0.2)
        t_true = np.array([0.3, -0.1, 0.5])
        moved = pts @ r_true.T + t_true
        r, t = best_rigid_update(pts, moved)
        assert np.allclose(r, r_true, atol=1e-9)
        assert np.allclose(t, t_true, atol=1e-9)

    def test_anchored_rotation_recovers_rotation(self, rng):
        anchor = np.array([0.5, 0.5, 0.5])
        pts = rng.uniform(-1, 1, (100, 3))
        r_true = rot_y(0.3)
        moved = (pts - anchor) @ r_true.T + anchor
        # the SVD of the cross-covariance of pairs centred on a fixed point
        r = _svd_rotation((pts - anchor).T @ (moved - anchor))
        assert np.allclose(r, r_true, atol=1e-9)

    def test_svd_step_optimality_against_perturbations(self, rng):
        model = rng.uniform(-1, 1, (60, 3))
        data = model @ rot_z(0.2).T + np.array([0.1, 0.0, -0.2]) \
            + rng.normal(0, 0.01, (60, 3))
        r, t = best_rigid_update(model, data)
        best = ((model @ r.T + t - data) ** 2).sum()
        for _ in range(1000):
            axis = normalize(rng.normal(size=3))
            ang = rng.uniform(-np.radians(5), np.radians(5))
            c, s = np.cos(ang), np.sin(ang)
            vx = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                           [-axis[1], axis[0], 0]])
            r_p = (np.eye(3) + s * vx + (1 - c) * vx @ vx) @ r
            t_p = t + rng.uniform(-0.05, 0.05, 3)
            perturbed = ((model @ r_p.T + t_p - data) ** 2).sum()
            assert perturbed >= best - 1e-12


class TestNearestModelSearch:
    """The blocked matrix-product search against a KD-tree reference."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([8, 128, 160, 600]), cylinder=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from([1e-3, 0.02, 0.5]), data=st.data())
    def test_matches_kdtree_bitwise(self, m, cylinder, seed, spread, data):
        rng = np.random.default_rng(seed)
        if cylinder:
            model = sample_cylinder_local(rng.uniform(0.02, 0.3),
                                          rng.uniform(0.05, 1.0), m)
        else:
            model = rng.normal(size=(m, 3)) * rng.uniform(0.01, 2.0)
        block = 65536 // m
        # from a single row to just past three blocks
        rows = data.draw(st.integers(1, 3 * block + 1), label="rows")
        points = (model[rng.integers(m, size=rows)]
                  + rng.normal(scale=spread, size=(rows, 3)))
        idx, dist = nearest_model_search(model)(points)
        ref_dist, ref_idx = cKDTree(model).query(points)
        assert np.array_equal(idx, ref_idx)
        assert dist.tobytes() == ref_dist.tobytes()

    def test_exact_tie_goes_to_lowest_model_index(self):
        model = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                          [0.0, -1.0, 0.0], [3.0, 3.0, -3.0], [-3.0, 3.0, -3.0],
                          [3.0, -3.0, -3.0], [0.0, 1.0, 0.0]])
        points = np.array([[0.0, 0.0, 0.0],    # 0-3 tie
                           [0.0, 0.0, 5.0],    # 0-3 tie, off the plane
                           [-0.5, 0.5, 0.0],   # 1 and 2 tie
                           [-0.5, -0.5, 0.0],  # 2 and 3 tie
                           [0.0, 2.0, 0.0]])   # 1 and its duplicate 7
        idx, dist = nearest_model_search(model)(points)
        assert idx.tolist() == [0, 0, 1, 2, 1]
        assert dist.tolist() == [1.0, np.sqrt(26.0), np.sqrt(0.5), np.sqrt(0.5), 1.0]


def trimmed_order_reference(dist, trim):
    """Partition median and count_nonzero gate, kept as the oracle."""
    n = len(dist)
    keep = n
    if trim > 0 and n >= 16:
        keep = max(8, int(np.ceil(n * (1.0 - trim))))
        k = n // 2
        if n % 2:
            median = float(np.partition(dist, k)[k])
        else:
            part = np.partition(dist, (k - 1, k))
            median = float((part[k - 1] + part[k]) / 2.0)
        gate = max(3.0 * median, 0.02)
        keep = max(8, min(keep, int(np.count_nonzero(dist <= gate))))
    return np.argsort(dist, kind="stable")[:keep]


class TestTrimmedOrder:
    @settings(max_examples=300, deadline=None)
    @given(dist=hnp.arrays(np.float64, st.integers(3, 120),
                           elements=st.one_of(
                               st.sampled_from([0.0, 0.004, 0.006, 0.02, 0.5]),
                               st.floats(0.0, 2.0))),
           trim=st.sampled_from([0.0, 0.1, 0.3, 0.9]))
    def test_bitwise_equal_to_partition_formulation(self, dist, trim):
        got, kept = _trimmed_order(dist, trim)
        want = trimmed_order_reference(dist, trim)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert kept.tobytes() == dist[want].tobytes()

    @pytest.mark.parametrize("n", [8, 15, 16, 17, 40, 41])
    def test_gate_sheds_outliers_at_odd_and_even_n(self, n):
        # a quarter of the points are bleed-over far beyond 3x the median
        dist = np.full(n, 0.01)  # duplicates of the median value
        dist[::4] = 1.0
        got, kept = _trimmed_order(dist, 0.1)
        assert np.array_equal(got, trimmed_order_reference(dist, 0.1))
        assert kept.tobytes() == dist[got].tobytes()
        if n >= 16:
            assert len(got) == max(8, int(np.count_nonzero(dist < 1.0)))
        else:
            assert len(got) == n

    @pytest.mark.parametrize("values, counts, kept", [
        ((0.001, 0.02, 1.0), (12, 4, 4), 16),   # distances exactly at the 0.02 floor
        ((0.25, 0.75, 2.0), (11, 3, 6), 14),    # distances exactly at 3x the median
        ((0.125, 0.5, 1.0), (10, 5, 5), 15),    # even n: median between two values
    ])
    def test_gate_boundaries(self, values, counts, kept):
        dist = np.repeat(values, counts)
        dist = dist[np.random.default_rng(7).permutation(len(dist))]
        got, got_dist = _trimmed_order(dist, 0.1)
        assert len(got) == kept
        assert np.array_equal(got, trimmed_order_reference(dist, 0.1))
        assert got_dist.tobytes() == dist[got].tobytes()


def svd_rotation_reference(h):
    """The np.linalg.det formulation of _svd_rotation, kept as the oracle."""
    u, _s, vt = np.linalg.svd(h)
    r = vt.T @ u.T
    if np.linalg.det(r) < 0:
        r = (vt.T * [1.0, 1.0, -1.0]) @ u.T
    return r


class TestSvdRotation:
    def test_triple_product_sign_matches_det(self, rng):
        reflections = 0
        cases = [rng.normal(size=(3, 3)) * rng.choice([1e-6, 1.0, 1e6])
                 for _ in range(500)]
        cases += [np.diag([1.0, 2.0, -3.0]),      # det(h) < 0: a reflection
                  np.diag([1.0, 2.0, 0.0]),       # rank 2
                  np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0]),  # rank 1
                  np.zeros((3, 3))]
        for h in cases:
            u, _s, vt = np.linalg.svd(h)
            reflections += bool(np.linalg.det(vt.T @ u.T) < 0)
            got = _svd_rotation(h)
            assert got.tobytes() == svd_rotation_reference(h).tobytes()
            assert np.linalg.det(got) == pytest.approx(1.0, abs=1e-9)
        assert 0 < reflections < len(cases)

    def test_nan_input_raises(self):
        h = np.eye(3)
        h[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            svd_rotation_reference(h)  # the np.linalg.svd behaviour kept
        with pytest.raises(np.linalg.LinAlgError):
            _svd_rotation(h)


def noisy_cylinder_cloud(state, n, rng, tilt_deg, shift, noise):
    """``n`` samples of ``state`` tilted and shifted, with noise and bleed-over."""
    axis = normalize(rot_x(np.radians(tilt_deg)) @ state.axis)
    moved = KeypartState(state.part, state.base + shift, axis,
                         state.height, state.radius, state.frame)
    pts = sample_cylinder(moved, max(n, 8))[rng.permutation(max(n, 8))[:n]]
    pts = pts + rng.normal(0.0, noise, pts.shape)
    stray = rng.random(n) < 0.1  # far outliers for the trim gate
    pts[stray] += rng.normal(0.0, 0.3, (int(stray.sum()), 3))
    return pts


class TestMatchesReplacedStep:
    """The live search and ICP against ``icp_reference``, bit for bit.

    ``TestTrimmedOrder`` covers the trim on its own.
    """

    def test_block_product_stays_under_blas_threading_threshold(self):
        for m in range(8, _BLOCK_ENTRIES + 1):
            block = max(1, _BLOCK_ENTRIES // m)
            assert block * m * 4 <= 262144

    @settings(max_examples=80, deadline=None)
    @given(m=st.sampled_from([8, 128, 160, 600]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), data=st.data())
    def test_search(self, m, seed, scale, data):
        rng = np.random.default_rng(seed)
        model = rng.normal(size=(m, 3)) * scale
        block = _BLOCK_ENTRIES // m
        rows = data.draw(st.one_of(st.integers(1, 3 * block + 1),
                                   st.just(3 * block + 1)), label="rows")
        points = rng.normal(size=(rows, 3)) * scale
        idx, dist = nearest_model_search(model)(points)
        ref_idx, ref_dist = ref.nearest_model_search(model)(points)
        assert idx.tobytes() == ref_idx.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([8, 128, 160, 600]),
           trim=st.sampled_from([0.0, 0.1, 0.9]), seed=st.integers(0, 2**32 - 1),
           tilt=st.floats(-20.0, 20.0), data=st.data())
    def test_icp_register(self, m, trim, seed, tilt, data):
        rng = np.random.default_rng(seed)
        # the torso carries a frame that every update must move
        init = pose_from_dofs(rest_dofs(heading=rng.uniform(-3, 3)),
                              DIMS).states[body.TORSO]
        assert init.frame is not None
        block = _BLOCK_ENTRIES // m
        # below the trim's 16-point floor up to just past three blocks
        n = data.draw(st.one_of(st.integers(3, 20), st.integers(3, 3 * block + 1),
                                st.just(3 * block + 1)), label="n")
        pts = noisy_cylinder_cloud(init, n, rng, tilt, rng.normal(0.0, 0.02, 3), 0.004)
        model = sample_cylinder_local(init.radius, init.height, m)
        got = icp_register(model, pts, init, trim=trim)
        ref.assert_same_result(got, ref.icp_register(model, pts, init, trim=trim))


def random_limb(rng, part=body.L_UPPER_ARM):
    return KeypartState(part, rng.normal(size=3), normalize(rng.normal(size=3)),
                        rng.uniform(0.2, 0.45), rng.uniform(0.04, 0.1))


def level_results(inits, clouds, max_iterations=registration.MAX_ITERATIONS,
                  trim=registration.TRIM):
    """The level solve and the per-part reference on the same level,
    checked equal field by field, bit for bit; returns the solve's."""
    got = register_level(inits, clouds, max_iterations, registration.TOL, trim)
    want = ref.register_level(copy.deepcopy(inits), clouds, max_iterations,
                              registration.TOL, trim)
    assert len(got) == len(want) == len(inits)
    for g, w in zip(got, want):
        ref.assert_same_result(g, w)
    return got


class TestRegisterLevel:
    """The batched level solve against ``icp_reference``'s per-part loop."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.sampled_from([8, 15, 16, 600]), min_size=1, max_size=5),
           odd=st.sampled_from(["", "stub", "degenerate"]),
           max_iterations=st.sampled_from([1, 2, 50]),
           trim=st.sampled_from([0.0, 0.1, 0.9]))
    def test_random_levels(self, seed, sizes, odd, max_iterations, trim):
        rng = np.random.default_rng(seed)
        inits, clouds = [], []
        for n in sizes:
            init = random_limb(rng)
            inits.append(init)
            clouds.append(noisy_cylinder_cloud(init, n, rng, rng.uniform(-30.0, 30.0),
                                               np.zeros(3), 0.004))
        if odd == "stub":  # a cloud over a fifth of the length
            init = random_limb(rng)
            axial = init.base + np.outer(rng.uniform(0.0, 0.2 * init.height, 40), init.axis)
            inits.append(init)
            clouds.append(axial + rng.normal(0.0, 0.004, (40, 3)))
        elif odd == "degenerate":
            inits.append(random_limb(rng))
            clouds.append(np.tile(rng.normal(size=3), (12, 1)))
        got = level_results(inits, clouds, max_iterations, trim)
        if odd:
            assert got[-1].note == ("axial stub cloud" if odd == "stub"
                                    else "degenerate cloud")

    def test_converged_at_one_beside_the_cap(self, rng):
        exact = KeypartState(body.L_UPPER_ARM, np.zeros(3), np.array([0.0, 0.0, 1.0]),
                             0.3, 0.05)
        far = KeypartState(body.R_UPPER_LEG, np.array([0.3, 0.0, 0.0]),
                           np.array([0.0, 0.0, -1.0]), 0.42, 0.07)
        far_cloud = noisy_cylinder_cloud(far, 600, rng, 35.0, np.zeros(3), 0.004)
        got = level_results([exact, far], [sample_cylinder(exact, 16), far_cloud],
                            max_iterations=3)
        assert (got[0].iterations, got[0].converged) == (1, True)
        assert (got[1].iterations, got[1].converged) == (3, False)

    def test_cloud_on_the_axis_line_retries_its_nan_step_and_stops(self, rng, monkeypatch):
        """20 points exactly on a part's axis line, over its whole length,
        give zero normal equations, so the step is 0/0 and NaN. The NaN
        step is rejected, the damped retry is NaN again, and the part
        stops unconverged at its initial axis, while the part beside it
        goes on iterating."""
        line = KeypartState(body.L_LOWER_ARM, np.array([0.2, 0.1, 1.3]),
                            np.array([0.0, 0.0, 1.0]), 0.28, 0.04)
        on_axis = line.base + np.outer(np.linspace(0.0, line.height, 20), line.axis)
        limb = random_limb(rng)
        limb_cloud = noisy_cylinder_cloud(limb, 300, rng, 20.0, np.zeros(3), 0.004)
        frames = []  # the frames of each evaluation, one row per live part
        evaluate = registration._Stack.evaluate

        def spy(stack, at, trim):
            frames.append(np.array(at))
            return evaluate(stack, at, trim)

        monkeypatch.setattr(registration._Stack, "evaluate", spy)
        got = level_results([limb, line], [limb_cloud, on_axis])
        assert (got[1].iterations, got[1].converged, got[1].note) == (0, False, "")
        assert got[1].state.axis.tobytes() == line.axis.tobytes()
        assert got[1].residual == pytest.approx(line.radius)  # the initial RMS
        assert got[0].iterations > 2
        # the initial evaluation, then the NaN step and its NaN retry
        assert [len(f) for f in frames[:3]] == [2, 2, 2]
        assert np.isfinite(frames[0]).all()
        assert all(np.isnan(f[1]).all() and np.isfinite(f[0]).all() for f in frames[1:3])
        assert len(frames) > 3 and all(len(f) == 1 for f in frames[3:])

    @pytest.mark.parametrize("z", [0.0, -0.0])
    def test_axis_with_a_signed_zero_z(self, rng, z):
        """The tangent frame takes its sign from z, so an axis whose z is
        -0.0 gets the frame of z < 0, as ``np.copysign`` gives it: e1's z
        is x there, -x at +0.0. The solve from either matches the
        reference bit for bit."""
        axis = np.array([0.6, 0.8, z])
        frame = registration._tangent_frame(axis.tolist())
        e1, e2 = ref.tangent_basis(axis)
        assert np.array(frame[:6]).tobytes() == np.concatenate([e1, e2]).tobytes()
        assert frame[2] == (0.6 if np.signbit(z) else -0.6)
        init = KeypartState(body.R_UPPER_ARM, np.array([0.1, 0.2, 1.2]), axis, 0.3, 0.05)
        cloud = noisy_cylinder_cloud(init, 200, rng, 15.0, np.zeros(3), 0.004)
        got = level_results([init], [cloud])
        assert got[0].iterations > 0

    def test_empty_cloud(self, rng):
        init = random_limb(rng)
        got = level_results([init, init], [np.zeros((0, 3)), sample_cylinder(init, 40)])
        assert got[0].note == "empty cloud" and not got[0].converged
        assert np.array_equal(got[0].state.axis, init.axis)
        assert got[1].converged

    def test_every_level_of_template_trials(self):
        """Every level solve that 0.6 s of each template makes, at each
        configuration."""
        calls = []
        solve = registration.register_level

        def record(*args):
            calls.append(copy.deepcopy(args))
            return solve(*args)

        with mock.patch.object(registration, "register_level", record):
            for name in sorted(scenario.TEMPLATES):
                for config in ("multi-active", "single-fixed"):
                    harness.run_trial(scenario.TEMPLATES[name](seed=0, duration=0.6),
                                      config=config)
        assert len(calls) > 10
        assert sum(len(args[0]) for args in calls) > 2 * len(calls)
        for inits, clouds, *rest in calls:
            got = register_level(inits, clouds, *rest)
            want = ref.register_level(copy.deepcopy(inits), clouds, *rest)
            for g, w in zip(got, want):
                ref.assert_same_result(g, w)


def level(init, data, max_iterations=registration.MAX_ITERATIONS):
    """The level solve of one anchored part."""
    return register_level([init], [data], max_iterations, registration.TOL,
                          registration.TRIM)[0]


class TestIcpRegister:
    """The free fit on the sampled model, and the anchored level solve."""

    def _make(self, radius=0.05, height=0.3):
        st = KeypartState(2, np.zeros(3), np.array([0.0, 0.0, 1.0]), height, radius)
        model = sample_cylinder_local(radius, height, 160)
        return st, model

    def test_identity_on_exact_data(self):
        st, model = self._make()
        data = sample_cylinder(st, len(model))  # the posed model set itself
        res = level(st, data)
        assert res.converged
        assert axis_angle_deg(res.state.axis, st.axis) < 1e-6
        assert res.residual < 1e-9

    def test_recovers_rotation_about_anchor(self, rng):
        st, model = self._make()
        anchor = st.base
        r_true = rot_x(np.radians(10.0))
        data_state = KeypartState(2, anchor, normalize(r_true @ st.axis),
                                  st.height, st.radius)
        data = sample_cylinder(data_state, len(model))
        res = level(st, data)
        assert axis_angle_deg(res.state.axis, data_state.axis) < 0.5
        assert res.residual < 1e-4

    def test_noisy_recovery_monte_carlo(self):
        st, model = self._make()
        anchor = st.base
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            axis = normalize(rot_x(np.radians(12.0)) @ st.axis)
            data_state = KeypartState(2, anchor, axis, st.height, st.radius)
            data = sample_cylinder(data_state, 600)
            data = data + rng.normal(0, 0.005, data.shape)
            res = level(st, data)
            if axis_angle_deg(res.state.axis, axis) < 2.0:
                ok += 1
        assert ok >= 95

    def test_empty_cloud_returns_init_not_converged(self):
        st, model = self._make()
        res = icp_register(model, np.zeros((0, 3)), st)
        assert not res.converged
        assert np.allclose(res.state.axis, st.axis)
        assert res.note == "empty cloud"

    def test_collapsed_cloud_flagged_degenerate(self):
        st, model = self._make()
        data = np.tile(np.array([0.05, 0.0, 0.15]), (50, 1))
        res = icp_register(model, data, st)
        assert not res.converged
        assert "degenerate" in res.note

    def test_axial_stub_cloud_keeps_init(self):
        st, _model = self._make()
        stub = sample_cylinder(st, 200)
        stub = stub[stub[:, 2] < 0.25 * st.height]
        res = level(st, stub)
        assert (res.iterations, res.converged, res.note) == (0, False, "axial stub cloud")
        assert np.array_equal(res.state.axis, st.axis)

    def test_residual_monotone_over_accepted_iterations(self, rng):
        # instrument by re-running with increasing iteration caps
        st, model = self._make()
        axis = normalize(np.array([0.25, 0.1, 1.0]))
        data_state = KeypartState(2, st.base, axis, st.height, st.radius)
        data = sample_cylinder(data_state, 500) + rng.normal(0, 0.002, (500, 3))
        residuals = []
        for cap in range(1, 12):
            res = level(st, data, max_iterations=cap)
            residuals.append(res.residual)
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-12

    def test_free_icp_recovers_full_transform(self):
        st, model = self._make(radius=0.15, height=0.55)
        r_true = rot_z(0.15) @ rot_x(np.radians(8.0))
        t_true = np.array([0.02, -0.015, 0.01])
        moved = KeypartState(0, st.base + t_true, normalize(r_true @ st.axis),
                             st.height, st.radius)
        data = sample_cylinder(moved, len(model))
        res = icp_register(model, data, st)
        assert axis_angle_deg(res.state.axis, moved.axis) < 0.5
        assert np.linalg.norm(res.state.base - moved.base) < 1e-3

    def test_runtime_2000_points(self):
        st, model = self._make()
        axis = normalize(rot_x(np.radians(9.0)) @ st.axis)
        data = sample_cylinder(
            KeypartState(2, st.base, axis, st.height, st.radius), 2000)
        level(st, data)  # warm caches
        t0 = time.perf_counter()
        level(st, data)
        assert time.perf_counter() - t0 < 0.05

    def test_deterministic(self, rng):
        st, model = self._make()
        data = sample_cylinder(st, 400) + rng.normal(0, 0.004, (400, 3))
        r1 = level(st, data)
        r2 = level(st, data)
        assert np.array_equal(r1.state.axis, r2.state.axis)
        assert r1.residual == r2.residual
        assert r1.iterations == r2.iterations


class TestRegisterTree:
    def _clouds_from_pose(self, pose, parts, n=400, rng=None):
        clouds = {}
        for p in parts:
            pts = sample_cylinder(pose.states[p], n)
            if rng is not None:
                pts = pts + rng.normal(0, 0.003, pts.shape)
            clouds[p] = pts
        return clouds

    def test_full_frame_registration_accuracy(self, rng):
        dofs = rest_dofs(position=(0.2, 0.1, 0.9), heading=0.3)
        dofs[8:10] = (-0.3, -0.4)
        dofs[12:14] = (-0.2, 0.5)
        pose = pose_from_dofs(dofs, DIMS)
        tree = augment(build_tree(range(10)), pose.keypoints, DIMS)
        clouds = self._clouds_from_pose(pose, range(10), rng=rng)
        tree = register_tree(tree, clouds, DIMS)
        for p in range(10):
            st = tree.nodes[p].state
            assert st is not None
            assert axis_angle_deg(st.axis, pose.states[p].axis) < 3.0
            est_mid = st.base + st.axis * st.height * 0.5
            assert np.linalg.norm(est_mid - pose.states[p].cylinder().midpoint) < 0.03

    def test_joint_gaps_zero_after_registration(self, rng):
        pose = pose_from_dofs(rest_dofs(), DIMS)
        tree = augment(build_tree(range(10)), pose.keypoints, DIMS)
        clouds = self._clouds_from_pose(pose, range(10), rng=rng)
        tree = register_tree(tree, clouds, DIMS)
        for part, parent in body.PARENT.items():
            if parent is None:
                continue
            child = tree.nodes[part].state
            from mvsense.body import parent_joint_position
            joint = parent_joint_position(part, tree)
            assert np.linalg.norm(child.base - joint) < 1e-6

    def test_arm_only_visible_articulates_to_supplemented_torso(self):
        pose = pose_from_dofs(rest_dofs(), DIMS)
        kps = pose.keypoints
        tree = augment(build_tree([body.L_UPPER_ARM, body.L_LOWER_ARM]), kps, DIMS)
        assert tree.nodes[body.TORSO].supplemented
        clouds = self._clouds_from_pose(pose, [body.L_UPPER_ARM, body.L_LOWER_ARM])
        tree = register_tree(tree, clouds, DIMS)
        ua = tree.nodes[body.L_UPPER_ARM]
        assert ua.state is not None
        assert np.linalg.norm(ua.state.base - np.asarray(kps[body.L_SHOULDER])) < 1e-6

    def test_empty_leg_cloud_keeps_keypoint_state_with_flag(self):
        pose = pose_from_dofs(rest_dofs(), DIMS)
        tree = augment(build_tree(range(10)), pose.keypoints, DIMS)
        clouds = self._clouds_from_pose(pose, [p for p in range(10)
                                               if p != body.L_LOWER_LEG])
        tree = register_tree(tree, clouds, DIMS)
        node = tree.nodes[body.L_LOWER_LEG]
        assert node.state is not None
        assert not node.registered
        assert "empty cloud" in node.note
        # keypoint-derived init: axis along knee -> ankle
        expected = normalize(pose.keypoints[body.L_ANKLE] - pose.keypoints[body.L_KNEE])
        assert axis_angle_deg(node.state.axis, expected) < 1.0

    def test_supplemented_parts_skip_icp(self):
        pose = pose_from_dofs(rest_dofs(), DIMS)
        kps = pose.keypoints
        tree = augment(build_tree([body.TORSO, body.L_LOWER_ARM]), kps, DIMS)
        clouds = self._clouds_from_pose(pose, [body.TORSO, body.L_LOWER_ARM])
        clouds[body.L_UPPER_ARM] = sample_cylinder(pose.states[body.L_UPPER_ARM], 300)
        tree = register_tree(tree, clouds, DIMS)
        assert tree.nodes[body.L_UPPER_ARM].supplemented
        assert not tree.nodes[body.L_UPPER_ARM].registered

    def test_supplemented_upper_arm_reanchored_before_its_forearm(self, monkeypatch):
        """With the fused shoulder 5 cm off, the registered torso moves the
        shoulder; the supplemented upper arm follows it before the forearm
        is fitted, so the forearm's anchor is the upper arm's settled tip
        and stays its base."""
        pose = pose_from_dofs(rest_dofs(), DIMS)
        kps = pose.keypoints.copy()
        kps[body.L_SHOULDER] += (0.05, 0.0, 0.0)
        tree = augment(build_tree([body.TORSO, body.L_LOWER_ARM]), kps, DIMS)
        assert tree.nodes[body.L_UPPER_ARM].supplemented
        seen = {}

        def level_spy(inits, *args):
            seen.update({s.part: s.base.copy() for s in inits})
            return register_level(inits, *args)

        monkeypatch.setattr(registration, "register_level", level_spy)
        tree = register_tree(tree, self._clouds_from_pose(
            pose, [body.TORSO, body.L_LOWER_ARM]), DIMS)
        forearm = tree.nodes[body.L_LOWER_ARM].state
        assert forearm.base.tobytes() == seen[body.L_LOWER_ARM].tobytes()
        assert forearm.base.tobytes() == \
            tree.nodes[body.L_UPPER_ARM].state.tip.tobytes()

    def test_hierarchical_determinism(self, rng):
        pose = pose_from_dofs(rest_dofs(), DIMS)
        kps = pose.keypoints
        clouds = self._clouds_from_pose(pose, range(10), rng=rng)

        def run():
            tree = augment(build_tree(range(10)), kps, DIMS)
            return register_tree(tree, {k: v.copy() for k, v in clouds.items()}, DIMS)

        t1, t2 = run(), run()
        assert t1.traversal() == t2.traversal()
        for p in range(10):
            s1, s2 = t1.nodes[p].state, t2.nodes[p].state
            assert np.array_equal(s1.base, s2.base)
            assert np.array_equal(s1.axis, s2.axis)

    def test_torso_alone_on_the_sampled_model_built_once(self, monkeypatch):
        pose = pose_from_dofs(rest_dofs(), DIMS)
        kps = pose.keypoints
        clouds = self._clouds_from_pose(pose, range(10))
        models, levels = [], []

        def spy(model_local, data, init):
            models.append(model_local)
            assert init.part == body.TORSO
            return icp_register(model_local, data, init)

        def level_spy(inits, *args):
            levels.append([s.part for s in inits])
            return register_level(inits, *args)

        monkeypatch.setattr(registration, "icp_register", spy)
        monkeypatch.setattr(registration, "register_level", level_spy)
        for _ in range(2):
            register_tree(augment(build_tree(range(10)), kps, DIMS), clouds, DIMS)
        assert len(models) == 2 and models[0] is models[1]
        assert levels == [[1, 2, 4, 6, 8], [3, 5, 7, 9]] * 2
        state = pose.states[body.TORSO]
        assert np.array_equal(models[0],
                              sample_cylinder_local(state.radius, state.height, 128))
        with pytest.raises(ValueError):
            models[0][0, 0] = 1.0

    def test_siblings_strip_only_against_earlier_levels(self, monkeypatch):
        """A level-1 cloud loses only what the torso explains, though it
        holds points of the settled head, its sibling; a shin one level
        down loses the head's points too."""
        pose = pose_from_dofs(rest_dofs(), DIMS)
        clouds = self._clouds_from_pose(pose, range(10))
        head_points = sample_cylinder(pose.states[body.HEAD], 50)
        for part in (body.L_UPPER_LEG, body.L_LOWER_LEG):
            clouds[part] = np.vstack([clouds[part], head_points])
        tree, seen = self._register_spying(monkeypatch, pose, clouds)
        assert tree.nodes[body.HEAD].registered
        torso = tree.nodes[body.TORSO].state.cylinder()
        thigh = clouds[body.L_UPPER_LEG]
        expected = thigh[~inside_any([torso], thigh, [torso.radius + 0.025])]
        assert np.array_equal(seen[body.L_UPPER_LEG][1], expected)
        assert len(seen[body.L_UPPER_LEG][1]) > len(thigh) - 50
        assert len(seen[body.L_LOWER_LEG][1]) <= len(clouds[body.L_LOWER_LEG]) - 50

    @staticmethod
    def _arm_in_torso(pose, kept: int):
        """Clouds of every part, the left upper arm's replaced by points deep
        inside the torso plus ``kept`` points of the arm's outer side,
        spread along it."""
        clouds = {p: sample_cylinder(pose.states[p], 400) for p in range(10)}
        torso = pose.states[body.TORSO]
        core = KeypartState(body.TORSO, torso.base + 0.1 * torso.height * torso.axis,
                            torso.axis, 0.8 * torso.height, 0.5 * torso.radius)
        arm = clouds[body.L_UPPER_ARM]
        outer = arm[~inside_any([torso.cylinder()], arm, [torso.radius + 0.06])]
        outer = outer[np.argsort(outer @ pose.states[body.L_UPPER_ARM].axis)]
        picks = np.linspace(0, len(outer) - 1, kept).astype(int)
        clouds[body.L_UPPER_ARM] = np.vstack([sample_cylinder(core, 200), outer[picks]])
        return clouds, outer[picks]

    def _register_spying(self, monkeypatch, pose, clouds):
        """Register the whole tree; returns it and, per part, the init and
        cloud that its level solve was given."""
        seen = {}

        def level_spy(inits, data, *args):
            seen.update({s.part: (s, d) for s, d in zip(inits, data)})
            return register_level(inits, data, *args)

        monkeypatch.setattr(registration, "register_level", level_spy)
        tree = register_tree(augment(build_tree(range(10)), pose.keypoints, DIMS),
                             clouds, DIMS)
        return tree, seen

    def test_bleed_over_stripped_however_few_points_remain(self, monkeypatch):
        """A cloud that lies inside the settled torso but for five points
        is fitted on those five alone, not on the torso's points."""
        pose = pose_from_dofs(rest_dofs(), DIMS)
        clouds, remainder = self._arm_in_torso(pose, 5)
        tree, seen = self._register_spying(monkeypatch, pose, clouds)
        _init, data = seen[body.L_UPPER_ARM]
        assert np.array_equal(data, remainder)
        assert tree.nodes[body.L_UPPER_ARM].registered

    @pytest.mark.parametrize("cloud", ["inside the torso", "absent"])
    def test_empty_cloud_keeps_keypoint_state(self, monkeypatch, cloud):
        """A part left with no points after stripping, or given none, goes
        to the level solve with an empty cloud, and keeps its
        keypoint-initialized state, unregistered, with the solver's note."""
        pose = pose_from_dofs(rest_dofs(), DIMS)
        clouds, _ = self._arm_in_torso(pose, 0)
        if cloud == "absent":
            del clouds[body.L_UPPER_ARM]
        tree, seen = self._register_spying(monkeypatch, pose, clouds)
        init, data = seen[body.L_UPPER_ARM]
        assert data.shape == (0, 3)
        node = tree.nodes[body.L_UPPER_ARM]
        assert (node.registered, node.note) == (False, "empty cloud")
        assert node.state.axis.tobytes() == init.axis.tobytes()
        assert node.state.base.tobytes() == init.base.tobytes()

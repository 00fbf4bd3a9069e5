"""Hot-kernel benchmarks on frozen, seeded inputs (pytest-benchmark).

Each benchmark times one kernel with a fixed round count, so the suite
grows by seconds only, and checks the timed result against its oracle:
the ICP kernels and the anchored level solve bit for bit against
``icp_reference``; the depth render against ``render_reference``'s
per-cylinder simulator, with the same hit pixels and depths within
1e-9 m; a camera's trapezoids bit for bit against
``keypoints_reference``'s per-keypoint anchors and per-part steps; mask
painting and cloud extraction bit for bit against the per-box and
full-image references of ``test_keyparts`` (the full-image one tests the
lift stride at every pixel, so at 640x480 both lift the same pixels);
tree registration bit for bit against ``icp_reference.register_tree``;
and the scheduler's collision estimate and plan bit for bit against
``scheduler_reference``. Sizes follow the traced workloads:
``register_tree`` caps a cloud at 600; level solves, renders,
trapezoids, masks, extractions and tree registrations are the calls that
short template trials make at 144x112 (desk-sweep) and 640x480
(hires-fixed), and scheduler calls those of one-second template trials
at multi-active and 144x112, or at single-active for the exhaustive
search.

    PYTHONPATH=src python -m pytest tests/test_kernels.py --benchmark-only
"""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest

import icp_reference as ref
import keypoints_reference
import scheduler_reference
from conftest import DIMS, hires, rest_dofs, sample_cylinder
from render_reference import assert_matches_reference, render_depth_reference
from test_keyparts import paint_masks_reference, quiet_reference, same_clouds, same_mask
from mvsense import body, harness, keyparts, registration, scenario, scheduler, simulator
from mvsense.body import KeypartState
from mvsense.geometry import normalize, rot_x, rot_z
from mvsense.registration import icp_register, nearest_model_search, sample_cylinder_local
from mvsense.simulator import pose_from_dofs

ROUNDS = 20
MODEL_SAMPLES = registration.MODEL_SAMPLES
SIZES = [(144, 112), (640, 480)]
EXHAUSTIVE_PLANS = 6  # replayed plans at single-active, each searched exhaustively


def cloud(state: KeypartState, n: int, seed: int) -> np.ndarray:
    """``n`` noisy samples of ``state`` turned 10 degrees, a tenth of them bleed-over."""
    rng = np.random.default_rng(seed)
    moved = KeypartState(state.part, state.base + rng.normal(0.0, 0.01, 3),
                         normalize(rot_z(0.3) @ rot_x(np.radians(10.0)) @ state.axis),
                         state.height, state.radius)
    pts = sample_cylinder(moved, n) + rng.normal(0.0, 0.004, (n, 3))
    pts[::10] += rng.normal(0.0, 0.2, (len(pts[::10]), 3))
    return pts


def limb():
    return KeypartState(body.L_UPPER_ARM, np.array([0.2, 0.1, 1.3]),
                        normalize(np.array([0.1, -0.2, -1.0])), 0.3, 0.05)


def torso():
    return pose_from_dofs(rest_dofs(position=(0.2, 0.1, 0.9), heading=0.3),
                          DIMS).states[body.TORSO]


def test_icp_register_free(benchmark):
    init = torso()
    model = sample_cylinder_local(init.radius, init.height, MODEL_SAMPLES)
    data = cloud(init, 600, seed=600)
    got = benchmark.pedantic(icp_register, args=(model, data, init),
                             rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert got.iterations > 1
    ref.assert_same_result(got, ref.icp_register(model, data, init))


def test_nearest_model_search(benchmark):
    init = limb()
    model = sample_cylinder_local(init.radius, init.height, MODEL_SAMPLES)
    points = cloud(init, 600, seed=1) - init.base
    search = nearest_model_search(model)
    idx, dist = benchmark.pedantic(search, args=(points,), rounds=10 * ROUNDS,
                                   iterations=1, warmup_rounds=1)
    ref_idx, ref_dist = ref.nearest_model_search(model)(points)
    assert idx.tobytes() == ref_idx.tobytes()
    assert dist.tobytes() == ref_dist.tobytes()


def captured_calls(module, function, size, duration, config="multi-fixed"):
    """The arguments, copied as passed, of every ``module.function`` call
    that each template makes in ``duration`` seconds at ``config`` with
    ``size`` cameras."""
    calls = []
    original = getattr(module, function)

    def record(*args):
        calls.append(copy.deepcopy(args))
        return original(*args)

    with mock.patch.object(module, function, record):
        for name in sorted(scenario.TEMPLATES):
            script = scenario.TEMPLATES[name](seed=0, duration=duration)
            script.cameras = [hires(cam, *size) for cam in script.cameras]
            harness.run_trial(script, config=config)
    return calls


def captured_renders(size):
    """(rig, cylinders) of every ``render_depth`` call that two frames of
    each template make at multi-fixed with ``size`` cameras."""
    return [(rig, cylinders) for rig, cylinders, _noise, _rng
            in captured_calls(simulator, "render_depth", size, 0.2)]


def timed(benchmark, function, calls):
    return benchmark.pedantic(lambda: [function(*args) for args in calls],
                              rounds=ROUNDS, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("size", SIZES)
def test_render_depth(benchmark, size):
    frames = captured_renders(size)
    got = timed(benchmark, simulator.render_depth, frames)
    assert len(got) == len(frames) > 0
    for depth, frame in zip(got, frames):
        assert_matches_reference(depth, render_depth_reference(*frame))


# a cold presence window holds every part absent on the first frame, so
# four frames (0.4 s) paint and extract on three
@pytest.mark.parametrize("size", SIZES)
def test_project_keypoints_to_mask(benchmark, size):
    calls = captured_calls(keyparts, "project_keypoints_to_mask", size, 0.4)
    got = timed(benchmark, keyparts.project_keypoints_to_mask, calls)
    assert len(got) == len(calls) > 0
    assert sum(len(trapezoids) for trapezoids in got) > 0
    for trapezoids, (fused, *rest) in zip(got, calls):
        rows = {kp: fused[kp] for kp in range(body.NUM_KEYPOINTS) if not np.isnan(fused[kp, 0])}
        keypoints_reference.assert_same_trapezoids(
            trapezoids, keypoints_reference.trapezoids(rows, *rest))


@pytest.mark.parametrize("size", SIZES)
def test_paint_masks(benchmark, size):
    calls = captured_calls(keyparts, "paint_masks", size, 0.4)
    got = timed(benchmark, keyparts.paint_masks, calls)
    assert len(got) == len(calls) > 0
    assert sum(int((mask.labels != keyparts.BACKGROUND).sum()) for mask in got) > 0
    for mask, args in zip(got, calls):
        assert same_mask(mask, paint_masks_reference(*args))


@pytest.mark.parametrize("size", SIZES)
def test_extract_clouds(benchmark, size):
    calls = captured_calls(keyparts, "extract_clouds", size, 0.4)
    got = timed(benchmark, keyparts.extract_clouds, calls)
    assert len(got) == len(calls) > 0
    assert sum(len(cloud.points) for clouds in got for cloud in clouds) > 0
    for clouds, args in zip(got, calls):
        assert same_clouds(clouds, quiet_reference(*args))


@pytest.mark.parametrize("size", SIZES)
def test_register_level(benchmark, size):
    calls = captured_calls(registration, "register_level", size, 0.4)
    got = timed(benchmark, registration.register_level, calls)
    assert len(got) == len(calls) > 0
    assert sum(result.iterations for results in got for result in results) > len(calls)
    for results, (inits, clouds, *rest) in zip(got, calls):
        for result, want in zip(results, ref.register_level(inits, clouds, *rest)):
            ref.assert_same_result(result, want)


@pytest.mark.parametrize("size", SIZES)
def test_register_tree(benchmark, size):
    calls = captured_calls(registration, "register_tree", size, 0.4)

    def fresh_trees():
        # register_tree registers the tree it is given in place
        return ([(copy.deepcopy(tree), *rest) for tree, *rest in calls],), {}

    got = benchmark.pedantic(
        lambda rounds: [registration.register_tree(*args) for args in rounds],
        setup=fresh_trees, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert len(got) == len(calls) > 0
    assert sum(node.registered for tree in got for node in tree.nodes.values()) > 0
    for tree, (want, *rest) in zip(got, calls):
        ref.assert_same_tree(tree, ref.register_tree(copy.deepcopy(want), *rest))


# the scheduler runs only with steerable cameras; tracking starts once a
# part is present, so one second of each template yields several plans
def test_estimate_collision(benchmark):
    calls = captured_calls(scheduler, "estimate_collision", SIZES[0], 1.0, "multi-active")
    got = timed(benchmark, scheduler.estimate_collision, calls)
    assert len(got) == len(calls) > 0
    for estimate, args in zip(got, calls):
        scheduler_reference.assert_same_estimate(
            estimate, scheduler_reference.estimate_collision(*args))


def test_plan(benchmark):
    calls = captured_calls(scheduler, "plan", SIZES[0], 1.0, "multi-active")
    got = timed(benchmark, scheduler.plan, calls)
    assert len(got) == len(calls) > 0
    for traj, args in zip(got, calls):
        scheduler_reference.assert_same_plan(traj, scheduler_reference.plan(*args))


def test_plan_exhaustive(benchmark):
    """Single-active plans with ``exhaustive-limit`` raised to their joint
    product, so the search keeps every option."""
    calls = []
    for rigs, estimate, params in captured_calls(
            scheduler, "plan", SIZES[0], 1.0, "single-active")[:EXHAUSTIVE_PLANS]:
        tables = [scheduler_reference._CameraTable(rig, params, estimate.positions)
                  for rig in rigs]
        joint = int(np.prod([len(t.reachable_from(t.hold)) for t in tables])) \
            ** (params.horizon + 1)
        calls.append((rigs, estimate, dataclasses.replace(params, exhaustive_limit=joint)))
    got = timed(benchmark, scheduler.plan, calls)
    assert len(got) == len(calls) > 0
    for traj, args in zip(got, calls):
        assert traj.mode == "exhaustive"
        scheduler_reference.assert_same_plan(traj, scheduler_reference.plan(*args))

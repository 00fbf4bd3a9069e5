"""Hot-kernel benchmarks on frozen, seeded inputs (pytest-benchmark).

Each benchmark times one kernel with a fixed round count, so the suite
grows by seconds only, and asserts that the timed result is bitwise equal
to its oracle in ``icp_reference``. Sizes follow the traced workloads: a
desk-sweep limb cloud averages about 133 points, and ``register_tree``
caps a cloud at 600.

    PYTHONPATH=src python -m pytest tests/test_kernels.py --benchmark-only
"""

import numpy as np
import pytest

import icp_reference as ref
from conftest import rest_dofs, sample_cylinder
from mvsense import body
from mvsense.body import KeypartState, pose_from_dofs
from mvsense.geometry import normalize, rot_x, rot_z
from mvsense.registration import icp_register, nearest_model_search, sample_cylinder_local

ROUNDS = 20
MODEL_SAMPLES = 128  # the ``model-samples`` default


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
    return pose_from_dofs(rest_dofs(position=(0.2, 0.1, 0.9), heading=0.3)).states[body.TORSO]


@pytest.mark.parametrize("n", [133, 600])
def test_icp_register_anchored(benchmark, n):
    init = limb()
    model = sample_cylinder_local(init.radius, init.height, MODEL_SAMPLES)
    data = cloud(init, n, seed=n)
    got = benchmark.pedantic(icp_register, args=(model, data, init, init.base),
                             rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert got.iterations > 1
    ref.assert_same_result(got, ref.icp_register(model, data, init, init.base))


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

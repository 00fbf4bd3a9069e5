"""The registration steps that ``mvsense.registration`` replaced, kept as bitwise oracles.

``nearest_model_search``, ``_trimmed_order`` and ``icp_register`` are the
bodies from before ``|m|^2`` was folded into the correspondence product,
the kept distances were gathered once per trim and the SVD went to
LAPACK directly; ``_svd_rotation`` calls ``np.linalg.svd``, and
``_apply_update`` copies the state before it moves it. ``icp_register``
poses the model pairs of every evaluated state, the rejected last one
too. It is the free fit the torso takes.

``register_level`` is the anchored level solve as a loop over the parts,
one part at a time: the same Gauss-Newton step on the analytic cylinder,
with each part's trim from ``registration._trimmed_order`` and each sum
taken one term after another in point order, as ``np.bincount`` adds.

``register_tree`` is the level walk from before each part's sampled model
was cached and the bleed-over test became one stacked pass: it samples
the torso's model on every call and strips bleed-over with one
``contains`` per settled cylinder, and it registers through this file's
``icp_register`` and ``register_level``; its keypoint table is the
tree's (17, 3) array, as in the live code. It seeds each part from
``body.initial_state`` and writes each level into the table inline (the
torso's anchors, each fitted part's tip), calling
``body.enforce_joint_constraints`` once at the end, where the live code
calls it after every level: on a tree with no supplemented node the two
must agree. ``contains`` is the
per-cylinder point test that ``geometry.Cylinder`` had before
``geometry.inside_any`` became the one containment test. The live code
must give the same bits on every input.
"""

import math

import numpy as np

from mvsense import body
from mvsense.body import BodyTree, KeypartState, PartDimensions
from mvsense.geometry import _cross, frame_from_axis, normalize, rotation_between
from mvsense.registration import (
    DAMPING,
    LEVELS,
    MAX_ITERATIONS,
    MODEL_SAMPLES,
    TOL,
    TRIM,
    ICPResult,
    _trimmed_order as live_trimmed_order,
    sample_cylinder_local,
)

_BLOCK_ENTRIES = 65536


def nearest_model_search(model_local: np.ndarray):
    neg2_t = np.ascontiguousarray(-2.0 * model_local.T)
    sq = (model_local * model_local).sum(axis=1)
    block = max(1, _BLOCK_ENTRIES // len(model_local))

    def search(points: np.ndarray):
        n = len(points)
        idx = np.empty(n, dtype=np.intp)
        # one score buffer per call: a fresh block-sized array per block
        # costs more in page faults than the product itself
        buf = np.empty((min(block, n), len(sq)))
        for start in range(0, n, block):
            rows = points[start:start + block]
            scores = np.matmul(rows, neg2_t, out=buf[:len(rows)])
            scores += sq
            scores.argmin(axis=1, out=idx[start:start + block])
        diff = points - model_local.take(idx, axis=0)
        diff *= diff
        dist = diff[:, 0] + diff[:, 1]
        dist += diff[:, 2]
        return idx, np.sqrt(dist, out=dist)

    return search


def _trimmed_order(dist: np.ndarray, trim: float) -> np.ndarray:
    n = len(dist)
    order = np.argsort(dist, kind="stable")
    if trim <= 0 or n < 16:
        return order
    ranked = dist[order]
    k = n // 2
    median = ranked[k] if n % 2 else (ranked[k - 1] + ranked[k]) / 2.0
    gate = max(3.0 * float(median), 0.02)
    within = int(np.searchsorted(ranked, gate, side="right"))
    keep = max(8, min(math.ceil(n * (1.0 - trim)), within))
    return order[:keep]


def _svd_rotation(h: np.ndarray) -> np.ndarray:
    u, _s, vt = np.linalg.svd(h)
    r = vt.T @ u.T
    r0, r1, r2 = r.tolist()
    c = _cross(r1, r2)
    if r0[0] * c[0] + r0[1] * c[1] + r0[2] * c[2] < 0:
        # det(r) < 0, a reflection: flip the weakest direction
        r = (vt.T * [1.0, 1.0, -1.0]) @ u.T
    return r


def best_rigid_update(model_pts: np.ndarray, data_pts: np.ndarray):
    n = len(model_pts)
    mc = model_pts.sum(axis=0) / n
    dc = data_pts.sum(axis=0) / n
    h = (model_pts - mc).T @ (data_pts - dc)
    r = _svd_rotation(h)
    return r, dc - r @ mc


def _apply_update(state: KeypartState, r: np.ndarray, t: np.ndarray) -> KeypartState:
    new = state.copy()
    new.base = r @ state.base + t
    new.axis = normalize(r @ state.axis)
    if state.frame is not None:
        spin_free = rotation_between(state.axis, new.axis)
        new.frame = spin_free @ state.frame
    return new


def icp_register(model_local: np.ndarray, data_pts: np.ndarray,
                 init: KeypartState, max_iterations: int = MAX_ITERATIONS,
                 tol: float = TOL, trim: float = TRIM) -> ICPResult:
    data_pts = np.asarray(data_pts, dtype=np.float64)
    if len(data_pts) == 0:
        return ICPResult(init.copy(), 0, np.inf, False, "empty cloud")
    span = data_pts.max(axis=0) - data_pts.min(axis=0) if len(data_pts) > 1 else np.zeros(3)
    if len(data_pts) < 3 or np.linalg.norm(span) < 1e-9:
        return ICPResult(init.copy(), 0, np.inf, False, "degenerate cloud")

    state = init.copy()
    nearest = nearest_model_search(model_local)

    def evaluate(s: KeypartState):
        """Trimmed nearest-model-point pairs (model, data) and their RMS distance."""
        frame = frame_from_axis(s.axis)
        idx, dist = nearest((data_pts - s.base) @ frame)
        order = _trimmed_order(dist, trim)
        kept = dist[order] ** 2
        return (s.base + model_local[idx[order]] @ frame.T, data_pts[order],
                float(np.sqrt(kept.sum() / len(kept))))

    m, d, residual = evaluate(state)
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        r, t = best_rigid_update(m, d)
        candidate = _apply_update(state, r, t)

        cand_m, cand_d, cand_residual = evaluate(candidate)
        if cand_residual > residual + 1e-12:
            # reject the step; a rejection within tolerance is a fixed point
            converged = (cand_residual - residual) < tol
            break
        improvement = residual - cand_residual
        state, m, d, residual = candidate, cand_m, cand_d, cand_residual
        iterations += 1
        if improvement < tol:
            converged = True
            break

    return ICPResult(state, iterations, float(residual), converged)


def sequential_sum(values: np.ndarray) -> float:
    """The sum of ``values`` added one after another from 0.0, in order."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def tangent_basis(axis: np.ndarray):
    """(e1, e2) across a unit axis, Duff et al.'s branchless basis."""
    x, y, z = axis
    sign = np.copysign(1.0, z)
    c = -1.0 / (sign + z)
    d = x * y * c
    return (np.array([1.0 + sign * x * x * c, sign * d, -sign * x]),
            np.array([d, sign + y * y * c, -y]))


def evaluate_part(y: np.ndarray, axis: np.ndarray, height: float, radius: float,
                  trim: float):
    """A part's trimmed RMS distance to its lateral surface at ``axis``,
    the tangent basis there and the normal equations in it; ``y`` is the
    (3, n) cloud centred on the anchor."""
    e1, e2 = tangent_basis(axis)
    g1 = e1[0] * y[0] + e1[1] * y[1] + e1[2] * y[2]
    g2 = e2[0] * y[0] + e2[1] * y[1] + e2[2] * y[2]
    s = axis[0] * y[0] + axis[1] * y[1] + axis[2] * y[2]
    r = np.sqrt(g1 * g1 + g2 * g2)
    f1 = r - radius
    f2 = s - np.minimum(np.maximum(s, 0.0), height)
    dist = np.sqrt(f1 * f1 + f2 * f2)
    order, _ranked = live_trimmed_order(dist, trim)
    kept = np.zeros(len(dist), dtype=bool)
    kept[order] = True
    rms = np.sqrt(sequential_sum(np.where(kept, dist * dist, 0.0)) / len(order))
    c1 = -s / np.maximum(r, 1e-12)
    w = np.where(kept, c1 * c1 + (f2 != 0.0), 0.0)
    q = np.where(kept, c1 * f1 + f2, 0.0)
    normal = (sequential_sum(w * g1 * g1), sequential_sum(w * g1 * g2),
              sequential_sum(w * g2 * g2), sequential_sum(q * g1),
              sequential_sum(q * g2))
    return rms, (e1, e2), normal


def register_part(init: KeypartState, data_pts: np.ndarray, max_iterations: int,
                  tol: float, trim: float) -> ICPResult:
    """One anchored part on its own, by the level solve's rules."""
    data_pts = np.asarray(data_pts, dtype=np.float64)
    if len(data_pts) == 0:
        return ICPResult(init.copy(), 0, np.inf, False, "empty cloud")
    span = data_pts.max(axis=0) - data_pts.min(axis=0) if len(data_pts) > 1 else np.zeros(3)
    if len(data_pts) < 3 or np.linalg.norm(span) < 1e-9:
        return ICPResult(init.copy(), 0, np.inf, False, "degenerate cloud")
    # a stub covering a small axial fraction cannot fix a rotation
    axial = data_pts @ init.axis
    if float(axial.max() - axial.min()) < 0.3 * init.height:
        return ICPResult(init.copy(), 0, np.inf, False, "axial stub cloud")

    y = (data_pts - init.base).T
    axis = np.array(init.axis, dtype=np.float64)
    residual, (e1, e2), normal = evaluate_part(y, axis, init.height, init.radius, trim)
    iterations = 0
    converged = False
    damped = retried = False
    for _ in range(max_iterations):
        a11, a12, a22, b1, b2 = normal
        lam = DAMPING * 0.5 * (a11 + a22) if damped else 0.0
        a11 = a11 + lam
        a22 = a22 + lam
        with np.errstate(divide="ignore", invalid="ignore"):
            det = np.float64(a11) * a22 - a12 * a12
            d1 = (a12 * b2 - a22 * b1) / det
            d2 = (a12 * b1 - a11 * b2) / det
        step = axis + d1 * e1 + d2 * e2
        norm = np.sqrt(step[0] * step[0] + step[1] * step[1] + step[2] * step[2])
        candidate = step / norm
        cand_residual, cand_basis, cand_normal = evaluate_part(
            y, candidate, init.height, init.radius, trim)
        rise = cand_residual - residual
        if rise <= 1e-12:
            axis, residual, (e1, e2), normal = candidate, cand_residual, cand_basis, cand_normal
            iterations += 1
            damped = False
            if -rise < tol:
                converged = True
                break
        elif rise < tol:
            converged = True  # a rejection within tolerance is a fixed point
            break
        elif retried:
            break
        else:
            damped = retried = True
    return ICPResult(KeypartState(init.part, init.base.copy(), axis, init.height,
                                  init.radius),
                     iterations, float(residual), converged)


def register_level(inits: list, clouds: list, max_iterations: int, tol: float,
                   trim: float) -> list:
    return [register_part(init, data, max_iterations, tol, trim)
            for init, data in zip(inits, clouds)]


def contains(cylinder, points: np.ndarray, radial_margin: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside the cylinder inflated by ``radial_margin``."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64)) - cylinder.base
    ax = p @ cylinder.axis
    radial2 = np.einsum("ij,ij->i", p, p) - ax * ax
    r = cylinder.radius + radial_margin
    return (ax >= 0.0) & (ax <= cylinder.height) & (radial2 <= r * r)


def register_tree(tree: BodyTree, clouds: dict, dims: PartDimensions) -> BodyTree:

    settled = []  # confidently registered cylinders, used to strip bleed-over
    for level in LEVELS:
        fits = []  # (part, init, cloud) of the parts this level registers
        for part in level:
            node = tree.nodes[part]
            if not node.active:
                continue
            if node.supplemented:
                node.registered = False  # keypoint-derived state only
                continue
            state = body.initial_state(part, tree, dims)
            if state is None:
                node.note = "no keypoint initialization available"
                node.state = None
                continue
            node.state = state
            data = np.asarray(clouds.get(part, np.empty((0, 3))), dtype=np.float64)
            if len(data) > 600:  # registration accuracy saturates well below this
                data = data[:: len(data) // 600 + 1]
            # points explained by parts settled in earlier levels are bleed-over,
            # stripped however few remain
            keep = np.ones(len(data), dtype=bool)
            for cyl in settled:
                keep &= ~contains(cyl, data, radial_margin=0.025)
            fits.append((part, state, data[keep]))

        for part, state, data in fits:
            if part == body.TORSO:
                model_local = sample_cylinder_local(state.radius, state.height,
                                                    MODEL_SAMPLES)
                result = icp_register(model_local, data, state)
            else:
                result = register_part(state, data, MAX_ITERATIONS, TOL, TRIM)
            node = tree.nodes[part]
            node.state = result.state
            node.registered = result.converged or result.iterations > 0
            if result.note:
                node.note = result.note
            if node.registered and result.residual < 0.05:
                settled.append(node.state.cylinder())

        # propagate the refined poses into the shared keypoint table
        for part, _state, _data in fits:
            state = tree.nodes[part].state
            if part == body.TORSO:
                tree.keypoints[body.TORSO_ROWS] = body.torso_anchor_points(state, dims)
            else:
                distal = body.DISTAL_KEYPOINT.get(part)
                if distal is not None:
                    tree.keypoints[distal] = state.tip

    return body.enforce_joint_constraints(tree, dims)


def assert_same_result(got: ICPResult, ref: ICPResult) -> None:
    """Every field of two ICP results, state arrays compared by their bytes."""
    assert got.state.base.tobytes() == ref.state.base.tobytes()
    assert got.state.axis.tobytes() == ref.state.axis.tobytes()
    assert (got.state.frame is None) == (ref.state.frame is None)
    if ref.state.frame is not None:
        assert got.state.frame.tobytes() == ref.state.frame.tobytes()
    assert (got.state.part, got.state.height, got.state.radius) == \
        (ref.state.part, ref.state.height, ref.state.radius)
    assert float(got.residual).hex() == float(ref.residual).hex()
    assert (got.iterations, got.converged, got.note) == \
        (ref.iterations, ref.converged, ref.note)


def assert_same_tree(got, want) -> None:
    """Every node's state (arrays by their bytes), ``registered`` flag and
    note, and the keypoint table, NaN rows included, of two registered
    trees."""
    assert got.nodes.keys() == want.nodes.keys()
    for part, node in want.nodes.items():
        other = got.nodes[part]
        assert (other.registered, other.note) == (node.registered, node.note), part
        assert (other.state is None) == (node.state is None), part
        if node.state is not None:
            for name in ("base", "axis"):
                assert getattr(other.state, name).tobytes() == \
                    getattr(node.state, name).tobytes(), (part, name)
            assert (other.state.frame is None) == (node.state.frame is None), part
            if node.state.frame is not None:
                assert other.state.frame.tobytes() == node.state.frame.tobytes(), part
            assert (other.state.part, other.state.height, other.state.radius) == \
                (node.state.part, node.state.height, node.state.radius), part
    assert got.keypoints.tobytes() == want.keypoints.tobytes()

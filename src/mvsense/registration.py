"""Cylinder-model ICP executed in hierarchical tree order.

Each keypart cylinder is registered to its extracted cloud by iterating
nearest-neighbor correspondences (every data point to its closest model
point) and a closed-form SVD update. The model is small (``model-samples``,
128 by default) and changes with every call, so correspondences come from
a blocked matrix product against all model points rather than from a
spatial index built per call. The torso refines with a free rigid
update; every child part is anchored at its parent joint, so its update
is a pure rotation about that anchor and articulation is preserved by
construction. Keypoint-derived poses provide the initial coarse state,
and supplemented nodes (no cloud exists for them) skip ICP entirely.
An iteration on a few hundred points costs mostly numpy calls, so it makes
few: one product per block, one gather per trim, LAPACK's SVD directly.
The tree walk likewise builds each part's sampled model once per shape
and strips bleed-over against every settled part in one stacked pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd

from . import body
from .body import BodyTree, KeypartState, PartDimensions
from .geometry import _cross, frame_from_axis, inside_any, normalize, rotation_between

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def sample_cylinder_local(radius: float, height: float, n: int) -> np.ndarray:
    """Deterministic quasi-uniform lateral-surface samples, axis = +z.

    Golden-angle helix: axial coordinate spans [0, height] exactly, every
    sample sits at ``radius`` from the axis.
    """
    if n < 8:
        raise ValueError("need at least 8 samples")
    i = np.arange(n, dtype=np.float64)
    z = height * i / (n - 1)
    ang = i * GOLDEN_ANGLE
    return np.column_stack([radius * np.cos(ang), radius * np.sin(ang), z])


@functools.lru_cache(maxsize=128)
def _cylinder_model(radius: float, height: float, n: int) -> np.ndarray:
    """``sample_cylinder_local(radius, height, n)``, built once per shape.

    Every call with the same shape returns the same array, made read-only
    so that no caller can change what the next one reads.
    """
    model = sample_cylinder_local(radius, height, n)
    model.flags.writeable = False
    return model


@dataclass
class ICPResult:
    state: KeypartState
    iterations: int
    residual: float
    converged: bool
    note: str = ""


# Score-matrix entries per block of the correspondence search: a block's
# (rows, 4) x (4, M) product has rows * M * 4 <= 262144, OpenBLAS's dgemm
# threading threshold (it splits only above it), so no thread start-up,
# which costs more than the product on 2 cores; memory stays bounded too.
_BLOCK_ENTRIES = 65536


def nearest_model_search(model_local: np.ndarray):
    """Build ``search(points) -> (idx, dist)``: each point's nearest model point.

    The search is exhaustive: per block of rows, the argmin over
    ``|m|^2 - 2 p.m`` (the squared distance less ``|p|^2``) from one
    product of ``[p, 1]`` with ``-2 m^T`` stacked over the row ``|m|^2``.
    Its last step adds ``1.0 * |m|^2``, an exact product, so it rounds like
    the separate ``scores += |m|^2`` it replaces and the scores keep their
    bits; with K = 4 a block stays at the ``_BLOCK_ENTRIES`` bound. Among
    model points with equal scores the lowest index wins. Distances are
    recomputed from the chosen pairs as ``sqrt(dx*dx + dy*dy + dz*dz)``,
    summed in that order, so they carry no cancellation error.
    """
    weights = np.empty((4, len(model_local)))
    np.multiply(model_local.T, -2.0, out=weights[:3])
    np.multiply(model_local, model_local).sum(axis=1, out=weights[3])
    block = max(1, _BLOCK_ENTRIES // len(model_local))

    def search(points: np.ndarray):
        n = len(points)
        idx = np.empty(n, dtype=np.intp)
        homogeneous = np.ones((n, 4))
        homogeneous[:, :3] = points
        # one score buffer per call: a fresh block-sized array per block
        # costs more in page faults than the product itself
        buf = np.empty((min(block, n), len(model_local)))
        for start in range(0, n, block):
            rows = homogeneous[start:start + block]
            scores = np.matmul(rows, weights, out=buf[:len(rows)])
            scores.argmin(axis=1, out=idx[start:start + block])
        diff = points - model_local.take(idx, axis=0)
        diff *= diff
        dist = diff[:, 0] + diff[:, 1]
        dist += diff[:, 2]
        return idx, np.sqrt(dist, out=dist)

    return search


def _trimmed_order(dist: np.ndarray, trim: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the kept correspondences, nearest first, and their distances.

    Drops the worst ``trim`` fraction by distance plus anything beyond an
    adaptive gate (3x the median distance), which sheds mask bleed-over
    from adjacent body surfaces without losing true correspondences.
    """
    n = len(dist)
    order = dist.argsort(kind="stable")
    ranked = dist.take(order)
    if trim <= 0 or n < 16:
        return order, ranked
    k = n // 2
    median = ranked[k] if n % 2 else (ranked[k - 1] + ranked[k]) / 2.0
    gate = max(3.0 * float(median), 0.02)
    within = int(ranked.searchsorted(gate, side="right"))
    keep = max(8, min(math.ceil(n * (1.0 - trim)), within))
    return order[:keep], ranked[:keep]


def _svd_rotation(h: np.ndarray) -> np.ndarray:
    """Rotation ``V U^T`` from the SVD ``h = U S V^T``, reflection corrected.

    LAPACK's ``dgesdd`` is called directly for the full ``U`` and ``V^T``
    that ``np.linalg.svd`` gets from it, at half the cost of a 3x3 call (5
    against 11 us, 2-core x86). A nonzero ``info`` (NaN input gives -4, no
    convergence a positive count) raises ``LinAlgError`` as numpy does.
    """
    u, _s, vt, info = dgesdd(h)
    if info:
        raise np.linalg.LinAlgError(f"SVD failed: dgesdd info {info}")
    r = vt.T @ u.T
    r0, r1, r2 = r.tolist()
    c = _cross(r1, r2)
    if r0[0] * c[0] + r0[1] * c[1] + r0[2] * c[2] < 0:
        # det(r) < 0, a reflection: flip the weakest direction
        r = (vt.T * [1.0, 1.0, -1.0]) @ u.T
    return r


def best_rigid_update(model_pts: np.ndarray, data_pts: np.ndarray):
    """Closed-form (R, t) minimizing sum ||data - (R model + t)||^2."""
    n = len(model_pts)
    mc = model_pts.sum(axis=0) / n
    dc = data_pts.sum(axis=0) / n
    h = (model_pts - mc).T @ (data_pts - dc)
    r = _svd_rotation(h)
    return r, dc - r @ mc


def _apply_update(state: KeypartState, r: np.ndarray, t: np.ndarray | None,
                  anchor: np.ndarray | None) -> KeypartState:
    """Move a cylinder state by (R, t), discarding spin about its own axis.

    The update is reduced to (new base, new axis); attached frames follow
    via the minimal rotation between old and new axis, which keeps torso
    lateral anchors consistent with the keypoints that defined them. With
    an anchor the base stays on it and ``t`` is not read.
    """
    axis = normalize(r @ state.axis)
    frame = None if state.frame is None else \
        rotation_between(state.axis, axis) @ state.frame  # spin-free
    return KeypartState(state.part,
                        anchor.copy() if anchor is not None else r @ state.base + t,
                        axis, state.height, state.radius, frame)


def icp_register(model_local: np.ndarray, data_pts: np.ndarray,
                 init: KeypartState, anchor: np.ndarray | None = None,
                 max_iterations: int = 50, tol: float = 1e-6,
                 trim: float = 0.1) -> ICPResult:
    """Register a keypart cylinder to a data cloud.

    ``model_local`` holds canonical samples (axis +z, base at origin).
    Each iteration moves the data into the evolving state's cylinder frame
    and pairs every data point with its nearest model point
    (``nearest_model_search``: exhaustive, lowest model index on a tie).
    With an anchor the update is rotation-about-anchor only. Iterations
    that fail to reduce the mean residual are rejected and terminate the
    loop, so the residual is non-increasing across accepted iterations.
    """
    data_pts = np.asarray(data_pts, dtype=np.float64)
    if len(data_pts) == 0:
        return ICPResult(init.copy(), 0, np.inf, False, "empty cloud")
    span = data_pts.max(axis=0) - data_pts.min(axis=0) if len(data_pts) > 1 else np.zeros(3)
    if len(data_pts) < 3 or np.sqrt(span.dot(span)) < 1e-9:  # np.linalg.norm's path
        return ICPResult(init.copy(), 0, np.inf, False, "degenerate cloud")

    state = init.copy()
    if anchor is not None:
        state.base = np.asarray(anchor, dtype=np.float64).copy()
        # a stub covering a small axial fraction cannot fix a rotation
        axial = data_pts @ state.axis
        if float(axial.max() - axial.min()) < 0.3 * state.height:
            return ICPResult(state, 0, np.inf, False, "axial stub cloud")

    nearest = nearest_model_search(model_local)
    # an anchored state's base stays on the anchor, so the cloud is centred
    # on it once; the search and the cross-covariance both read that copy
    anchored = anchor is not None
    centred = data_pts - state.base if anchored else None

    def evaluate(s: KeypartState):
        """Trimmed nearest-model-point pairs, as (frame, model index, data
        index), and their RMS distance."""
        frame = frame_from_axis(s.axis)
        idx, dist = nearest((centred if anchored else data_pts - s.base) @ frame)
        order, kept = _trimmed_order(dist, trim)
        kept *= kept
        return (frame, idx.take(order), order), math.sqrt(kept.sum() / len(kept))

    def update(s: KeypartState, frame, model_idx, data_idx) -> KeypartState:
        """The next state from the pairs: a rotation about the anchor, or a
        free rigid motion."""
        m = model_local.take(model_idx, axis=0) @ frame.T
        m += s.base  # the world model points: their rounding is part of the step
        if anchored:
            m -= s.base  # centred on the anchor, as the data are
            return _apply_update(s, _svd_rotation(m.T @ centred.take(data_idx, axis=0)),
                                 None, s.base)
        r, t = best_rigid_update(m, data_pts.take(data_idx, axis=0))
        return _apply_update(s, r, t, None)

    pairs, residual = evaluate(state)
    iterations = 0
    converged = False
    for _ in range(max_iterations):
        candidate = update(state, *pairs)
        cand_pairs, cand_residual = evaluate(candidate)
        if cand_residual > residual + 1e-12:
            # reject the step; a rejection within tolerance is a fixed point
            converged = (cand_residual - residual) < tol
            break
        improvement = residual - cand_residual
        state, pairs, residual = candidate, cand_pairs, cand_residual
        iterations += 1
        if improvement < tol:
            converged = True
            break

    return ICPResult(state, iterations, float(residual), converged)


def _init_state(part: int, tree: BodyTree, dims: PartDimensions,
                anchor: np.ndarray | None) -> KeypartState | None:
    """Initial coarse state from the joint keypoints."""
    if part == body.TORSO:
        return body.fit_torso_state(tree.keypoints, dims)
    if part == body.HEAD:
        st = body.head_state_from_keypoints(tree.keypoints, dims)
        if st is None and anchor is not None:
            torso = tree.nodes[body.TORSO].state
            axis = torso.axis if torso is not None else np.array([0.0, 0.0, 1.0])
            st = KeypartState(part, anchor, axis,
                              dims.height[part], dims.radius[part])
        elif st is not None and anchor is not None:
            st.base = anchor
        return st
    if anchor is None:
        return None
    distal = tree.keypoints[body.DISTAL_KEYPOINT[part]]
    if not np.isnan(distal[0]):
        d = distal - anchor
        length = float(np.linalg.norm(d))
        # a grossly wrong segment length means the distal lift was polluted
        h = dims.height[part]
        if 0.45 * h <= length <= 1.5 * h:
            return KeypartState(part, anchor, normalize(d),
                                h, dims.radius[part])
    # no distal evidence: continue along the parent axis (rest-like)
    parent = tree.nodes[body.PARENT[part]].state
    if parent is None:
        return None
    axis = parent.axis if body.PARENT[part] != body.TORSO else -parent.axis
    return KeypartState(part, anchor, axis.copy(),
                        dims.height[part], dims.radius[part])


def register_tree(tree: BodyTree, clouds: dict, dims: PartDimensions,
                  model_samples: int = 128) -> BodyTree:
    """Register every active part, parents first, constraints maintained.

    ``clouds`` maps part -> (N, 3) merged world points. The tree's
    keypoint table, filled by ``body.augment``, seeds each part's state.
    Per-part failures mark the node and never abort the rest of the tree.
    """
    settled = []  # confidently registered cylinders, used to strip bleed-over
    for part in tree.traversal():
        node = tree.nodes[part]
        if node.supplemented:
            node.registered = False  # keypoint-derived state only
            continue

        anchor = None if part == body.TORSO else body.parent_joint_position(part, tree)
        state = _init_state(part, tree, dims, anchor)
        if state is None:
            node.note = "no keypoint initialization available"
            node.state = None
            continue
        node.state = state

        data = clouds.get(part)
        if data is None or len(data) == 0:
            node.registered = False
            node.note = "empty cloud; keypoint-initialized state kept"
        else:
            data = np.asarray(data, dtype=np.float64)
            if len(data) > 600:  # registration accuracy saturates well below this
                data = data[:: len(data) // 600 + 1]
            # points explained by already-settled parts are mask bleed-over
            if settled:
                keep = ~inside_any(settled, data, [c.radius + 0.025 for c in settled])
                if keep.sum() >= 8:
                    data = data[keep]
            result = icp_register(_cylinder_model(state.radius, state.height,
                                                  model_samples),
                                  data, state, anchor)
            node.state = result.state
            node.registered = result.converged or result.iterations > 0
            if result.note:
                node.note = result.note
            if node.registered and result.residual < 0.05:
                settled.append(node.state.cylinder())

        # propagate the refined pose into the shared keypoint table
        if part == body.TORSO:
            tree.keypoints[body.TORSO_ROWS] = body.torso_anchor_points(node.state, dims)
        else:
            distal = body.DISTAL_KEYPOINT.get(part)
            if distal is not None:
                tree.keypoints[distal] = node.state.tip

    return body.enforce_joint_constraints(tree)

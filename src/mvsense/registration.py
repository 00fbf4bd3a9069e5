"""Cylinder-model registration executed in hierarchical tree order.

The torso is registered to its cloud by free ICP: every data point is
paired with its nearest model point and a closed-form SVD update moves
the cylinder. The model is small (``MODEL_SAMPLES`` points), so
correspondences come from a blocked matrix product against all model
points rather than from a spatial index built per call.

Every other part hangs off a parent joint, so its pose is a rotation of
its axis about that anchor; spin about its own axis cannot be observed
and is not solved for. Below the torso the tree has two levels (head,
upper arms and thighs; then forearms and shins), and given their anchors
a level's parts are independent. ``register_level`` fits all of them in
one Gauss-Newton solve on the exact distance to each finite cylinder
surface: the points of the level are stacked with a part index, and
each part's 2x2 normal equations come from one ``np.bincount``. The
per-part scalars are Python floats: the 2x2 solve, the damping, the step
and its normalization, the accept/converge/retry bookkeeping, the
tangent frames and each part's trim gate. A level holds at most five
parts, so numpy's per-call cost would outweigh the arithmetic.

Floats keep every bit of the elementwise array code they replace.
Python's ``+ - * /``, ``math.sqrt`` and ``math.copysign`` are the same
correctly rounded IEEE-754 double operations that numpy's ufuncs apply,
so a value keeps its bits as long as the order of operations is kept. A
division by zero goes to numpy for its +-inf or NaN (``_divide``), and a
``max`` that may meet NaN takes it as its first argument, which is where
Python's ``max`` keeps it, as ``np.maximum`` does. Products that numpy
hands to BLAS stay on arrays (``@``, ``.dot``, ``np.linalg.norm``,
``dgesdd``): with OpenBLAS 0.3.31's Haswell kernels, ``v.dot(v)`` of a
random 3-vector differed from ``(x*x + y*y) + z*z`` in 21% of 300k cases,
and a 3x3 ``@`` 3-vector from the plain sums in 70% of 20k. That is why
the torso's ICP, built on such products, stays on arrays.

Before a level is fitted, the points of each cloud inside a part settled
in an earlier level are stripped as bleed-over, in one test over the
level's clouds, however few remain; the solvers' skip rules
(empty, degenerate, axial stub) alone decide that a cloud cannot be
fitted. Each part starts from ``body.initial_state``; supplemented nodes
(no cloud exists for them) skip registration. The keypoint table is
``body``'s alone: ``body.enforce_joint_constraints`` settles every level,
supplements included, before the next is anchored on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd

from . import body
from .body import BodyTree, KeypartState, PartDimensions
from .geometry import _cross, frame_from_axis, inside_any, normalize, rotation_between

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# Points sampled on the torso's cylinder model for its free ICP.
MODEL_SAMPLES = 128


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
def _cylinder_model(radius: float, height: float) -> np.ndarray:
    """The torso's ``MODEL_SAMPLES``-point model, built once per shape.

    Every call with the same shape returns the same array, made read-only
    so that no caller can change what the next one reads.
    """
    model = sample_cylinder_local(radius, height, MODEL_SAMPLES)
    model.flags.writeable = False
    return model


# Every registration's iteration cap, convergence tolerance on the trimmed
# RMS (m) and trimmed fraction.
MAX_ITERATIONS = 50
TOL = 1e-6
TRIM = 0.1


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


def _apply_update(state: KeypartState, r: np.ndarray, t: np.ndarray) -> KeypartState:
    """Move a cylinder state by (R, t), discarding spin about its own axis.

    The update is reduced to (new base, new axis); attached frames follow
    via the minimal rotation between old and new axis, which keeps torso
    lateral anchors consistent with the keypoints that defined them.
    """
    axis = normalize(r @ state.axis)
    frame = None if state.frame is None else \
        rotation_between(state.axis, axis) @ state.frame  # spin-free
    return KeypartState(state.part, r @ state.base + t, axis, state.height,
                        state.radius, frame)


def _skip_note(data_pts: np.ndarray) -> str:
    """Why a cloud cannot be registered at all, or ``""``."""
    if len(data_pts) == 0:
        return "empty cloud"
    span = data_pts.max(axis=0) - data_pts.min(axis=0) if len(data_pts) > 1 else np.zeros(3)
    if len(data_pts) < 3 or np.sqrt(span.dot(span)) < 1e-9:  # np.linalg.norm's path
        return "degenerate cloud"
    return ""


def icp_register(model_local: np.ndarray, data_pts: np.ndarray,
                 init: KeypartState, max_iterations: int = MAX_ITERATIONS,
                 tol: float = TOL, trim: float = TRIM) -> ICPResult:
    """Register a free keypart cylinder (the torso) to a data cloud.

    ``model_local`` holds canonical samples (axis +z, base at origin).
    Each iteration moves the data into the evolving state's cylinder frame
    and pairs every data point with its nearest model point
    (``nearest_model_search``: exhaustive, lowest model index on a tie);
    a closed-form rigid update follows. Iterations that fail to reduce the
    mean residual are rejected and terminate the loop, so the residual is
    non-increasing across accepted iterations.
    """
    data_pts = np.asarray(data_pts, dtype=np.float64)
    note = _skip_note(data_pts)
    if note:
        return ICPResult(init.copy(), 0, np.inf, False, note)

    state = init.copy()
    nearest = nearest_model_search(model_local)

    def evaluate(s: KeypartState):
        """Trimmed nearest-model-point pairs, as (frame, model index, data
        index), and their RMS distance."""
        frame = frame_from_axis(s.axis)
        idx, dist = nearest((data_pts - s.base) @ frame)
        order, kept = _trimmed_order(dist, trim)
        kept *= kept
        return (frame, idx.take(order), order), math.sqrt(kept.sum() / len(kept))

    def update(s: KeypartState, frame, model_idx, data_idx) -> KeypartState:
        """The next state from the pairs: a free rigid motion."""
        m = model_local.take(model_idx, axis=0) @ frame.T
        m += s.base
        r, t = best_rigid_update(m, data_pts.take(data_idx, axis=0))
        return _apply_update(s, r, t)

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


def _tangent_frame(axis) -> list:
    """The rows (e1, e2, axis) of the frame at a unit ``axis``, as nine floats.

    e1 and e2 span the plane across the axis and come from the branchless
    orthonormal basis of Duff et al. (2017). ``sign + z`` is never zero,
    since ``sign`` carries the sign of ``z``.
    """
    x, y, z = axis
    sign = math.copysign(1.0, z)
    c = -1.0 / (sign + z)
    d = x * y * c
    return [1.0 + sign * x * x * c, sign * d, -sign * x,
            d, sign + y * y * c, -y,
            x, y, z]


def _divide(a: float, b: float) -> float:
    """``a / b``, with numpy's ±inf or NaN where ``b`` is zero."""
    if b:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(a, b))


# The per-part sums one ``np.bincount`` call takes in ``_Stack.evaluate``:
# the kept squared distances, the kept count and the normal equations.
_SUMS = 7


class _Stack:
    """The centred points of a level's parts still iterating, stacked.

    ``points`` is (3, n), part after part; ``part`` gives each point's row
    in the live parts, ``start`` and ``count`` each part's slice.
    """

    def __init__(self, centred: list, heights: list, radii: list):
        self.count = [c.shape[1] for c in centred]
        self.start = [0, *itertools.accumulate(self.count[:-1])]
        self.points = np.concatenate(centred, axis=1)
        self.part = np.arange(len(centred)).repeat(self.count)
        self.height = np.array(heights).take(self.part)
        self.radius = np.array(radii).take(self.part)
        self.rank = np.arange(len(self.part)) - np.array(self.start).take(self.part)
        # each of the _SUMS rows of point terms into its own bins
        self.bins = (self.part + len(centred) * np.arange(_SUMS)[:, None]).ravel()
        # the two ranks around each part's median, the same one for an odd count
        self.middle = [i for n, s in zip(self.count, self.start)
                       for i in (s + (n - 1) // 2, s + n // 2)]

    def evaluate(self, frames: list, trim: float) -> tuple:
        """Per live part: the trimmed RMS distance to its cylinder's lateral
        surface and the Gauss-Newton normal equations ``(a11, a12, a22, b1,
        b2)`` in the (e1, e2) of its frame, ``frames[j]`` from
        ``_tangent_frame``; floats, in stack order."""
        n = len(frames)
        # (e1, e2, axis) . p for every point, components summed in order
        prod = np.array(frames).T.take(self.part, axis=1).reshape(3, 3, -1)
        prod *= self.points
        g1, g2, s = prod[:, 0] + prod[:, 1] + prod[:, 2]
        r = np.sqrt(g1 * g1 + g2 * g2)
        f1 = r - self.radius                            # radial gap
        f2 = s - np.minimum(np.maximum(s, 0.0), self.height)  # beyond an end
        dist = np.sqrt(f1 * f1 + f2 * f2)
        kept = self._trimmed(dist, trim)
        # d(f1)/d(delta) = -(s / r) g, d(f2)/d(delta) = g beyond an end
        c1 = -s / np.maximum(r, 1e-12)
        w = np.where(kept, c1 * c1 + (f2 != 0.0), 0.0)
        q = np.where(kept, c1 * f1 + f2, 0.0)
        wg1 = w * g1
        terms = np.array([np.where(kept, dist * dist, 0.0), kept, wg1 * g1, wg1 * g2,
                          w * g2 * g2, q * g1, q * g2])
        # one bin per (sum, part), each added in point order as its own
        # bincount would add it
        sums = np.bincount(self.bins, terms.ravel(), _SUMS * n).reshape(_SUMS, n)
        square, kept_count, *normal = sums.tolist()
        # a part keeps at least 3 points (``_skip_note``), so no count is 0
        rms = [math.sqrt(sq / k) for sq, k in zip(square, kept_count)]
        return rms, list(zip(*normal))

    def _trimmed(self, dist: np.ndarray, trim: float) -> np.ndarray:
        """(n,) mask of the points ``_trimmed_order`` keeps, part by part."""
        order = np.lexsort((dist, self.part))  # each part's slice, nearest first
        ranked = dist.take(order)
        keep = self.count
        if trim > 0:
            middle = ranked.take(self.middle).tolist()
            # max keeps a NaN gate only as its first argument, as np.maximum would
            gate = [max(3.0 * (a if n % 2 else (a + b) / 2.0), 0.02)
                    for n, a, b in zip(self.count, middle[::2], middle[1::2])]
            within = np.bincount(self.part, ranked <= np.array(gate).take(self.part),
                                 len(gate)).tolist()
            keep = [n if n < 16 else max(8, min(math.ceil(n * (1.0 - trim)), inside))
                    for n, inside in zip(self.count, within)]
        kept = np.empty(len(dist), dtype=bool)
        kept[order] = self.rank < np.array(keep).take(self.part)
        return kept


# Levenberg-Marquardt damping of a retried step, in units of the part's
# mean curvature (a11 + a22) / 2: it shortens the Gauss-Newton step by
# about a tenth and turns it toward the gradient.
DAMPING = 0.1


def register_level(inits: list, clouds: list, max_iterations: int, tol: float,
                   trim: float) -> list:
    """Rotate each anchored part of one tree level onto its cloud, in one solve.

    Each ``inits[i]`` is a frameless part state whose base is its anchor,
    and ``clouds[i]`` its (N, 3) world points. A part's residual is the
    distance from each point to the cylinder's lateral surface: the radial
    gap to radius rho and, past either end, the axial overshoot beyond
    [0, h]. The unknown is a rotation of the axis about the anchor, two
    angles across it; the axis moves to ``normalize(axis + d1 e1 + d2 e2)``.

    Every round, each live part takes a Gauss-Newton step from its trimmed
    points (``_trimmed_order``'s rule, part by part). A step is accepted
    when its trimmed RMS does not rise, and the part has converged once
    the RMS falls by less than ``tol``. A rejected step that rose by less
    than ``tol`` is a fixed point: the part has converged. Otherwise the
    part retries the step, damped (Levenberg-Marquardt, ``DAMPING``), once
    in the solve: the next rejected step stops it unconverged.
    ``max_iterations`` bounds the rounds, and ``ICPResult.iterations``
    counts accepted steps.
    Empty, degenerate and axial-stub clouds are not fitted; their result
    carries the note and the initial state.
    """
    results = [None] * len(inits)
    fit, centred = [], []
    for i, (init, data) in enumerate(zip(inits, clouds)):
        data = np.asarray(data, dtype=np.float64)
        note = _skip_note(data)
        if not note:
            # a stub covering a small axial fraction cannot fix a rotation
            axial = data @ init.axis
            if float(axial.max() - axial.min()) < 0.3 * init.height:
                note = "axial stub cloud"
        if note:
            results[i] = ICPResult(init.copy(), 0, np.inf, False, note)
        else:
            fit.append(i)
            centred.append((data - init.base).T)
    if not fit:
        return results

    heights = [inits[i].height for i in fit]
    radii = [inits[i].radius for i in fit]
    axes = [np.asarray(inits[i].axis, dtype=np.float64).tolist() for i in fit]
    frames = [_tangent_frame(axis) for axis in axes]
    count = len(fit)
    iterations = [0] * count
    converged = [False] * count
    damped = [False] * count  # the next step is the retry
    retried = [False] * count
    stack = _Stack(centred, heights, radii)
    residual, normal = stack.evaluate(frames, trim)
    rows = list(range(count))  # the live parts, in stack order
    for _ in range(max_iterations):
        candidates = []
        for j in rows:
            a11, a12, a22, b1, b2 = normal[j]
            lam = DAMPING * 0.5 * (a11 + a22) if damped[j] else 0.0
            a11 = a11 + lam  # even for lam = 0.0, which turns -0.0 into 0.0
            a22 = a22 + lam
            det = a11 * a22 - a12 * a12
            d1 = _divide(a12 * b2 - a22 * b1, det)
            d2 = _divide(a12 * b1 - a11 * b2, det)
            x, y, z = axes[j]
            e = frames[j]
            x = x + d1 * e[0] + d2 * e[3]
            y = y + d1 * e[1] + d2 * e[4]
            z = z + d1 * e[2] + d2 * e[5]
            norm = math.sqrt(x * x + y * y + z * z)
            candidates.append([_divide(x, norm), _divide(y, norm), _divide(z, norm)])
        cand_frames = [_tangent_frame(axis) for axis in candidates]
        cand_residual, cand_normal = stack.evaluate(cand_frames, trim)
        live = []
        for k, j in enumerate(rows):
            rise = cand_residual[k] - residual[j]
            accept = rise <= 1e-12  # a NaN step is rejected
            if accept:
                axes[j], frames[j] = candidates[k], cand_frames[k]
                residual[j], normal[j] = cand_residual[k], cand_normal[k]
                iterations[j] += 1
            # accepted: done below tolerance; rejected: a fixed point within it
            converged[j] = -rise < tol if accept else rise < tol
            # any other rejected step is retried, damped, once in the solve
            damped[j] = not (accept or converged[j] or retried[j])
            retried[j] = retried[j] or damped[j]
            if accept and not converged[j] or damped[j]:
                live.append(j)
        if live != rows:
            rows = live
            if not rows:
                break
            stack = _Stack([centred[j] for j in rows], [heights[j] for j in rows],
                           [radii[j] for j in rows])
    for j, i in enumerate(fit):
        init = inits[i]
        results[i] = ICPResult(
            KeypartState(init.part, init.base.copy(), np.array(axes[j]), init.height,
                         init.radius),
            iterations[j], residual[j], converged[j])
    return results


# The tree's levels, each a tuple of parts in part order: the torso, the
# parts hanging off it, and the parts hanging off those.
LEVELS = ((body.TORSO,),
          tuple(p for p, q in body.PARENT.items() if q == body.TORSO),
          tuple(p for p, q in body.PARENT.items() if q not in (None, body.TORSO)))

def register_tree(tree: BodyTree, clouds: dict, dims: PartDimensions) -> BodyTree:
    """Register every active part, level by level, constraints maintained.

    ``clouds`` maps part -> (N, 3) merged world points, empty when absent.
    ``body.initial_state`` seeds each part's state. The torso takes free
    ICP on its sampled model; each level below it takes one
    ``register_level`` solve. Points inside a part confidently registered
    in an earlier level are bleed-over and are always stripped first,
    however few remain; the solvers' notes alone mark a cloud that cannot
    be fitted, and its part keeps its keypoint-initialized state. Per-part
    failures mark the node and never abort the rest of the tree. Each
    level ends with ``body.enforce_joint_constraints``, so the joint
    constraint holds after every level.
    """
    settled = []  # confidently registered cylinders, used to strip bleed-over
    for level in LEVELS:
        parts, inits, data = [], [], []  # the posed parts of this level
        for part in level:
            node = tree.nodes[part]
            if not node.active:
                continue
            if node.supplemented:
                node.registered = False  # keypoint-derived state only
                continue
            state = body.initial_state(part, tree, dims)
            node.state = state
            if state is None:
                node.note = "no keypoint initialization available"
                continue
            cloud = np.asarray(clouds.get(part, np.empty((0, 3))), dtype=np.float64)
            if len(cloud) > 600:  # registration accuracy saturates well below this
                cloud = cloud[:: len(cloud) // 600 + 1]
            parts.append(part)
            inits.append(state)
            data.append(cloud)
        # points explained by parts settled in earlier levels are bleed-over,
        # found for the whole level in one pass
        if settled and data:
            inside = inside_any(settled, np.concatenate(data),
                                [c.radius + 0.025 for c in settled])
            bounds = np.cumsum([len(cloud) for cloud in data[:-1]])
            data = [cloud[~bleed] for cloud, bleed in zip(data, np.split(inside, bounds))]

        if level == LEVELS[0]:  # the torso
            results = [icp_register(_cylinder_model(s.radius, s.height), d, s)
                       for s, d in zip(inits, data)]
        else:
            results = register_level(inits, data, MAX_ITERATIONS, TOL, TRIM)
        for part, result in zip(parts, results):
            node = tree.nodes[part]
            node.state = result.state
            node.registered = result.converged or result.iterations > 0
            if result.note:
                node.note = result.note
            if node.registered and result.residual < 0.05:
                settled.append(node.state.cylinder())

        body.enforce_joint_constraints(tree, dims)
    return tree

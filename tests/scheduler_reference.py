"""The viewpoint search that ``mvsense.scheduler`` replaced, kept as a bitwise oracle.

``estimate_collision`` poses the robot at both endpoints of every
interval, one distance batch per interval. ``_exhaustive`` is the
depth-first search over whole joint sequences, ``_greedy`` the per-step
broadcast argmax, and ``_interval_term``/``combine_parts`` the any-part
term both used; ``plan`` is the dispatch between them with greedy's hold
guard. The bodies are the ones from before the two searches became one
search over one step function. ``_CameraTable`` and ``_view_quality_row``
build each rig's visibility table one candidate orientation at a time,
each with its own pose, the mount composed with ``rot_y(pan) @
rot_x(tilt)``, and projection, as before the table was built in one
batch. ``_advance_sigma`` writes out the capped sigma growth that the
live scheduler keeps in ``grown_sigma``, and ``estimate_collision``
takes each part's midpoint from its cylinder's base, axis and height.
The live code must give the same bits on every input.
"""

import itertools

import numpy as np

from mvsense.geometry import RigidTransform, rot_x, rot_y, segment_segment_distance_batch
from mvsense.scheduler import (
    P_CAP,
    QUALITY_CORE,
    CollisionEstimate,
    SchedulerParams,
    ViewpointTrajectory,
    _candidate_grid,
    collision_probability,
)


def _view_quality_row(rig, orientation, positions: np.ndarray) -> np.ndarray:
    """Observation quality in [0, 1] per estimated part position.

    1 inside the central portion of the image, tapering to 0 at the rim
    and outside. Centered views reset uncertainty fully, grazing views
    only partially, so the planner prefers bringing high-risk parts
    toward the FOV center rather than merely inside the frame.
    """
    pan, tilt = orientation
    pose = rig.mount.compose(RigidTransform(rot_y(pan) @ rot_x(tilt), np.zeros(3)))
    cam = pose.inverse().apply(positions)
    k = rig.intrinsics
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.fx * cam[:, 0] / z + k.cx
        v = k.fy * cam[:, 1] / z + k.cy
    du = np.abs(u - (k.width - 1) / 2.0) / (k.width / 2.0)
    dv = np.abs(v - (k.height - 1) / 2.0) / (k.height / 2.0)
    off = np.maximum(du, dv)
    q = np.clip((1.0 - off) / (1.0 - QUALITY_CORE), 0.0, 1.0)
    return np.where(z > 0.05, q, 0.0)


class _CameraTable:
    """Per-camera candidate orientations with cached visibility rows."""

    def __init__(self, rig, params: SchedulerParams, positions: np.ndarray):
        self.rig = rig
        self.reach = rig.max_rate * params.interval + 1e-12
        self.hold = (rig.pan, rig.tilt)
        self.orientations = [self.hold] + [
            o for o in _candidate_grid(rig, params) if o != self.hold
        ]
        self.vis = np.stack([
            _view_quality_row(rig, o, positions) for o in self.orientations
        ])
        self.index = {o: i for i, o in enumerate(self.orientations)}

    def reachable_from(self, orientation) -> list:
        """Candidate indices reachable in one step; index of ``orientation`` first."""
        p0, t0 = orientation
        out = []
        for i, (p, t) in enumerate(self.orientations):
            if abs(p - p0) <= self.reach and abs(t - t0) <= self.reach:
                out.append(i)
        cur = self.index.get(orientation)
        if cur is not None and cur in out:
            out.remove(cur)
            out.insert(0, cur)
        return out


def combine_parts(p_parts: np.ndarray) -> float:
    """Any-part collision probability assuming part independence."""
    return float(min(1.0 - np.prod(1.0 - np.asarray(p_parts)), P_CAP))


def _advance_sigma(sig, quality, params):
    grown = np.minimum(sig + params.growth * params.interval, params.sigma_cap)
    return grown + quality * (params.sigma_obs - grown)


def estimate_collision(tracks: dict, robot_links_at, params,
                       t0: float = 0.0) -> CollisionEstimate:
    part_cylinders = {j: cylinder for j, (cylinder, _sigma) in tracks.items()}
    parts = sorted(part_cylinders)
    p = len(parts)
    m1 = params.horizon + 1
    part_base = np.stack([part_cylinders[j].base for j in parts])
    part_top = np.stack([part_cylinders[j].top for j in parts])
    part_r = np.array([part_cylinders[j].radius for j in parts])

    clearances = np.full((m1, p), 1e9)
    for m in range(m1):
        links = list(robot_links_at(t0 + m * params.interval))
        links += list(robot_links_at(t0 + (m + 1) * params.interval))
        if not links:
            continue
        link_base = np.stack([l.base for l in links])
        link_top = np.stack([l.top for l in links])
        link_r = np.array([l.radius for l in links])
        dist = segment_segment_distance_batch(part_base, part_top, link_base, link_top)
        gap = dist - part_r[:, None] - link_r[None, :]
        clearances[m] = np.maximum(gap.min(axis=1), 0.0)
    sig = np.array([tracks[part][1] for part in parts], dtype=np.float64)
    positions = np.stack([part_cylinders[j].base
                          + part_cylinders[j].axis * (0.5 * part_cylinders[j].height)
                          for j in parts])
    return CollisionEstimate(parts, clearances, sig, positions)


def _interval_term(clearance_row, sig) -> float:
    p = collision_probability(clearance_row, sig)
    return float(np.log(1.0 - combine_parts(p)))


def plan(rigs, estimate: CollisionEstimate, params) -> ViewpointTrajectory:
    m1 = params.horizon + 1
    hold = {rig.rig_id: [(rig.pan, rig.tilt)] * m1 for rig in rigs}
    if not estimate.parts or not rigs:
        return ViewpointTrajectory(hold, 0.0, "hold")

    tables = [_CameraTable(rig, params, estimate.positions) for rig in rigs]

    branching = np.prod([len(t.reachable_from(t.hold)) for t in tables],
                        dtype=np.float64)
    if branching ** m1 <= params.exhaustive_limit:
        seq, value = _exhaustive(tables, estimate, params, m1)
        mode = "exhaustive"
    else:
        seq, value = _greedy(tables, estimate, params, m1)
        hold_seq = tuple(tuple(t.index[t.hold] for t in tables) for _ in range(m1))
        hold_value = _sequence_value(hold_seq, tables, estimate, params)
        if value <= hold_value:
            seq, value = hold_seq, hold_value
        mode = "greedy"

    commands = {
        rig.rig_id: [tables[c].orientations[step[c]] for step in seq]
        for c, rig in enumerate(rigs)
    }
    return ViewpointTrajectory(commands, value, mode)


def _sequence_value(seq, tables, estimate, params) -> float:
    sig = estimate.sigmas.copy()
    total = 0.0
    for m, joint in enumerate(seq):
        quality = np.zeros(len(estimate.parts))
        for table, idx in zip(tables, joint):
            quality = np.maximum(quality, table.vis[idx])
        sig = _advance_sigma(sig, quality, params)
        total += (params.gamma ** m) * _interval_term(estimate.clearances[m], sig)
    return float(total)


def _exhaustive(tables, estimate, params, m1):
    """Depth-first search over all rate-feasible joint sequences."""
    best = {"seq": None, "value": -np.inf}

    def recurse(step, current, sig, acc, prefix):
        if step == m1:
            # strict improvement keeps the all-hold prefix on ties
            if acc > best["value"] + 1e-15:
                best["seq"] = tuple(prefix)
                best["value"] = acc
            return
        options = [t.reachable_from(cur) for t, cur in zip(tables, current)]
        for joint in itertools.product(*options):
            quality = np.zeros(len(estimate.parts))
            for table, idx in zip(tables, joint):
                quality = np.maximum(quality, table.vis[idx])
            sig2 = _advance_sigma(sig, quality, params)
            term = (params.gamma ** step) * _interval_term(
                estimate.clearances[step], sig2)
            nxt = tuple(tables[c].orientations[joint[c]] for c in range(len(tables)))
            recurse(step + 1, nxt, sig2, acc + term, prefix + [joint])

    start = tuple(t.hold for t in tables)
    recurse(0, start, estimate.sigmas.copy(), 0.0, [])
    return best["seq"], float(best["value"])


def _greedy(tables, estimate, params, m1):
    """Per-step joint argmax over the candidate product, sigma carried forward."""
    sig = estimate.sigmas.copy()
    current = [t.hold for t in tables]
    seq = []
    total = 0.0
    n_parts = len(estimate.parts)
    for m in range(m1):
        option_idx = [t.reachable_from(cur) for t, cur in zip(tables, current)]
        quality = np.zeros((1,) * len(tables) + (n_parts,))
        for c, (table, idx) in enumerate(zip(tables, option_idx)):
            shape = [1] * len(tables) + [n_parts]
            shape[c] = len(idx)
            quality = np.maximum(quality, table.vis[idx].reshape(shape))
        sig2 = _advance_sigma(sig, quality, params)
        p = collision_probability(estimate.clearances[m], sig2)
        p_joint = np.minimum(1.0 - np.prod(1.0 - p, axis=-1), P_CAP)
        terms = np.log(1.0 - p_joint)
        flat = int(np.argmax(terms))
        joint_pos = np.unravel_index(flat, terms.shape)
        joint = tuple(option_idx[c][joint_pos[c]] for c in range(len(tables)))
        seq.append(joint)
        total += (params.gamma ** m) * float(terms[joint_pos])
        sig = sig2[joint_pos]
        current = [tables[c].orientations[joint[c]] for c in range(len(tables))]
    return tuple(seq), float(total)


def assert_same_estimate(got: CollisionEstimate, want: CollisionEstimate):
    assert got.parts == want.parts
    for name in ("clearances", "sigmas", "positions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def assert_same_plan(got: ViewpointTrajectory, want: ViewpointTrajectory):
    assert got.mode == want.mode
    assert got.commands == want.commands
    assert got.objective.hex() == want.objective.hex()

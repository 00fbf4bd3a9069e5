"""Active-vision scheduling of pan-tilt viewpoints.

Cameras are steered to maximize a discounted sum of log survival
probabilities, sum_m gamma^m * ln(1 - p_collide[m]), over a short
horizon. The collision probability per keypart is a Gaussian-clearance
surrogate, exp(-clearance^2 / (2 sigma^2)), where sigma is the part's
positional uncertainty. ``update_tracks`` keeps each part's track,
``part -> (last registered Cylinder, sigma)``: every frame sigma grows,
and a registered part resets to ``sigma_obs``. The planner's steps grow
it by the same ``grown_sigma`` and reset it by view quality. Observing
high-risk parts therefore lowers future p_collide, which is what the
objective rewards, so the planner turns cameras toward the regions of
highest collision risk.

One search serves both planning modes. It expands joint steps level by
level, and each partial sequence scores all the options its cameras can
reach in one step with one broadcast through the objective's per-step
recurrence. When the joint product over the horizon is small, every
option is kept and the best whole command sequence (jointly across
cameras) wins; otherwise each step keeps only its best option, and the
greedy plan is guarded to never score below holding still. Holding the
current angles is always the first candidate and wins ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import pan_tilt_rotation, project, segment_segment_distance_batch

P_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class SchedulerParams:
    horizon: int = 3           # M: intervals 0..M inclusive
    gamma: float = 0.9
    interval: float = 0.4      # seconds per planning step
    grid_pan: int = 5
    grid_tilt: int = 3
    # sigma growth in m/s while unobserved: desk-scale clearances are large,
    # so the uncertainty must grow quickly for the risk objective to reward
    # re-acquiring people who drift out of view
    growth: float = 0.35
    sigma_obs: float = 0.02    # sigma right after an observation
    sigma_cap: float = 1.5
    exhaustive_limit: int = 2000


@dataclass
class CollisionEstimate:
    """Clearances and positional uncertainty per interval/part.

    The baseline collision probabilities are
    ``collision_probability(clearances, sigmas)``.
    """

    parts: list                      # part ids, column order of the matrices
    clearances: np.ndarray           # (M+1, P) min robot distance per interval
    sigmas: np.ndarray               # (P,) current positional uncertainty
    positions: np.ndarray            # (P, 3) the tracked cylinders' midpoints


@dataclass
class ViewpointTrajectory:
    """Per-camera (pan, tilt) command sequences over the horizon."""

    commands: dict                   # rig id -> [(pan, tilt), ...] length M+1
    objective: float
    mode: str = "greedy"


def collision_probability(clearance, sigma) -> np.ndarray:
    """Gaussian-clearance surrogate, capped just below 1."""
    clearance = np.asarray(clearance, dtype=np.float64)
    sigma = np.maximum(np.asarray(sigma, dtype=np.float64), 1e-9)
    p = np.exp(-(clearance ** 2) / (2.0 * sigma ** 2))
    return np.minimum(p, P_CAP)


def grown_sigma(sigma, seconds: float, params: SchedulerParams):
    """``sigma`` after ``seconds`` unobserved: linear growth, capped."""
    return np.minimum(sigma + params.growth * seconds, params.sigma_cap)


def update_tracks(tracks: dict, observed, seconds: float,
                  params: SchedulerParams) -> None:
    """Age every track by ``seconds``, then restart each (part, Cylinder
    registered now) of ``observed`` at ``sigma_obs``, in place. A part
    never observed has no track.
    """
    for part, (cylinder, sigma) in tracks.items():
        tracks[part] = (cylinder, grown_sigma(sigma, seconds, params))
    for part, cylinder in observed:
        tracks[part] = (cylinder, params.sigma_obs)


def estimate_collision(tracks: dict, robot_links_at, params: SchedulerParams,
                       t0: float = 0.0) -> CollisionEstimate:
    """Clearance and baseline collision probability per planning interval.

    ``tracks`` maps part -> (Cylinder, sigma), as ``update_tracks`` keeps
    it. ``robot_links_at(t)`` yields the robot link cylinders at time t.
    It is called once per interval endpoint, and the clearance over
    interval m is the smallest against the links at either of its
    endpoints. Keypart poses are held at the current estimate.
    """
    parts = sorted(tracks)
    cylinders = [tracks[j][0] for j in parts]
    m1 = params.horizon + 1
    part_base = np.stack([c.base for c in cylinders])
    part_top = np.stack([c.top for c in cylinders])
    part_r = np.array([c.radius for c in cylinders])
    posed = [list(robot_links_at(t0 + k * params.interval)) for k in range(m1 + 1)]
    links = [link for at in posed for link in at]

    clearances = np.full((m1, len(parts)), 1e9)
    if links:
        link_base = np.stack([l.base for l in links])
        link_top = np.stack([l.top for l in links])
        link_r = np.array([l.radius for l in links])
        dist = segment_segment_distance_batch(part_base, part_top, link_base, link_top)
        gap = dist - part_r[:, None] - link_r[None, :]
        ends = np.cumsum([0] + [len(at) for at in posed])  # column range per time
        for m in range(m1):
            if ends[m + 2] > ends[m]:
                clearances[m] = np.maximum(gap[:, ends[m]:ends[m + 2]].min(axis=1), 0.0)
    return CollisionEstimate(parts, clearances,
                             np.array([tracks[j][1] for j in parts], dtype=np.float64),
                             np.stack([c.midpoint for c in cylinders]))


def _axis_points(lo: float, hi: float, n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, n)


def _candidate_grid(rig, params: SchedulerParams) -> list:
    pans = _axis_points(rig.pan_limits[0], rig.pan_limits[1], params.grid_pan)
    tilts = _axis_points(rig.tilt_limits[0], rig.tilt_limits[1], params.grid_tilt)
    return [(float(p), float(t)) for p in pans for t in tilts]


QUALITY_CORE = 0.7  # fraction of the half-extent giving a full-quality view


def _view_quality(rig, orientations: list, positions: np.ndarray) -> np.ndarray:
    """Observation quality in [0, 1] per (pan, tilt) and estimated part position.

    1 inside the central portion of the image, tapering to 0 at the rim
    and outside. Centered views reset uncertainty fully, grazing views
    only partially, so the planner prefers bringing high-risk parts
    toward the FOV center rather than merely inside the frame.

    Every orientation is posed and projected in one batch, with the bits
    of ``rig.world_pose().inverse().apply(positions)`` for the rig turned
    to it: both take the gimbal from ``pan_tilt_rotation``, and the
    compose, the inverse's translation and the projection are stacked
    matrix products, one BLAS call of the same shape and layout per
    orientation as ``RigidTransform`` makes.
    """
    gimbal = pan_tilt_rotation(*np.array(orientations, dtype=np.float64).T)
    mount = rig.mount
    inverse = np.ascontiguousarray(np.matmul(mount.rotation, gimbal).transpose(0, 2, 1))
    cam = np.matmul(positions, inverse.transpose(0, 2, 1))
    cam += np.matmul(-inverse, mount.translation)[:, None, :]
    k = rig.intrinsics
    uv = project(cam, k)
    du = np.abs(uv[..., 0] - (k.width - 1) / 2.0) / (k.width / 2.0)
    dv = np.abs(uv[..., 1] - (k.height - 1) / 2.0) / (k.height / 2.0)
    off = np.maximum(du, dv)
    q = np.clip((1.0 - off) / (1.0 - QUALITY_CORE), 0.0, 1.0)
    return np.where(cam[..., 2] > 0.05, q, 0.0)


class _CameraTable:
    """Per-camera candidate orientations with cached visibility rows and
    one-step reachable sets."""

    def __init__(self, rig, params: SchedulerParams, positions: np.ndarray):
        self.rig = rig
        self.reach = rig.max_rate * params.interval + 1e-12
        self.hold = (rig.pan, rig.tilt)
        self.orientations = [self.hold] + [
            o for o in _candidate_grid(rig, params) if o != self.hold
        ]
        self.vis = _view_quality(rig, self.orientations, positions)
        self.index = {o: i for i, o in enumerate(self.orientations)}
        self.reachable = {}

    def reachable_from(self, orientation) -> list:
        """Candidate indices reachable in one step; index of ``orientation`` first.

        Each orientation's list is built on its first query and reused: a
        greedy two-rig plan asks ten times, about two orientations in all.
        """
        out = self.reachable.get(orientation)
        if out is None:
            p0, t0 = orientation
            out = [i for i, (p, t) in enumerate(self.orientations)
                   if abs(p - p0) <= self.reach and abs(t - t0) <= self.reach]
            cur = self.index.get(orientation)
            if cur is not None and cur in out:
                out.remove(cur)
                out.insert(0, cur)
            self.reachable[orientation] = out
        return out


def _advance_sigma(sig, quality, params: SchedulerParams):
    """Grow unobserved uncertainty; blend toward sigma_obs by view quality."""
    grown = grown_sigma(sig, params.interval, params)
    return grown + quality * (params.sigma_obs - grown)


def _joint_quality(tables, options, n_parts: int) -> np.ndarray:
    """Best view quality of each part under every joint option.

    ``options[c]`` lists camera c's candidate indices; the result has
    shape (len(options[0]), ..., len(options[-1]), n_parts).
    """
    quality = np.zeros((1,) * len(tables) + (n_parts,))
    for c, (table, idx) in enumerate(zip(tables, options)):
        shape = [1] * len(tables) + [n_parts]
        shape[c] = len(idx)
        quality = np.maximum(quality, table.vis[idx].reshape(shape))
    return quality


def _step(sig, quality, clearance_row, m: int, params: SchedulerParams):
    """One interval of the objective for ``quality`` of shape (..., P).

    Returns the advanced sigmas and gamma^m * ln(1 - p_any), where p_any
    is the capped probability that any part collides, parts independent.
    """
    sig2 = _advance_sigma(sig, quality, params)
    p = collision_probability(clearance_row, sig2)
    term = (params.gamma ** m) * np.log(1.0 - np.minimum(1.0 - np.prod(1.0 - p, axis=-1), P_CAP))
    return sig2, term


def plan(rigs, estimate: CollisionEstimate, params: SchedulerParams) -> ViewpointTrajectory:
    """Choose pan-tilt command sequences maximizing the discounted objective.

    With no tracked parts, or no strictly better candidate, every camera
    holds its current angles (the documented tie-break).
    """
    m1 = params.horizon + 1
    hold = {rig.rig_id: [(rig.pan, rig.tilt)] * m1 for rig in rigs}
    if not estimate.parts or not rigs:
        return ViewpointTrajectory(hold, 0.0, "hold")

    tables = [_CameraTable(rig, params, estimate.positions) for rig in rigs]

    branching = np.prod([len(t.reachable_from(t.hold)) for t in tables],
                        dtype=np.float64)
    exhaustive = branching ** m1 <= params.exhaustive_limit
    seq, value = _search(tables, estimate, params, m1, exhaustive)
    if not exhaustive:
        hold_seq = tuple(tuple(t.index[t.hold] for t in tables) for _ in range(m1))
        hold_value = _sequence_value(hold_seq, tables, estimate, params)
        if value <= hold_value:
            seq, value = hold_seq, hold_value

    commands = {
        rig.rig_id: [tables[c].orientations[step[c]] for step in seq]
        for c, rig in enumerate(rigs)
    }
    return ViewpointTrajectory(commands, value, "exhaustive" if exhaustive else "greedy")


def _sequence_value(seq, tables, estimate, params) -> float:
    n_parts = len(estimate.parts)
    sig, total = estimate.sigmas, 0.0
    for m, joint in enumerate(seq):
        quality = _joint_quality(tables, [[idx] for idx in joint], n_parts)
        sig, term = _step(sig, quality.reshape(n_parts), estimate.clearances[m], m, params)
        total += term
    return float(total)


def _search(tables, estimate, params, m1, keep_all):
    """Best joint command sequence and its objective, expanded level by level.

    Each partial sequence scores every joint option its cameras can reach
    in one step with one broadcast through ``_step``, visiting them in
    ``np.ndindex`` order. With ``keep_all`` every option is kept, and the
    first complete sequence that beats all earlier ones wins: the rule of
    a depth-first search over ``itertools.product``. Otherwise each level
    keeps only its first argmax. Option 0 of a camera is always "stay",
    so ties prefer not moving.
    """
    n_parts = len(estimate.parts)
    hold = tuple(t.index[t.hold] for t in tables)
    level = [((), estimate.sigmas, 0.0)]    # (joint indices so far, sigmas, value)
    best_seq, best = None, -np.inf
    for m in range(m1):
        expanded = []
        for seq, sig, acc in level:
            last = seq[-1] if seq else hold
            options = [t.reachable_from(t.orientations[i]) for t, i in zip(tables, last)]
            sig2, terms = _step(sig, _joint_quality(tables, options, n_parts),
                                estimate.clearances[m], m, params)
            picks = np.ndindex(terms.shape) if keep_all else \
                [np.unravel_index(int(np.argmax(terms)), terms.shape)]
            for pos in picks:
                joint = tuple(opt[k] for opt, k in zip(options, pos))
                value = acc + terms[pos]
                if m + 1 < m1:
                    expanded.append((seq + (joint,), sig2[pos], value))
                elif value > best + 1e-15:  # complete sequences are not stored
                    best_seq, best = seq + (joint,), value
        level = expanded
    return best_seq, float(best)

"""Trial execution: the full per-frame sensing loop plus metrics.

Per frame and camera the loop runs detect -> presence windows -> depth
lift -> fusion barrier -> masks -> cloud extraction, then tree
build/augment/register, then viewpoint scheduling, then the scene step.

Keypart recognition is scored as binary classification against scene
ground truth: a part truly exists in a frame when its cylinder midpoint
lies inside the scenario's workspace volume (presence is scored
globally, not per camera). Metrics files are deterministic for a fixed
script and seed; wall-clock timings go to a separate sidecar that is
excluded from that guarantee.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import body, keyparts, registration, scenario, scheduler, simulator
from .geometry import Cylinder, Intrinsics
from .keypoints import NoValidDepth, PresenceWindow, fuse, lift_depth
from .scenario import CONFIGS, ScenarioScript

log = logging.getLogger("mvsense.harness")


@dataclass
class TrialMetrics:
    name: str
    config: str
    seed: int
    frames: int
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0
    per_part_correct: list = field(default_factory=lambda: [0] * body.NUM_KEYPARTS)
    axis_errors_deg: list = field(default_factory=list)
    position_errors_m: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)

    @property
    def total_samples(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        t = self.total_samples
        return (self.tp + self.tn) / t if t else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    def summary(self) -> dict:
        return {
            "name": self.name,
            "config": self.config,
            "seed": self.seed,
            "frames": self.frames,
            "samples": self.total_samples,
            "tp": self.tp,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
            "accuracy": self.accuracy,
            "recall": self.recall,
            "precision": self.precision,
            "per_part_accuracy": [
                (c / self.frames if self.frames else 0.0)
                for c in self.per_part_correct
            ],
            "mean_axis_error_deg": (float(np.mean(self.axis_errors_deg))
                                    if self.axis_errors_deg else None),
            "mean_position_error_m": (float(np.mean(self.position_errors_m))
                                      if self.position_errors_m else None),
            "pose_samples": len(self.axis_errors_deg),
        }


def select_cameras(script: ScenarioScript, config: str) -> list:
    if config not in CONFIGS and config != "script":
        raise scenario.ConfigError(f"unknown config {config!r}", field_name="config")
    specs = script.cameras if config.startswith("multi") or config == "script" \
        else script.cameras[:1]
    rigs = []
    for spec in specs:
        active = spec.active if config in ("script",) else config.endswith("active")
        rigs.append(simulator.CameraRig(
            rig_id=spec.cam_id,
            intrinsics=Intrinsics(spec.fx, spec.fy, spec.cx, spec.cy,
                                  spec.width, spec.height),
            mount=simulator.camera_mount(spec.pos, spec.yaw, spec.pitch),
            pan_limits=(spec.pan_min, spec.pan_max),
            tilt_limits=(spec.tilt_min, spec.tilt_max),
            max_rate=spec.rate,
            active=active and spec.active,
        ))
    return rigs


def build_scene(script: ScenarioScript, config: str = "script",
                seed: int | None = None) -> simulator.Scene:
    dims = script.part_dimensions()
    human = simulator.GroundTruthHuman(
        np.array([t for t, _ in script.human_waypoints]),
        np.array([d for _, d in script.human_waypoints]),
        dims,
    )
    robot = None
    if script.robot_waypoints:
        robot = simulator.RobotArmProxy(
            np.array([t for t, _ in script.robot_waypoints]),
            np.array([j for _, j in script.robot_waypoints]),
            script.robot_radius,
        )
    return simulator.Scene(
        human=human,
        robot=robot,
        rigs=select_cameras(script, config),
        seed=script.seed if seed is None else seed,
        detector_noise=simulator.DetectorNoise(
            script.sigma_px, script.c_hi, script.c_occ, script.c_out),
        depth_noise=simulator.DepthNoise(script.depth_sigma, script.depth_drop),
    )


def prop_cylinders(script: ScenarioScript) -> list:
    up = np.array([0.0, 0.0, 1.0])
    return [Cylinder(np.asarray(p.pos, dtype=np.float64), up, p.height, p.radius)
            for p in script.props]


def keypoint_depth_offsets(dims: body.PartDimensions) -> np.ndarray:
    """Surface-to-joint depth correction per keypoint.

    A depth slice samples the body surface, which sits roughly one part
    radius in front of the joint center; face keypoints are true surface
    features and need no correction. The lifted point is pushed deeper
    along its camera ray by this offset before fusion.
    """
    off = np.zeros(body.NUM_KEYPOINTS)
    for kp in range(body.NUM_KEYPOINTS):
        parts = [p for p, kps in body.PART_KEYPOINTS.items() if kp in kps]
        if kp in body.PART_KEYPOINTS[body.HEAD]:
            continue
        off[kp] = min(dims.cylinder_radius(p) for p in parts)
    return off


def gt_part_presence(pose, workspace_min, workspace_max) -> list:
    lo = np.asarray(workspace_min)
    hi = np.asarray(workspace_max)
    out = []
    for part in range(body.NUM_KEYPARTS):
        mid = pose.states[part].cylinder().midpoint
        out.append(bool(np.all(mid >= lo) & np.all(mid <= hi)))
    return out


class _Stopwatch:
    def __init__(self, sink: dict):
        self.sink = sink

    def add(self, key: str, t0: float) -> float:
        t1 = time.perf_counter()
        self.sink[key] = self.sink.get(key, 0.0) + (t1 - t0) * 1000.0
        return t1


def run_trial(script: ScenarioScript, config: str = "script",
              seed: int | None = None, frames: int | None = None,
              out_dir=None, dump_frame: int | None = None) -> TrialMetrics:
    """Execute one scenario end to end and score it against ground truth.

    ``seed`` overrides the script seed; ``frames`` (at least 1) caps the
    frame count. When ``out_dir`` is given, per-frame metrics (CSV), a JSON
    summary and a timing sidecar are written there. ``dump_frame``, one of
    the script's frames, additionally dumps that frame's masks, clouds and
    tree for debugging; when that frame fails, the dump holds what the
    frame produced before the failure and no tree. Out-of-range
    ``frames`` or ``dump_frame``, or a ``dump_frame`` the ``frames`` cap
    leaves out, raise ``ConfigError``.
    """
    script.validate()
    scene = build_scene(script, config, seed)
    dims = script.part_dimensions()
    props = prop_cylinders(script)
    dt = 1.0 / script.frame_rate
    n_frames = int(round(script.duration * script.frame_rate))
    if dump_frame is not None and not 0 <= dump_frame < n_frames:
        raise scenario.ConfigError(
            f"{dump_frame} is outside the trial's frames [0, {n_frames})",
            field_name="frame")
    if frames is not None:
        if frames < 1:
            raise scenario.ConfigError(f"need at least 1, got {frames}",
                                       field_name="frames")
        n_frames = min(n_frames, frames)
        if dump_frame is not None and dump_frame >= n_frames:
            raise scenario.ConfigError(
                f"{dump_frame} is past the {n_frames} frames run", field_name="frame")

    metrics = TrialMetrics(script.name, config, scene.seed, n_frames)
    cloud_params = keyparts.CloudParams(
        voxel=script.voxel, range_min=script.range_min, range_max=script.range_max,
        cluster_radius=script.cluster_radius, cluster_min=script.cluster_min,
        robot_margin_scale=script.robot_margin, depth_gate=script.depth_gate,
    )
    sched_params = scheduler.SchedulerParams(
        horizon=script.sched_horizon, gamma=script.sched_gamma,
        interval=script.sched_interval, grid_pan=script.sched_grid_pan,
        grid_tilt=script.sched_grid_tilt, growth=script.sched_growth,
        sigma_obs=script.sched_sigma_obs, sigma_cap=script.sched_sigma_cap,
        exhaustive_limit=script.sched_exhaustive_limit,
    )

    def window():
        return PresenceWindow(script.window_m, script.window_gamma,
                              script.window_alpha)

    kp_windows = {rig.rig_id: [window() for _ in range(body.NUM_KEYPOINTS)]
                  for rig in scene.rigs}
    part_windows = {rig.rig_id: [window() for _ in range(body.NUM_KEYPARTS)]
                    for rig in scene.rigs}
    depth_offsets = keypoint_depth_offsets(dims)

    # scheduler bookkeeping: last estimated cylinder + uncertainty per part
    tracked: dict = {}
    watch = _Stopwatch(metrics.timings_ms)
    dump = None

    for frame in range(n_frames):
        t = scene.t
        pose = scene.human.pose_at(t)
        robot_links = scene.robot.links_at(t) if scene.robot else []
        scene_cyls = scene.cylinders(pose) + props
        gt_present = gt_part_presence(pose, script.workspace_min, script.workspace_max)

        per_rig_obs: dict = {}
        per_rig_depth: dict = {}
        per_rig_kp3d: dict = {}
        per_rig_parts: dict = {}
        frame_masks: dict = {}
        merged: dict = {}
        tree = None
        t0 = time.perf_counter()
        try:
            for ci, rig in enumerate(scene.rigs):
                depth = simulator.render_depth(
                    rig, scene_cyls, scene.depth_noise,
                    scene.rng(simulator.STREAM_DEPTH, ci))
                t0 = watch.add("render", t0)
                obs = simulator.synthetic_detect(
                    rig, pose, list(robot_links) + props, scene.detector_noise,
                    scene.rng(simulator.STREAM_DETECT, ci), t)
                t0 = watch.add("detect", t0)

                kw = kp_windows[rig.rig_id]
                pw = part_windows[rig.rig_id]
                for o in obs:
                    kw[o.keypoint].update(o.confidence)
                for j in range(body.NUM_KEYPARTS):
                    cj = max(obs[k].confidence for k in body.PART_KEYPOINTS[j])
                    pw[j].update(cj)

                kp3d = {}
                for o in obs:
                    if kw[o.keypoint].present():
                        try:
                            p = lift_depth(o, depth, script.slice_radius,
                                           rig.intrinsics)
                        except NoValidDepth:
                            continue  # absent for this camera this frame
                        kp3d[o.keypoint] = p * (
                            (p[2] + depth_offsets[o.keypoint]) / p[2])
                per_rig_obs[rig.rig_id] = obs
                per_rig_depth[rig.rig_id] = depth
                per_rig_kp3d[rig.rig_id] = kp3d
                per_rig_parts[rig.rig_id] = [
                    j for j in range(body.NUM_KEYPARTS) if pw[j].present()]
                t0 = watch.add("lift", t0)

            # fusion barrier: world-frame weighted mean per keypoint
            fused = {}
            for kp in range(body.NUM_KEYPOINTS):
                entries = []
                for rig in scene.rigs:
                    if kp in per_rig_kp3d[rig.rig_id]:
                        conf = per_rig_obs[rig.rig_id][kp].confidence
                        entries.append((per_rig_kp3d[rig.rig_id][kp], conf,
                                        rig.world_pose()))
                if entries:
                    fused[kp] = fuse(entries, kp)
            t0 = watch.add("fuse", t0)

            # per-camera masks and clouds
            chunks: dict = {}
            for rig in scene.rigs:
                parts_here = per_rig_parts[rig.rig_id]
                if not parts_here:
                    continue
                pose_cam = rig.world_pose()
                anchors = keyparts.project_keypoints_to_mask(
                    fused, {o.keypoint: o for o in per_rig_obs[rig.rig_id]},
                    pose_cam, rig.intrinsics, per_rig_depth[rig.rig_id],
                    script.slice_radius, parts_here)
                trapezoids = []
                for j in parts_here:
                    ends = keyparts.part_endpoints(j, anchors)
                    if ends is None:
                        continue
                    (px_u, d_u), (px_l, d_l) = ends
                    if d_u <= 0 or d_l <= 0:
                        continue
                    trapezoids.append(keyparts.trapezoid_for_part(
                        j, (px_u, px_l), (d_u, d_l), rig.intrinsics,
                        dims.cylinder_radius(j), script.mask_inflation))
                mask = keyparts.paint_masks(trapezoids, rig.intrinsics.width,
                                            rig.intrinsics.height)
                frame_masks[rig.rig_id] = mask
                clouds = keyparts.extract_clouds(
                    mask, per_rig_depth[rig.rig_id], pose_cam, rig.intrinsics,
                    robot_links, cloud_params, rig.rig_id)
                for cloud in clouds:
                    chunks.setdefault(cloud.part, []).append(cloud.points)
            merged = {p: np.vstack(c) for p, c in chunks.items()}
            t0 = watch.add("extract", t0)

            # tree: build from the union of per-camera part presence
            union_parts = sorted({j for parts_list in per_rig_parts.values()
                                  for j in parts_list})
            tree = body.build_tree(union_parts)
            tree = body.augment(
                tree, {k: f.position_world for k, f in fused.items()}, dims)
            tree = registration.register_tree(tree, merged, fused, dims,
                                              script.model_samples)
            t0 = watch.add("register", t0)

            # pose errors against ground truth
            axis_errs, pos_errs = [], []
            for j in union_parts:
                node = tree.nodes[j]
                if not gt_present[j] or node.state is None:
                    continue
                gt_cyl = pose.states[j].cylinder()
                est = node.state
                cosang = float(np.clip(np.dot(gt_cyl.axis, est.axis), -1.0, 1.0))
                axis_errs.append(float(np.degrees(np.arccos(cosang))))
                est_mid = est.base + est.axis * (0.5 * est.height)
                pos_errs.append(float(np.linalg.norm(gt_cyl.midpoint - est_mid)))
            metrics.axis_errors_deg.extend(axis_errs)
            metrics.position_errors_m.extend(pos_errs)

            # scheduler bookkeeping and planning
            predicted = [j in union_parts for j in range(body.NUM_KEYPARTS)]
            for j in range(body.NUM_KEYPARTS):
                node = tree.nodes[j]
                if predicted[j] and node.state is not None:
                    tracked[j] = [node.state.cylinder(), sched_params.sigma_obs]
                elif j in tracked:
                    tracked[j][1] = min(tracked[j][1] + sched_params.growth * dt,
                                        sched_params.sigma_cap)
            steer = [rig for rig in scene.rigs if rig.active]
            if steer and tracked and scene.robot is not None:
                estimate = scheduler.estimate_collision(
                    {j: c for j, (c, _s) in tracked.items()},
                    {j: s for j, (_c, s) in tracked.items()},
                    scene.robot.links_at, sched_params, t)
                traj = scheduler.plan(
                    steer, estimate,
                    {j: c.midpoint for j, (c, _s) in tracked.items()},
                    sched_params)
                for rig in steer:
                    rig.command(*traj.commands[rig.rig_id][0])
            t0 = watch.add("schedule", t0)
        except Exception:  # per-frame errors never abort the trial
            log.exception("frame %d pipeline error (%s)", frame, script.name)
            predicted = [False] * body.NUM_KEYPARTS
            tree = None  # a failed frame has no tree, not even a partial one

        row = {"frame": frame, "time": t}
        for j in range(body.NUM_KEYPARTS):
            p, g = predicted[j], gt_present[j]
            row[f"pred_{j}"] = int(p)
            row[f"true_{j}"] = int(g)
            if p and g:
                metrics.tp += 1
            elif p and not g:
                metrics.fp += 1
            elif g:
                metrics.fn += 1
            else:
                metrics.tn += 1
            if p == g:
                metrics.per_part_correct[j] += 1
        metrics.rows.append(row)

        if frame == dump_frame:
            dump = {"masks": frame_masks, "clouds": merged, "tree": tree}

        scene.step(dt)

    if out_dir is not None:
        write_metrics(metrics, Path(out_dir))
        if dump is not None:
            write_frame_dump(dump, Path(out_dir), dump_frame)
    return metrics


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt_float(x: float) -> str:
    return repr(float(x))


def write_metrics(metrics: TrialMetrics, out_dir: Path) -> dict:
    """CSV of per-frame rows plus a JSON summary; both byte-deterministic.

    Wall-clock stage timings are written to ``timings.json`` separately so
    the metrics files stay identical across reruns of the same seed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{metrics.name}_{metrics.config}_{metrics.seed}"
    csv_path = out_dir / f"{stem}_frames.csv"
    cols = ["frame", "time"]
    cols += [f"pred_{j}" for j in range(body.NUM_KEYPARTS)]
    cols += [f"true_{j}" for j in range(body.NUM_KEYPARTS)]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(cols) + "\n")
        for row in metrics.rows:
            vals = [str(row["frame"]), _fmt_float(row["time"])]
            vals += [str(row[f"pred_{j}"]) for j in range(body.NUM_KEYPARTS)]
            vals += [str(row[f"true_{j}"]) for j in range(body.NUM_KEYPARTS)]
            f.write(",".join(vals) + "\n")

    summary_path = out_dir / f"{stem}_summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(metrics.summary(), f, indent=2, sort_keys=True)
        f.write("\n")

    timing_path = out_dir / f"{stem}_timings.json"
    with open(timing_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({k: round(v, 3) for k, v in sorted(metrics.timings_ms.items())},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    return {"frames_csv": csv_path, "summary_json": summary_path,
            "timings_json": timing_path}


def write_frame_dump(dump: dict, out_dir: Path, frame: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for rig_id, mask in dump["masks"].items():
        path = out_dir / f"frame{frame}_{rig_id}_mask.txt"
        np.savetxt(path, mask.labels, fmt="%d")
    for part, pts in dump["clouds"].items():
        path = out_dir / f"frame{frame}_part{part}_cloud.xyz"
        with open(path, "w", encoding="utf-8") as f:
            for p in pts:
                f.write(f"{p[0]!r} {p[1]!r} {p[2]!r}\n")
    tree = dump["tree"]
    if tree is None:  # the frame failed before its tree was registered
        return
    state = {}
    for j, node in tree.nodes.items():
        entry = {"present": node.present, "supplemented": node.supplemented,
                 "registered": node.registered, "note": node.note}
        if node.state is not None:
            entry["base"] = [float(v) for v in node.state.base]
            entry["axis"] = [float(v) for v in node.state.axis]
            entry["height"] = node.state.height
            entry["radius"] = node.state.radius
        state[body.KEYPART_NAMES[j]] = entry
    with open(out_dir / f"frame{frame}_tree.json", "w", encoding="utf-8") as f:
        json.dump(state, f, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# configuration comparison


def _trial_task(args):
    text, config, seed = args
    script = scenario.parse(text)
    m = run_trial(script, config=config, seed=seed)
    return config, seed, m.accuracy, m.recall


def compare_configs(script: ScenarioScript, configs=CONFIGS, trials: int = 10,
                    jobs: int = 1) -> dict:
    """Mean/std keypart-recognition accuracy per camera configuration.

    Runs ``trials`` seeds (script.seed, script.seed+1, ...) per config.
    Trials are independent, so they may run in a process pool; results
    are reduced in a fixed order either way. ``trials < 1`` raises
    ``ConfigError``.
    """
    if trials < 1:
        raise scenario.ConfigError(f"need at least 1, got {trials}", field_name="trials")
    tasks = [(scenario.emit(script), config, script.seed + k)
             for config in configs for k in range(trials)]
    if jobs > 1:
        with get_context("spawn").Pool(jobs) as pool:
            results = pool.map(_trial_task, tasks)
    else:
        results = [_trial_task(t) for t in tasks]

    table: dict = {config: {"accuracies": [], "recalls": []} for config in configs}
    for config, _seed, acc, rec in results:
        table[config]["accuracies"].append(acc)
        table[config]["recalls"].append(rec)
    for config in configs:
        accs = np.array(table[config]["accuracies"])
        recs = np.array(table[config]["recalls"])
        table[config]["mean_accuracy"] = float(accs.mean())
        table[config]["std_accuracy"] = float(accs.std())
        table[config]["mean_recall"] = float(recs.mean())
    return table


def format_comparison(per_scene: dict) -> str:
    """Text table: one row per config, one column per scene plus total."""
    scenes = list(per_scene)
    configs = list(next(iter(per_scene.values())))
    lines = []
    header = ["config".ljust(14)] + [s.ljust(12) for s in scenes] + ["total"]
    lines.append("  ".join(header))
    for config in configs:
        cells = [config.ljust(14)]
        means = []
        for s in scenes:
            m = per_scene[s][config]["mean_accuracy"]
            sd = per_scene[s][config]["std_accuracy"]
            means.append(m)
            cells.append(f"{m:.4f}±{sd:.3f}".ljust(12))
        cells.append(f"{np.mean(means):.4f}")
        lines.append("  ".join(cells))
    return "\n".join(lines)

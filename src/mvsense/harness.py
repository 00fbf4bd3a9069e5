"""Trial execution in three pieces: simulator loop, pipeline, scorer.

``run_trial`` runs the simulator. Per frame it renders each rig's depth
image, checks the synthetic detector's pixels and confidences
(``keypoints.detect`` over ``simulator.synthetic_detect``) and hands the
result to the pipeline as a ``FrameInput``; then it steps the scene.

``Pipeline.step`` is the paper's per-frame loop and knows nothing of the
simulator or the scene script: it is built from its rigs, a body model
and its frame period. Per camera it updates one presence window over the
17 keypoint confidences and the 10 keypart max-confidences and lifts the
present keypoints through the depth image into one (C, 17, 3) stack.
One ``fuse`` call turns the stack into the frame's (17, 3) world
keypoint table, NaN rows unfused; then, per camera, the table's mask
anchors place the trapezoids that paint masks and extract keypart clouds.
Last it builds the cylinder tree, which takes a copy of the table to
supplement and register from, and plans the next camera commands. It
fills a ``FrameResult`` one stage at a time, so a frame that fails keeps
what it made before the failure; the failure is logged and the frame
predicts every part absent.

``TrialMetrics.score`` is the only code that reads ground truth.
Keypart recognition is scored as binary classification: a part truly
exists in a frame when its cylinder midpoint lies inside the scenario's
workspace volume (presence is scored globally, not per camera). Metrics
files are deterministic for a fixed script and seed; wall-clock timings
go to a separate sidecar that is excluded from that guarantee.
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
from .keypoints import (SLICE_RADIUS, NoValidDepth, PresenceWindow, detect, fuse,
                        keypoint_depth_offsets, lift_depth)
from .scenario import CONFIGS, ScenarioScript

log = logging.getLogger("mvsense.harness")


@dataclass
class FrameInput:
    """One frame as the cameras delivered it, keyed by rig id."""

    frame: int
    t: float
    depth: dict          # rig id -> (H, W) depth image, 0 where invalid
    detections: dict     # rig id -> (pixels (17, 2), confidences (17,)), keypoint order
    poses: dict          # rig id -> camera-to-world RigidTransform
    robot_links: list    # robot link cylinders at t


@dataclass
class FrameResult:
    """What ``Pipeline.step`` made of one frame, in stage order.

    A failed frame keeps the stages it finished; ``tree`` is set only once
    registration returned.
    """

    fused: np.ndarray | None = None             # (17, 3) world keypoints, NaN rows unfused
    masks: dict = field(default_factory=dict)   # rig id -> keyparts.MaskImage
    clouds: dict = field(default_factory=dict)  # part -> (N, 3) world points
    parts: list = field(default_factory=list)   # parts some camera holds present
    tree: body.BodyTree | None = None
    plan: scheduler.ViewpointTrajectory | None = None
    failed: bool = False

    def predicted(self) -> list:
        """Presence per keypart; a failed frame predicts every part absent."""
        return [not self.failed and j in self.parts for j in range(body.NUM_KEYPARTS)]


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
    axis_error_parts: list = field(default_factory=list)  # each error's part
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

    def score(self, frame: int, t: float, result: FrameResult, pose,
              workspace_min, workspace_max) -> None:
        """Add one frame: pose errors of its registered tree, presence counts.

        ``pose`` is the ground-truth human pose; a part truly exists when
        its midpoint lies in the workspace box (``gt_part_presence``). A
        failed frame adds no pose error, even one that failed after registering.
        """
        present = gt_part_presence(pose, workspace_min, workspace_max)
        if not result.failed:
            for j in result.parts:
                est = result.tree.nodes[j].state
                if not present[j] or est is None:
                    continue
                gt_cyl = pose.cylinders[j]
                cosang = float(np.clip(np.dot(gt_cyl.axis, est.axis), -1.0, 1.0))
                self.axis_errors_deg.append(float(np.degrees(np.arccos(cosang))))
                self.axis_error_parts.append(j)
                est_mid = est.base + est.axis * (0.5 * est.height)
                self.position_errors_m.append(float(np.linalg.norm(gt_cyl.midpoint - est_mid)))

        row = {"frame": frame, "time": t}
        for j, (p, g) in enumerate(zip(result.predicted(), present)):
            row[f"pred_{j}"] = int(p)
            row[f"true_{j}"] = int(g)
            if p and g:
                self.tp += 1
            elif p and not g:
                self.fp += 1
            elif g:
                self.fn += 1
            else:
                self.tn += 1
            if p == g:
                self.per_part_correct[j] += 1
        self.rows.append(row)

    def summary(self) -> dict:
        by_part = {name: [] for name in body.KEYPART_NAMES}
        for j, error in zip(self.axis_error_parts, self.axis_errors_deg):
            by_part[body.KEYPART_NAMES[j]].append(error)
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
            "pose_error_by_part": {
                name: {"mean_axis_error_deg": float(np.mean(e)) if e else None,
                       "samples": len(e)}
                for name, e in by_part.items()},
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
    human = simulator.GroundTruthHuman(
        np.array([t for t, _ in script.human_waypoints]),
        np.array([d for _, d in script.human_waypoints]),
        script.dims,
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
        detector_noise=script.detector,
        depth_noise=script.depth_noise,
    )


def prop_cylinders(script: ScenarioScript) -> list:
    up = np.array([0.0, 0.0, 1.0])
    return [Cylinder(np.asarray(p.pos, dtype=np.float64), up, p.height, p.radius)
            for p in script.props]


def gt_part_presence(pose, workspace_min, workspace_max) -> list:
    mids = np.array([c.midpoint for c in pose.cylinders])
    return ((mids >= workspace_min) & (mids <= workspace_max)).all(axis=1).tolist()


class _Stopwatch:
    def __init__(self, sink: dict):
        self.sink = sink

    def add(self, key: str, t0: float) -> float:
        t1 = time.perf_counter()
        self.sink[key] = self.sink.get(key, 0.0) + (t1 - t0) * 1000.0
        return t1


class Pipeline:
    """The per-frame perception loop over a fixed set of camera rigs.

    It holds the state that outlives a frame: each rig's presence window
    over its 17 keypoints and then its 10 keyparts, and ``tracks``, each
    tracked part's last registered cylinder and uncertainty, which
    ``scheduler.update_tracks`` ages and restarts. ``robot_links_at(t)``
    gives the robot's links over the scheduler's horizon; without it (no
    robot) the cameras are never steered. Steering commands the rigs; the
    caller moves them. Wall-clock stage times add up in ``timings_ms``.

    It is built from what a deployed loop has: its rigs, the body model
    ``dims`` and the frame period ``dt`` in seconds. Every other setting
    is a stage's own constant or default.
    """

    cloud_params = keyparts.CloudParams()
    scheduler_params = scheduler.SchedulerParams()

    def __init__(self, rigs: list, dims: body.PartDimensions, dt: float, robot_links_at=None):
        self.rigs = rigs
        self.dims = dims
        self.dt = dt
        self.robot_links_at = robot_links_at
        self.depth_offsets = keypoint_depth_offsets(dims)
        self.windows = {rig.rig_id: PresenceWindow() for rig in rigs}
        self.tracks: dict = {}  # part -> (last registered Cylinder, sigma)
        self.timings_ms: dict = {}

    def step(self, inp: FrameInput) -> FrameResult:
        """Run one frame; a stage that raises is logged and fails the frame."""
        result = FrameResult()
        try:
            self._run(inp, result)
        except Exception:  # per-frame errors never abort the trial
            log.exception("frame %d pipeline error", inp.frame)
            result.failed = True
        return result

    def _run(self, inp: FrameInput, result: FrameResult) -> None:
        dims = self.dims
        watch = _Stopwatch(self.timings_ms)
        t0 = time.perf_counter()

        # per camera: presence window, then depth lift of present keypoints
        lifts = np.full((len(self.rigs), body.NUM_KEYPOINTS, 3), np.nan)
        seen: dict = {}
        for c, rig in enumerate(self.rigs):
            pixels, conf = inp.detections[rig.rig_id]
            part_conf = np.where(body.PART_KEYPOINT_MASK, conf, -np.inf).max(axis=1)
            window = self.windows[rig.rig_id]
            window.update(np.concatenate([conf, part_conf]))
            present = window.present()
            for kp in np.flatnonzero(present[:body.NUM_KEYPOINTS]).tolist():
                try:
                    lifts[c, kp] = lift_depth(pixels[kp], inp.depth[rig.rig_id],
                                              SLICE_RADIUS, rig.intrinsics)
                except NoValidDepth:
                    continue  # absent for this camera this frame
            seen[rig.rig_id] = np.flatnonzero(present[body.NUM_KEYPOINTS:]).tolist()
        # push each lift deeper along its ray, from the body surface to the joint
        z = lifts[..., 2:]
        lifts *= (z + self.depth_offsets[:, None]) / z
        t0 = watch.add("lift", t0)

        # fusion barrier: world-frame weighted mean per keypoint, NaN rows unfused
        result.fused, _confidence = fuse(
            lifts, ~np.isnan(lifts[..., 2]),
            np.stack([inp.detections[rig.rig_id][1] for rig in self.rigs]),
            [inp.poses[rig.rig_id] for rig in self.rigs])
        t0 = watch.add("fuse", t0)

        # per-camera masks and clouds
        chunks: dict = {}
        for rig in self.rigs:
            parts_here = seen[rig.rig_id]
            if not parts_here:
                continue
            depth, pose_cam = inp.depth[rig.rig_id], inp.poses[rig.rig_id]
            trapezoids = keyparts.project_keypoints_to_mask(
                result.fused, inp.detections[rig.rig_id], pose_cam, rig.intrinsics,
                depth, SLICE_RADIUS, parts_here, dims.radius, keyparts.MASK_INFLATION)
            mask = keyparts.paint_masks(trapezoids, rig.intrinsics.width,
                                        rig.intrinsics.height)
            result.masks[rig.rig_id] = mask
            clouds = keyparts.extract_clouds(
                mask, depth, pose_cam, rig.intrinsics, inp.robot_links, self.cloud_params)
            for cloud in clouds:
                chunks.setdefault(cloud.part, []).append(cloud.points)
        result.clouds = {p: np.vstack(c) for p, c in chunks.items()}
        t0 = watch.add("extract", t0)

        # tree: build from the union of per-camera part presence
        result.parts = sorted({j for parts in seen.values() for j in parts})
        tree = body.augment(body.build_tree(result.parts), result.fused, dims)
        result.tree = registration.register_tree(tree, result.clouds, dims)
        t0 = watch.add("register", t0)

        # scheduler: age the tracks, restart the registered parts', plan
        params = self.scheduler_params
        nodes = result.tree.nodes
        registered = [(j, nodes[j].state.cylinder()) for j in result.parts
                      if nodes[j].state is not None]
        scheduler.update_tracks(self.tracks, registered, self.dt, params)
        steer = [rig for rig in self.rigs if rig.active]
        if steer and self.tracks and self.robot_links_at is not None:
            estimate = scheduler.estimate_collision(self.tracks, self.robot_links_at,
                                                    params, inp.t)
            result.plan = scheduler.plan(steer, estimate, params)
            for rig in steer:
                rig.command(*result.plan.commands[rig.rig_id][0])
        watch.add("schedule", t0)


def sense(scene: simulator.Scene, pose, props: list, frame: int,
          timings_ms: dict) -> FrameInput:
    """Render and detect every rig of ``scene`` at its current time."""
    watch = _Stopwatch(timings_ms)
    t = scene.t
    robot_links = scene.robot.links_at(t) if scene.robot else []
    occluders = list(robot_links) + props
    parts = pose.cylinders
    inp = FrameInput(frame, t, {}, {}, {}, robot_links)
    t0 = time.perf_counter()
    for ci, rig in enumerate(scene.rigs):
        inp.depth[rig.rig_id] = simulator.render_depth(
            rig, parts + occluders, scene.depth_noise, scene.rng(simulator.STREAM_DEPTH, ci))
        t0 = watch.add("render", t0)
        cam_pose = inp.poses[rig.rig_id] = rig.world_pose()
        inp.detections[rig.rig_id] = detect(simulator.synthetic_detect(
            rig.intrinsics, cam_pose, pose.keypoints, parts, occluders, scene.detector_noise,
            scene.rng(simulator.STREAM_DETECT, ci)))
        t0 = watch.add("detect", t0)
    return inp


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

    pipeline = Pipeline(scene.rigs, script.dims, dt,
                        scene.robot.links_at if scene.robot else None)
    metrics = TrialMetrics(script.name, config, scene.seed, n_frames,
                           timings_ms=pipeline.timings_ms)
    dump = None
    for frame in range(n_frames):
        t = scene.t
        pose = scene.human.pose_at(t)
        try:
            inp = sense(scene, pose, props, frame, metrics.timings_ms)
        except Exception:  # a failed render or detector fails the frame only
            log.exception("frame %d sensing error (%s)", frame, script.name)
            result = FrameResult(failed=True)
        else:
            result = pipeline.step(inp)
        metrics.score(frame, t, result, pose, script.workspace_min, script.workspace_max)
        if frame == dump_frame:
            dump = result
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


def write_frame_dump(result: FrameResult, out_dir: Path, frame: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for rig_id, mask in result.masks.items():
        path = out_dir / f"frame{frame}_{rig_id}_mask.txt"
        np.savetxt(path, mask.expanded().labels, fmt="%d")
    for part, pts in result.clouds.items():
        path = out_dir / f"frame{frame}_part{part}_cloud.xyz"
        with open(path, "w", encoding="utf-8") as f:
            for x, y, z in pts.tolist():
                f.write(f"{x!r} {y!r} {z!r}\n")
    if result.failed:  # no tree, not even one registered before the failure
        return
    state = {}
    for j, node in result.tree.nodes.items():
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
    are reduced in a fixed order either way. ``trials < 1`` or ``jobs < 1``
    raises ``ConfigError``.
    """
    if trials < 1:
        raise scenario.ConfigError(f"need at least 1, got {trials}", field_name="trials")
    if jobs < 1:
        raise scenario.ConfigError(f"need at least 1, got {jobs}", field_name="jobs")
    text = scenario.emit(script)
    tasks = [(text, config, script.seed + k) for config in configs for k in range(trials)]
    if jobs > 1:
        with get_context("spawn").Pool(min(jobs, len(tasks))) as pool:
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

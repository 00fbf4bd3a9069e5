"""Frame clock, host-speed probe and span tracer, attached from outside.

The clock and the tracer patch a function at the binding its caller
looks it up through (``harness.fuse``, not ``keypoints.fuse``), so the
program itself is unchanged. ``unittest.mock.patch.object`` restores
every binding when the ``with`` block ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
from scipy.spatial import cKDTree

from mvsense import body, harness, keyparts, registration, scheduler, simulator

ICP_SKIP_NOTES = ("empty cloud", "degenerate cloud", "axial stub cloud")


# Host-speed probe: a fixed mix of the work a frame does, on inputs fixed
# at import. Small-array calls (a KD-tree query, a 3x3 SVD, a Python loop)
# track interpreter-bound stages; whole-image array passes track the
# memory-bound ones (render, masks), which slow down differently.
_rng = np.random.default_rng(0)
_PROBE_PTS = _rng.random((128, 3))
_PROBE_QUERY = _rng.random((128, 3))
_PROBE_MAT = _rng.random((3, 3))
_PROBE_IMAGE = _rng.random((480, 640))
_PROBE_LABELS = _rng.integers(0, 10, (480, 640))
# The probe's median time on the reference host (2-core x86 VM).
REF_PROBE_S = 2.0e-3
# Frames on either side whose probes set a frame's local host speed.
PROBE_HALF_WINDOW = 4


def probe() -> float:
    """Seconds one run of the fixed probe kernel takes right now."""
    t0 = time.perf_counter()
    for _ in range(4):
        cKDTree(_PROBE_PTS).query(_PROBE_QUERY)
        np.linalg.svd(_PROBE_MAT)
        sum(j * 0.5 for j in range(100))
    scaled = _PROBE_IMAGE * 2.0 + 1.0
    int(((_PROBE_LABELS == 3) & (scaled > 1.5)).sum())
    return time.perf_counter() - t0


def speed_scale(probes: list) -> list:
    """Per sample: REF_PROBE_S over the median probe time around it.

    Multiplying a wall time by its scale expresses it at the reference
    host's speed. The host this runs on changes speed by up to 2x within
    seconds (other tenants); the probe tracks that, the program does not.
    """
    half = PROBE_HALF_WINDOW
    return [REF_PROBE_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]


class FrameClock:
    """One clock read per frame, at the end of ``simulator.Scene.step``.

    A frame's time runs from the previous step (or from ``start_trial``)
    to its own step, so it covers the whole loop, simulator included.
    After the read the host-speed probe runs once; its time belongs to
    no frame.
    """

    def __init__(self):
        self.samples = []   # wall seconds per frame, in order
        self.probes = []    # probe seconds, one after each frame
        self.offsets = []   # index in samples of each trial's first frame
        self.trial = -1
        self.frame = 0
        self._last = 0.0

    def start_trial(self, trial: int) -> None:
        self.trial = trial
        self.frame = 0
        self.offsets.append(len(self.samples))
        self._last = time.perf_counter()

    def patches(self) -> list:
        step = simulator.Scene.step
        clock = self

        def timed_step(scene, dt):
            step(scene, dt)
            clock.samples.append(time.perf_counter() - clock._last)
            clock.frame += 1
            clock.probes.append(probe())
            clock._last = time.perf_counter()

        return [(simulator.Scene, "step", timed_step)]


class ErrorCounter(logging.Handler):
    """Counts the per-frame errors ``run_trial`` logs and scores as absent."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.count = 0

    def emit(self, record):
        self.count += 1


def trial_record(metrics, out_dir) -> dict:
    """What the benchmark keeps of a finished trial.

    Confusion counts, pose errors, and a digest of the trial's metrics
    files: sha256 over the frames CSV and summary JSON exactly as
    ``harness.write_metrics`` writes them into ``out_dir``.
    """
    paths = harness.write_metrics(metrics, Path(out_dir))
    h = hashlib.sha256()
    for key in ("frames_csv", "summary_json"):
        h.update(paths[key].read_bytes())
    return {
        "key": [metrics.name, metrics.config, metrics.seed],
        "frames": metrics.frames,
        "samples": metrics.total_samples,
        "tp": metrics.tp, "tn": metrics.tn, "fp": metrics.fp, "fn": metrics.fn,
        "accuracy": metrics.accuracy,
        "recall": metrics.recall,
        "axis_errors_deg": list(metrics.axis_errors_deg),
        "position_errors_m": list(metrics.position_errors_m),
        "digest": h.hexdigest()[:16],
    }


def install_worker_clock(log_dir: str) -> None:
    """Time every frame a ``compare_configs`` pool worker runs.

    After each trial the worker appends one JSON line to
    ``<log_dir>/<pid>.jsonl``: the trial's record plus its frame and
    probe times. The patches last for the worker's life; the pool ends
    the process.
    """
    clock = FrameClock()
    errors = ErrorCounter()
    logging.getLogger("mvsense.harness").addHandler(errors)
    run_trial = harness.run_trial
    stem = os.path.join(log_dir, str(os.getpid()))

    def timed_trial(*args, **kwargs):
        first = len(clock.samples)
        before = errors.count
        clock.start_trial(len(clock.offsets))
        metrics = run_trial(*args, **kwargs)
        line = trial_record(metrics, stem + "-metrics")
        line["failed_frames"] = errors.count - before
        line["frame_s"] = clock.samples[first:]
        line["probe_s"] = clock.probes[first:]
        with open(stem + ".jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps(line) + "\n")
        return metrics

    for owner, attr, new in clock.patches() + [(harness, "run_trial", timed_trial)]:
        setattr(owner, attr, new)


def read_worker_logs(log_dir) -> list:
    """Per worker, its trial lines in the order it ran them."""
    out = []
    for path in sorted(Path(log_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as f:
            out.append([json.loads(line) for line in f])
    return out


class Tracer:
    """In-memory spans plus counters taken at the same call boundaries.

    A span is ``(name, start, end, parent, trial, frame)``; ``parent`` is
    the index of the enclosing span or -1.
    """

    def __init__(self, clock: FrameClock):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def wrap(self, fn, name, observe=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts[name + ".calls"] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, clock.trial, clock.frame)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def patches(self) -> list:
        return [(owner, attr, self.wrap(getattr(owner, attr), name, observe))
                for owner, attr, name, observe in SITES]

    def times(self, scale: list) -> tuple:
        """Per span name: (total seconds, self seconds); plus top-level total.

        Each span is scaled by its frame's entry in ``scale`` (see
        ``speed_scale``). Self time is the span minus its child spans.
        """
        offsets = self.clock.offsets
        dur = [(t1 - t0) * scale[offsets[trial] + frame]
               for _name, t0, t1, _parent, trial, frame in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        total = defaultdict(float)
        own = defaultdict(float)
        top = 0.0
        for i, (name, _t0, _t1, parent, _trial, _frame) in enumerate(self.spans):
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            if parent < 0:
                top += dur[i]
        return total, own, top

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("name,start_s,end_s,parent,trial,frame\n")
            for name, t0, t1, parent, trial, frame in self.spans:
                f.write(f"{name},{t0!r},{t1!r},{parent},{trial},{frame}\n")


@contextlib.contextmanager
def patched(patches: list):
    with contextlib.ExitStack() as stack:
        for owner, attr, new in patches:
            stack.enter_context(mock.patch.object(owner, attr, new))
        yield


def _pixels(counts, args, _result):
    k = args[0].intrinsics
    counts["simulator.render_depth.pixels"] += k.width * k.height


def _labeled(counts, _args, mask):
    counts["keyparts.paint_masks.labeled_px"] += int(
        (mask.labels != keyparts.BACKGROUND).sum())


def _points_out(counts, _args, clouds):
    counts["keyparts.extract_clouds.points_out"] += sum(len(c.points) for c in clouds)


def _cluster_keep(counts, args, kept):
    counts["filters.largest_euclidean_cluster.points_in"] += len(args[0])
    counts["filters.largest_euclidean_cluster.points_out"] += len(kept)


def _icp(counts, _args, result):
    counts["registration.icp_register.iterations"] += result.iterations
    counts["registration.icp_register.converged"] += bool(result.converged)
    counts["registration.icp_register.skipped"] += result.note in ICP_SKIP_NOTES


def _plan_mode(counts, _args, traj):
    counts["scheduler.plan.exhaustive"] += traj.mode == "exhaustive"


# Every traced binding: (owner the caller looks it up in, attribute,
# span name as <defining module>.<function>, counter hook).
SITES = (
    (simulator, "render_depth", "simulator.render_depth", _pixels),
    (simulator, "synthetic_detect", "simulator.synthetic_detect", None),
    (harness, "lift_depth", "keypoints.lift_depth", None),
    (harness, "fuse", "keypoints.fuse", None),
    (keyparts, "project_keypoints_to_mask", "keyparts.project_keypoints_to_mask", None),
    (keyparts, "paint_masks", "keyparts.paint_masks", _labeled),
    (keyparts, "extract_clouds", "keyparts.extract_clouds", _points_out),
    (keyparts, "voxel_downsample", "filters.voxel_downsample", None),
    (keyparts, "largest_euclidean_cluster", "filters.largest_euclidean_cluster",
     _cluster_keep),
    (body, "build_tree", "body.build_tree", None),
    (body, "augment", "body.augment", None),
    (body, "enforce_joint_constraints", "body.enforce_joint_constraints", None),
    (registration, "register_tree", "registration.register_tree", None),
    (registration, "icp_register", "registration.icp_register", _icp),
    (registration, "frame_from_axis", "geometry.frame_from_axis", None),
    (scheduler, "estimate_collision", "scheduler.estimate_collision", None),
    (scheduler, "plan", "scheduler.plan", _plan_mode),
)
SPAN_NAMES = tuple(name for _owner, _attr, name, _observe in SITES)

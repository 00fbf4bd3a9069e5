"""mvsense benchmark: frame latency, sweep throughput and pose quality.

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced pass. The line
before it records the machine, the thread settings and a digest of every
trial's metrics files. See perfbench/README.md for what each metric means.
"""

import os

# Before numpy is imported, so that spawned pool workers inherit them too.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Set while compare_configs runs: the directory its pool workers log to.
WORKER_LOG_VAR = "PERFBENCH_WORKER_LOG"
if __name__ == "__mp_main__" and os.environ.get(WORKER_LOG_VAR):
    # a spawned pool worker re-runs this file as __mp_main__ before its task
    import spans

    spans.install_worker_clock(os.environ[WORKER_LOG_VAR])

SETUP_PROBES = 3
# Nominal wall time of the reference import probe; on a quiet 2-core x86
# VM it reads 0.5-0.65 s. setup_s is reported at that import speed.
REF_IMPORT_S = 0.5
PARTS = 10  # body.NUM_KEYPARTS: one presence sample per keypart per frame

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p95": "ms",
    "accuracy": "ratio",
    "recall": "ratio",
    "mean_axis_error_deg": "deg",
    "mean_position_error_m": "m",
}

PER_LAYER = {
    "simulator.render_depth.ms_per_frame": "ms",
    "simulator.render_depth.calls": "count",
    "simulator.render_depth.mpixels_per_s": "Mpx/s",
    "simulator.synthetic_detect.ms_per_frame": "ms",
    "simulator.share": "ratio",
    "keypoints.lift_depth.ms_per_frame": "ms",
    "keypoints.lift_depth.calls": "count",
    "keypoints.lift_depth.no_valid_depth_ratio": "ratio",
    "keypoints.fuse.ms_per_frame": "ms",
    "keypoints.fuse.calls": "count",
    "keyparts.project_keypoints_to_mask.ms_per_frame": "ms",
    "keyparts.paint_masks.ms_per_frame": "ms",
    "keyparts.paint_masks.labeled_px": "px/frame",
    "keyparts.extract_clouds.self_ms_per_frame": "ms",
    "keyparts.extract_clouds.points_out": "points/frame",
    "filters.voxel_downsample.ms_per_frame": "ms",
    "filters.largest_euclidean_cluster.ms_per_frame": "ms",
    "filters.largest_euclidean_cluster.calls": "count",
    "filters.cluster_keep_ratio": "ratio",
    "body.ms_per_frame": "ms",
    "registration.register_tree.self_ms_per_frame": "ms",
    "registration.icp_register.ms_per_frame": "ms",
    "registration.icp_register.calls": "count",
    "registration.icp_register.iterations": "count",
    "registration.icp_converged_ratio": "ratio",
    "registration.icp_skipped_ratio": "ratio",
    "geometry.frame_from_axis.calls": "count",
    "geometry.frame_from_axis.ms_per_frame": "ms",
    "scheduler.estimate_collision.ms_per_frame": "ms",
    "scheduler.plan.ms_per_frame": "ms",
    "scheduler.plan.calls": "count",
    "scheduler.plan.exhaustive_ratio": "ratio",
    "harness.self_ms_per_frame": "ms",
    "harness.pool_efficiency": "ratio",
    "scenario.parse_ms": "ms",
    "scenario.validate_ms": "ms",
    "trace_overhead": "ratio",
}


@dataclass
class Pass:
    """Trials run in this process; one record per trial (spans.trial_record)."""

    records: list
    clock: object
    tracer: object = None

    @property
    def frame_s(self) -> list:
        return self.clock.samples

    @property
    def scale(self) -> list:
        import spans

        return spans.speed_scale(self.clock.probes)

    @property
    def frame_ms(self) -> list:
        """Frame times in milliseconds at the reference host's speed."""
        return [s * f * 1000.0 for s, f in zip(self.frame_s, self.scale)]

    @property
    def scaled_s(self) -> float:
        return sum(self.frame_ms) / 1000.0

    def trial_seconds(self) -> dict:
        """Scaled frame time per trial key."""
        ms = self.frame_ms
        ends = self.clock.offsets[1:] + [len(ms)]
        return {tuple(r["key"]): sum(ms[a:b]) / 1000.0
                for r, a, b in zip(self.records, self.clock.offsets, ends)}


@dataclass
class PoolRun:
    """Trials run through compare_configs; records come from the workers."""

    records: list
    results: dict        # (name, config, seed) -> (accuracy, recall) returned
    frame_ms: list       # the workers' frame times, scaled like Pass.frame_ms
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s, each call scaled by its workers' median


def run_probe(*args) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> dict:
    """Medians over several fresh-process set-up probes.

    Each probe is followed by the reference import probe; ``setup_s`` is
    the median of set-up wall time times ``REF_IMPORT_S`` over the
    reference's, i.e. set-up time at the reference host's import speed.
    ``raw_setup_s`` is the median wall time unscaled.
    """
    runs = []
    for _ in range(SETUP_PROBES):
        run = run_probe(workload, str(seed))
        run["raw_setup_s"] = run["setup_s"]
        run["setup_s"] *= REF_IMPORT_S / run_probe("reference")["import_s"]
        runs.append(run)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def failed_record(script, config, seed) -> dict:
    frames = int(round(script.duration * script.frame_rate))
    return {"key": [script.name, config, seed], "frames": frames,
            "failed_frames": frames, "raised": True}


def run_pass(trial_set: list, out_dir: Path, traced: bool) -> Pass:
    """Run every trial in this process, one after another."""
    import spans
    from mvsense import harness

    clock = spans.FrameClock()
    tracer = spans.Tracer(clock) if traced else None
    patches = clock.patches() + (tracer.patches() if traced else [])
    errors = spans.ErrorCounter()
    logger = logging.getLogger("mvsense.harness")
    logger.addHandler(errors)
    records = []
    try:
        with spans.patched(patches):
            for i, (script, config, seed) in enumerate(trial_set):
                before = errors.count
                clock.start_trial(i)
                try:
                    metrics = harness.run_trial(script, config=config, seed=seed)
                except Exception:
                    traceback.print_exc()
                    records.append(failed_record(script, config, seed))
                    continue
                # between trials, so outside every frame's time
                records.append({**spans.trial_record(metrics, out_dir),
                                "failed_frames": errors.count - before})
    finally:
        logger.removeHandler(errors)
    return Pass(records, clock, tracer)


def run_pool(workload, scripts: list, rounds: int, jobs: int, log_dir: Path) -> PoolRun:
    """The same trials through ``compare_configs(jobs=nproc)``.

    The workers time their own frames and probe the host speed (see
    ``spans.install_worker_clock``); each call's wall time is scaled by
    the median speed scale its workers saw.
    """
    import spans
    from mvsense import harness

    run = PoolRun([], {}, [])
    for i, script in enumerate(scripts):
        call_dir = log_dir / f"call{i}"
        call_dir.mkdir(parents=True)
        os.environ[WORKER_LOG_VAR] = str(call_dir)
        t0 = time.perf_counter()
        try:
            table = harness.compare_configs(script, workload.configs,
                                            trials=rounds, jobs=jobs)
        except Exception:
            traceback.print_exc()
            run.records += [failed_record(script, c, script.seed + r)
                            for c in workload.configs for r in range(rounds)]
            continue
        finally:
            wall = time.perf_counter() - t0
            del os.environ[WORKER_LOG_VAR]
        scale = []
        for lines in spans.read_worker_logs(call_dir):
            frame_s = [s for line in lines for s in line.pop("frame_s")]
            worker_scale = spans.speed_scale(
                [p for line in lines for p in line.pop("probe_s")])
            scale += worker_scale
            run.frame_ms += [s * f * 1000.0 for s, f in zip(frame_s, worker_scale)]
            run.records += lines
        run.wall_s += wall
        run.scaled_s += wall * statistics.median(scale)
        for config in workload.configs:
            row = table[config]
            for r, pair in enumerate(zip(row["accuracies"], row["recalls"])):
                run.results[(script.name, config, script.seed + r)] = pair
    # back into trial_set order: script, then config, then seed
    names = [s.name for s in scripts]
    run.records.sort(key=lambda r: (names.index(r["key"][0]),
                                    workload.configs.index(r["key"][1]), r["key"][2]))
    return run


def completed(records: list) -> list:
    return [r for r in records if not r.get("raised")]


def check_records(records: list, trial_set: list, label: str) -> list:
    """One record per trial, in order; every presence sample scored."""
    errs = [] if completed(records) else [f"{label}: no trial completed"]
    keys = [[s.name, c, seed] for s, c, seed in trial_set]
    if [r["key"] for r in records] != keys:
        errs.append(f"{label}: trials ran {[r['key'] for r in records]}, expected {keys}")
    for r in completed(records):
        if r["samples"] != PARTS * r["frames"]:
            errs.append(f"{label}: {r['key']} has {r['samples']} samples over "
                        f"{r['frames']} frames, expected {PARTS} per frame")
    return errs


def check_clock(frame_count: int, records: list, label: str) -> list:
    """The frame clock fired once per frame: the Scene.step hook is live."""
    expected = sum(r["frames"] for r in completed(records))
    if frame_count != expected and len(completed(records)) == len(records):
        return [f"{label}: frame clock fired {frame_count} times for {expected} frames"]
    return []


def check_same_digests(a: list, b: list, label: str) -> list:
    """Byte-identical metrics files, trial by trial."""
    want = {tuple(r["key"]): r["digest"] for r in completed(a)}
    return [f"{label}: metrics files differ for {tuple(r['key'])}"
            for r in completed(b)
            if tuple(r["key"]) in want and want[tuple(r["key"])] != r["digest"]]


def check_pool(pool: PoolRun) -> list:
    """compare_configs returned what its workers' run_trial scored."""
    errs = []
    for r in completed(pool.records):
        got = pool.results.get(tuple(r["key"]))
        if got != (r["accuracy"], r["recall"]):
            errs.append(f"compare_configs returned {got} for {r['key']}, "
                        f"its trial scored {(r['accuracy'], r['recall'])}")
    return errs


def check_pool_matches(plain: Pass, pool: PoolRun) -> list:
    """Pool accuracy and recall equal the in-process pass's, trial by trial."""
    want = {tuple(r["key"]): (r["accuracy"], r["recall"]) for r in completed(plain.records)}
    return [f"pool result {got} for {key} != in-process {want[key]}"
            for key, got in pool.results.items() if key in want and want[key] != got]


def check_wrappers(tracer, workload) -> list:
    """Every wrapper fired; the scheduler's fired exactly when cameras steer.

    A wrapper patched at a binding nobody looks up would read zero.
    """
    import spans

    steer = any(c.endswith("active") for c in workload.configs)
    fired = {name for name, *_ in tracer.spans}
    errs = []
    for name in spans.SPAN_NAMES:
        should = steer or not name.startswith("scheduler.")
        if should and name not in fired:
            errs.append(f"wrapper {name} never fired on {workload.name}")
        if not should and name in fired:
            errs.append(f"wrapper {name} fired on {workload.name}")
    return errs


def quality(records: list) -> dict:
    """Recognition and pose error pooled over every completed trial."""
    done = completed(records)
    tp, tn, fp, fn = (sum(r[k] for r in done) for k in ("tp", "tn", "fp", "fn"))
    axis = [e for r in done for e in r["axis_errors_deg"]]
    pos = [e for r in done for e in r["position_errors_m"]]
    return {
        "accuracy": (tp + tn) / max(1, tp + tn + fp + fn),
        "recall": tp / max(1, tp + fn),
        "mean_axis_error_deg": statistics.fmean(axis) if axis else 0.0,
        "mean_position_error_m": statistics.fmean(pos) if pos else 0.0,
    }


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(timed, setup: dict) -> dict:
    """From the timed pass: in process, or the pool's workers for sweep-parallel."""
    ms = timed.frame_ms
    out = {
        "setup_s": setup["setup_s"],
        "frames_per_s": len(ms) / timed.scaled_s,
        "frame_ms_p50": percentile(ms, 50),
        "frame_ms_p95": percentile(ms, 95),
    }
    out.update(quality(timed.records))
    return out


def per_layer(traced: Pass, plain: Pass, setup: dict, pool, nproc: int) -> dict:
    total, own, top = traced.tracer.times(traced.scale)
    c = traced.tracer.counts
    frames = len(traced.frame_s)
    frame_s = traced.scaled_s

    def per_frame(seconds):
        return seconds * 1000.0 / frames

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    render = total["simulator.render_depth"]
    detect = total["simulator.synthetic_detect"]
    return {
        "simulator.render_depth.ms_per_frame": per_frame(render),
        "simulator.render_depth.calls": c["simulator.render_depth.calls"],
        "simulator.render_depth.mpixels_per_s":
            c["simulator.render_depth.pixels"] / 1e6 / render if render else 0.0,
        "simulator.synthetic_detect.ms_per_frame": per_frame(detect),
        "simulator.share": (render + detect) / frame_s,
        "keypoints.lift_depth.ms_per_frame": per_frame(total["keypoints.lift_depth"]),
        "keypoints.lift_depth.calls": c["keypoints.lift_depth.calls"],
        "keypoints.lift_depth.no_valid_depth_ratio":
            ratio("keypoints.lift_depth.raised", "keypoints.lift_depth.calls"),
        "keypoints.fuse.ms_per_frame": per_frame(total["keypoints.fuse"]),
        "keypoints.fuse.calls": c["keypoints.fuse.calls"],
        "keyparts.project_keypoints_to_mask.ms_per_frame":
            per_frame(total["keyparts.project_keypoints_to_mask"]),
        "keyparts.paint_masks.ms_per_frame": per_frame(total["keyparts.paint_masks"]),
        "keyparts.paint_masks.labeled_px":
            c["keyparts.paint_masks.labeled_px"] / frames,
        "keyparts.extract_clouds.self_ms_per_frame":
            per_frame(own["keyparts.extract_clouds"]),
        "keyparts.extract_clouds.points_out":
            c["keyparts.extract_clouds.points_out"] / frames,
        "filters.voxel_downsample.ms_per_frame":
            per_frame(total["filters.voxel_downsample"]),
        "filters.largest_euclidean_cluster.ms_per_frame":
            per_frame(total["filters.largest_euclidean_cluster"]),
        "filters.largest_euclidean_cluster.calls":
            c["filters.largest_euclidean_cluster.calls"],
        "filters.cluster_keep_ratio":
            ratio("filters.largest_euclidean_cluster.points_out",
                  "filters.largest_euclidean_cluster.points_in"),
        "body.ms_per_frame": per_frame(total["body.build_tree"] + total["body.augment"]
                                       + total["body.enforce_joint_constraints"]),
        "registration.register_tree.self_ms_per_frame":
            per_frame(own["registration.register_tree"]),
        "registration.icp_register.ms_per_frame":
            per_frame(total["registration.icp_register"]),
        "registration.icp_register.calls": c["registration.icp_register.calls"],
        "registration.icp_register.iterations":
            c["registration.icp_register.iterations"],
        "registration.icp_converged_ratio":
            ratio("registration.icp_register.converged",
                  "registration.icp_register.calls"),
        "registration.icp_skipped_ratio":
            ratio("registration.icp_register.skipped",
                  "registration.icp_register.calls"),
        "geometry.frame_from_axis.calls": c["geometry.frame_from_axis.calls"],
        "geometry.frame_from_axis.ms_per_frame":
            per_frame(total["geometry.frame_from_axis"]),
        "scheduler.estimate_collision.ms_per_frame":
            per_frame(total["scheduler.estimate_collision"]),
        "scheduler.plan.ms_per_frame": per_frame(total["scheduler.plan"]),
        "scheduler.plan.calls": c["scheduler.plan.calls"],
        "scheduler.plan.exhaustive_ratio":
            ratio("scheduler.plan.exhaustive", "scheduler.plan.calls"),
        "harness.self_ms_per_frame": per_frame(frame_s - top),
        "harness.pool_efficiency": (plain.scaled_s / (nproc * pool.scaled_s)
                                    if pool else 0.0),
        "scenario.parse_ms": setup["parse_ms"],
        "scenario.validate_ms": setup["validate_ms"],
        "trace_overhead": frame_s / sum(plain.trial_seconds()[k]
                                        for k in traced.trial_seconds()),
    }


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it.

    compare_configs' spawn pool starts the tracker as a child of this
    process and never waits for it; left alone it outlives the run.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return bench(parse_args(argv))
    finally:
        stop_resource_tracker()


def bench(args) -> int:
    if not (ROOT / "src" / "mvsense" / "__init__.py").is_file():
        print(f"perfbench: no mvsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup = measure_setup(workload.name, args.seed)
    scripts, _ = workloads.build_scripts(workload, args.seed)
    # a traced run's passes cover the first round only: enough for the
    # per-layer shares, and it keeps sweep-parallel's three passes short
    rounds = 1 if args.trace else workloads.rounds_for(workload, args.seconds)
    trial_set = workloads.trial_set(workload, scripts, rounds)
    info = {"workload": workload.name, "seed": args.seed, "rounds": rounds,
            "trials": len(trial_set), **machine()}

    OUT_DIR.mkdir(exist_ok=True)
    errs = []
    plain = pool = traced = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        if workload.pool:
            pool = run_pool(workload, scripts, rounds, info["nproc"], tmp / "pool")
            errs += check_records(pool.records, trial_set, "pool")
            errs += check_clock(len(pool.frame_ms), pool.records, "pool")
            errs += check_pool(pool)
        if args.trace or not workload.pool:
            plain = run_pass(trial_set, tmp / "plain", traced=False)
            errs += check_records(plain.records, trial_set, "untraced")
            errs += check_clock(len(plain.frame_s), plain.records, "untraced")
        if pool is not None and plain is not None:
            errs += check_pool_matches(plain, pool)
            errs += check_same_digests(plain.records, pool.records, "pool")
        if args.trace:
            traced = run_pass(trial_set, tmp / "traced", traced=True)
            errs += check_records(traced.records, trial_set, "traced")
            errs += check_clock(len(traced.frame_s), traced.records, "traced")
            errs += check_same_digests(plain.records, traced.records, "traced")
            errs += check_wrappers(traced.tracer, workload)
            traced.tracer.write_csv(
                OUT_DIR / f"spans_{workload.name}_seed{args.seed}.csv")

    timed = pool or plain
    runs = [r for r in (pool, plain, traced) if r is not None]
    # operations are frames: every frame run, in process or in the pool
    attempted = sum(r["frames"] for run in runs for r in run.records)
    failed = sum(r["failed_frames"] for run in runs for r in run.records)
    # a traced run prints both tables; its result line holds the per-layer one
    tables = [(end_to_end(timed, setup), END_TO_END)]
    if args.trace:
        tables.append((per_layer(traced, plain, setup, pool, info["nproc"]), PER_LAYER))
    values, units = tables[-1]
    info.update({
        "frame_samples": len(timed.frame_ms),
        "unscaled_s": {
            "setup": setup["raw_setup_s"],
            "pool": pool.wall_s if pool else None,
            "untraced_frames": sum(plain.frame_s) if plain else None,
            "traced_frames": sum(traced.frame_s) if traced else None,
        },
        "errors": errs,
        "digests": {"/".join(map(str, r["key"])): r["digest"]
                    for r in completed(timed.records)},
    })
    for table, table_units in tables:
        for name, unit in table_units.items():
            print(f"{name:48s} {table[name]:14.6g} {unit}")
    print(json.dumps(info, sort_keys=True))
    for e in errs:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())

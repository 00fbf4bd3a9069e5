"""Workload definitions: which scripts, configurations and seeds a run uses.

Importing this module imports nothing from mvsense; ``build_scripts``
does, so the set-up probe can time the import together with the script
work.

A workload run is ``rounds`` repetitions of one trial set. Round ``r``
uses scene seed ``base + r`` for every trial, with ``base = 1000 * seed``,
so runs with different ``--seed`` share no trial. This is the seed
layout ``harness.compare_configs(trials=rounds)`` uses as well.
"""

from __future__ import annotations

import dataclasses
import time

# Frame-time samples a run needs so that ten lie beyond its 95th percentile.
MIN_FRAMES = 200
HIRES = (640, 480)
SEED_STRIDE = 1000


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    hires: bool
    pool: bool
    # scripted length of each trial, in seconds at the templates' 10 Hz
    trial_seconds: float
    # wall seconds of one round on a 2-core x86 host; with MIN_FRAMES it
    # sets the number of rounds for a given --seconds. The work is fixed,
    # not clock-bound, so every output is a function of the seed alone.
    round_seconds: float


ALL_CONFIGS = ("multi-active", "multi-fixed", "single-active", "single-fixed")

WORKLOADS = {w.name: w for w in (
    # the criterion-8 traffic, trials run one after another in process
    Workload("desk-sweep", ALL_CONFIGS, hires=False, pool=False,
             trial_seconds=3.0, round_seconds=13.0),
    # pixel-bound stages at 640x480; the scheduler never runs
    Workload("hires-fixed", ("multi-fixed",), hires=True, pool=False,
             trial_seconds=7.0, round_seconds=30.0),
    # desk-sweep's trials through compare_configs' spawn pool
    Workload("sweep-parallel", ALL_CONFIGS, hires=False, pool=True,
             trial_seconds=3.0, round_seconds=9.0),
)}


def rounds_for(workload: Workload, seconds: float) -> int:
    frames = 3 * len(workload.configs) * int(round(workload.trial_seconds * 10))
    return max(-(-MIN_FRAMES // frames), int(round(seconds / workload.round_seconds)))


def _hires(cam):
    """Same camera at 640x480; focal length scaled so no view angle shrinks."""
    w, h = HIRES
    s = min(w / cam.width, h / cam.height)
    return dataclasses.replace(cam, width=w, height=h, fx=cam.fx * s, fy=cam.fy * s,
                               cx=(w - 1) / 2.0, cy=(h - 1) / 2.0)


def build_scripts(workload: Workload, seed: int) -> tuple:
    """Build, emit, parse and validate the workload's scripts.

    Returns ``(scripts, timings)``: the parsed scripts in template order
    and the milliseconds spent in ``scenario.parse`` and
    ``ScenarioScript.validate``.
    """
    from mvsense import scenario

    parse_ms = validate_ms = 0.0
    scripts = []
    for builder in scenario.TEMPLATES.values():
        script = builder(seed=SEED_STRIDE * seed, duration=workload.trial_seconds)
        if workload.hires:
            script.cameras = [_hires(cam) for cam in script.cameras]
        text = scenario.emit(script)
        t0 = time.perf_counter()
        parsed = scenario.parse(text)
        t1 = time.perf_counter()
        parsed.validate()
        t2 = time.perf_counter()
        parse_ms += (t1 - t0) * 1000.0
        validate_ms += (t2 - t1) * 1000.0
        scripts.append(parsed)
    return scripts, {"parse_ms": parse_ms, "validate_ms": validate_ms}


def trial_set(workload: Workload, scripts: list, rounds: int) -> list:
    """``(script, config, scene_seed)`` per trial, in compare_configs order.

    Per script the order is config-major then seed, matching the task list
    ``compare_configs`` builds, so pool and in-process results line up.
    """
    return [(script, config, script.seed + r)
            for script in scripts
            for config in workload.configs
            for r in range(rounds)]

"""Declarative scenario scripts: parse, validate, emit, and templates.

A scenario file is line-oriented and human-editable. The first
non-comment line must be the versioned header ``format mvsense-scenario
1``. Every other line is a directive followed by positional tokens and
``key=value`` pairs; unknown directives or keys are rejected with the
offending line number. ``emit`` produces a canonical text form whose
parse equals the original script, which keeps golden fixtures stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import body

FORMAT_NAME = "mvsense-scenario"
FORMAT_VERSION = 1

CONFIGS = ("multi-active", "multi-fixed", "single-active", "single-fixed")


class ConfigError(ValueError):
    """Scenario file is malformed; carries line and field diagnostics."""

    def __init__(self, message, line=None, field_name=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field '{field_name}'")
        super().__init__(f"{', '.join(loc)}: {message}" if loc else message)
        self.line = line
        self.field_name = field_name


@dataclass(frozen=True)
class CameraSpec:
    cam_id: str
    fx: float = 150.0
    fy: float = 150.0
    cx: float = 71.5
    cy: float = 55.5
    width: int = 144
    height: int = 112
    pos: tuple = (3.0, 0.0, 1.6)
    yaw: float = 3.141592653589793
    pitch: float = -0.3
    pan_min: float = -1.0
    pan_max: float = 1.0
    tilt_min: float = -0.6
    tilt_max: float = 0.6
    rate: float = 1.5
    active: bool = True


@dataclass(frozen=True)
class PropSpec:
    """Static vertical cylinder (pillar-style occluder)."""

    pos: tuple
    radius: float
    height: float


@dataclass
class ScenarioScript:
    name: str = "scenario"
    seed: int = 0
    duration: float = 10.0
    frame_rate: float = 10.0
    # presence windows
    window_m: int = 5
    window_gamma: float = 0.7
    window_alpha: float = 1.0
    # synthetic detector
    sigma_px: float = 1.5
    c_hi: float = 0.9
    c_occ: float = 0.15
    c_out: float = 0.05
    # depth sensor
    depth_sigma: float = 0.005
    depth_drop: float = 0.02
    # keypoint depth slice
    slice_radius: int = 5
    # masks and clouds
    mask_inflation: float = 1.2
    voxel: float = 0.02
    range_min: float = 0.2
    range_max: float = 5.0
    cluster_radius: float = 0.05
    cluster_min: int = 10
    robot_margin: float = 1.1
    depth_gate: float = 0.3
    model_samples: int = 128
    # scheduler
    sched_horizon: int = 3
    sched_gamma: float = 0.9
    sched_interval: float = 0.4
    sched_grid_pan: int = 7
    sched_grid_tilt: int = 5
    sched_growth: float = 0.1
    sched_sigma_obs: float = 0.02
    sched_sigma_cap: float = 1.0
    sched_exhaustive_limit: int = 2000
    # world
    workspace_min: tuple = (-1.6, -2.0, 0.0)
    workspace_max: tuple = (1.6, 2.0, 2.3)
    shoulder_width: float = 0.36
    hip_width: float = 0.26
    part_radius: tuple = body.PartDimensions().radius
    part_height: tuple = body.PartDimensions().height
    cameras: list = field(default_factory=list)
    props: list = field(default_factory=list)
    robot_radius: float = 0.07
    robot_waypoints: list = field(default_factory=list)   # [(t, ((x,y,z)...)), ...]
    human_waypoints: list = field(default_factory=list)   # [(t, (24 floats)), ...]

    def part_dimensions(self) -> body.PartDimensions:
        return body.PartDimensions(
            radius=tuple(self.part_radius),
            height=tuple(self.part_height),
            shoulder_width=self.shoulder_width,
            hip_width=self.hip_width,
        )

    def validate(self) -> None:
        def need(cond, msg, fld=None):
            if not cond:
                raise ConfigError(msg, field_name=fld)

        need(self.duration >= 0, "duration must be >= 0", "duration")
        need(self.frame_rate > 0, "frame-rate must be > 0", "frame-rate")
        need(self.seed >= 0, "seed must be >= 0", "seed")
        need(self.window_m >= 1, "window m must be >= 1", "window")
        need(0 < self.window_gamma < 1, "window gamma must be in (0,1)", "window")
        need(0 < self.window_alpha < self.window_m,
             "window alpha must be in (0, m)", "window")
        need(self.sigma_px >= 0, "sigma-px must be >= 0", "detector")
        for nm, v in (("c-hi", self.c_hi), ("c-occ", self.c_occ), ("c-out", self.c_out)):
            need(0 < v < 1, f"{nm} must be in (0,1)", "detector")
        need(self.depth_sigma >= 0, "depth sigma must be >= 0", "depth-noise")
        need(0 <= self.depth_drop < 1, "depth drop must be in [0,1)", "depth-noise")
        need(self.slice_radius >= 1, "slice-radius must be >= 1", "slice-radius")
        need(self.mask_inflation >= 1.0, "mask-inflation must be >= 1", "mask-inflation")
        need(self.voxel > 0, "voxel must be > 0", "cloud")
        need(0 < self.range_min < self.range_max, "need 0 < range-min < range-max", "cloud")
        need(self.cluster_radius > 0, "cluster-radius must be > 0", "cloud")
        need(self.cluster_min >= 1, "cluster-min must be >= 1", "cloud")
        need(self.robot_margin >= 1.0, "robot-margin must be >= 1", "cloud")
        need(self.depth_gate >= 0, "depth-gate must be >= 0", "cloud")
        need(self.model_samples >= 8, "model-samples must be >= 8", "model-samples")
        need(self.sched_horizon >= 1, "scheduler horizon must be >= 1", "scheduler")
        need(0 < self.sched_gamma < 1, "scheduler gamma must be in (0,1)", "scheduler")
        need(self.sched_interval > 0, "scheduler interval must be > 0", "scheduler")
        need(self.sched_grid_pan >= 1 and self.sched_grid_tilt >= 1,
             "scheduler grid must be >= 1", "scheduler")
        need(self.sched_growth >= 0, "scheduler growth must be >= 0", "scheduler")
        need(self.sched_sigma_obs > 0, "scheduler sigma-obs must be > 0", "scheduler")
        need(all(a < b for a, b in zip(self.workspace_min, self.workspace_max)),
             "workspace min must be < max per axis", "workspace")
        need(len(self.part_radius) == body.NUM_KEYPARTS
             and len(self.part_height) == body.NUM_KEYPARTS,
             "need dimensions for all 10 parts", "part-dim")
        need(all(r > 0 for r in self.part_radius), "part radii must be > 0", "part-dim")
        need(all(h > 0 for h in self.part_height), "part heights must be > 0", "part-dim")
        need(self.shoulder_width > 0 and self.hip_width > 0,
             "body widths must be > 0", "body")
        need(len(self.cameras) >= 1, "need at least one camera", "camera")
        seen = set()
        for cam in self.cameras:
            need(cam.cam_id not in seen, f"duplicate camera id {cam.cam_id}", "camera")
            seen.add(cam.cam_id)
            need(abs(cam.fx - cam.fy) < 1e-9,
                 "square pixels required (fx == fy)", "camera")
            need(cam.fx > 0, "focal length must be > 0", "camera")
            need(cam.width >= 16 and cam.height >= 16, "image too small", "camera")
            need(0 <= cam.cx < cam.width and 0 <= cam.cy < cam.height,
                 "principal point outside image", "camera")
            need(cam.pan_min < cam.pan_max and cam.tilt_min < cam.tilt_max,
                 "servo limits must be ordered", "camera")
            need(cam.rate > 0, "servo rate must be > 0", "camera")
        for prop in self.props:
            need(prop.radius > 0 and prop.height > 0, "prop size must be > 0", "prop")
        need(self.robot_radius > 0, "robot radius must be > 0", "robot")
        need(len(self.human_waypoints) >= 1, "need at least one human waypoint",
             "human-waypoint")
        for wps, fld in ((self.human_waypoints, "human-waypoint"),
                         (self.robot_waypoints, "robot-waypoint")):
            times = [t for t, _ in wps]
            need(all(b > a for a, b in zip(times, times[1:])),
                 "waypoint times must be strictly increasing", fld)
        for t, dof in self.human_waypoints:
            need(len(dof) == body.TOTAL_DOF,
                 f"human waypoint needs {body.TOTAL_DOF} dof values", "human-waypoint")
        joint_counts = {len(j) for _, j in self.robot_waypoints}
        need(len(joint_counts) <= 1, "robot waypoints must agree on joint count",
             "robot-waypoint")
        if joint_counts:
            need(joint_counts.pop() >= 2, "robot needs at least 2 joints",
                 "robot-waypoint")


# ---------------------------------------------------------------------------
# parsing


def _f(tok: str, line: int, fld: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"expected a number, got {tok!r}", line, fld) from None


def _i(tok: str, line: int, fld: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"expected an integer, got {tok!r}", line, fld) from None


def _b(tok: str, line: int, fld: str) -> bool:
    if tok in ("yes", "no"):
        return tok == "yes"
    raise ConfigError(f"expected yes/no, got {tok!r}", line, fld)


def _vec(tok: str, line: int, fld: str, n=None) -> tuple:
    parts = tok.split(",")
    if n is not None and len(parts) != n:
        raise ConfigError(f"expected {n} comma-separated values", line, fld)
    return tuple(_f(p, line, fld) for p in parts)


def _kv(tokens, line, allowed) -> dict:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}", line)
        key, val = tok.split("=", 1)
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", line, key)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", line, key)
        out[key] = val
    return out


_PART_BY_NAME = {name: idx for idx, name in enumerate(body.KEYPART_NAMES)}

_CAMERA_KEYS = ("fx", "fy", "cx", "cy", "width", "height", "pos", "yaw", "pitch",
                "pan-min", "pan-max", "tilt-min", "tilt-max", "rate", "active")


def parse(text: str) -> ScenarioScript:
    """Parse scenario text; raises ConfigError with line diagnostics."""
    script = ScenarioScript()
    part_radius = list(script.part_radius)
    part_height = list(script.part_height)
    script.cameras = []
    script.props = []
    script.robot_waypoints = []
    script.human_waypoints = []

    header_seen = False
    seen_directives = set()

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        directive, args = tokens[0], tokens[1:]

        if not header_seen:
            if directive != "format" or len(args) != 2 or args[0] != FORMAT_NAME:
                raise ConfigError("first directive must be "
                                  f"'format {FORMAT_NAME} {FORMAT_VERSION}'", lineno)
            if _i(args[1], lineno, "format") != FORMAT_VERSION:
                raise ConfigError(f"unsupported format version {args[1]}", lineno,
                                  "format")
            header_seen = True
            continue

        def once(name):
            if name in seen_directives:
                raise ConfigError(f"duplicate directive {name!r}", lineno)
            seen_directives.add(name)

        if directive == "name":
            once("name")
            if len(args) != 1:
                raise ConfigError("name takes one token", lineno, "name")
            script.name = args[0]
        elif directive == "seed":
            once("seed")
            script.seed = _i(args[0], lineno, "seed")
        elif directive == "duration":
            once("duration")
            script.duration = _f(args[0], lineno, "duration")
        elif directive == "frame-rate":
            once("frame-rate")
            script.frame_rate = _f(args[0], lineno, "frame-rate")
        elif directive == "window":
            once("window")
            kv = _kv(args, lineno, ("m", "gamma", "alpha"))
            if "m" in kv:
                script.window_m = _i(kv["m"], lineno, "m")
            if "gamma" in kv:
                script.window_gamma = _f(kv["gamma"], lineno, "gamma")
            if "alpha" in kv:
                script.window_alpha = _f(kv["alpha"], lineno, "alpha")
        elif directive == "detector":
            once("detector")
            kv = _kv(args, lineno, ("sigma-px", "c-hi", "c-occ", "c-out"))
            if "sigma-px" in kv:
                script.sigma_px = _f(kv["sigma-px"], lineno, "sigma-px")
            if "c-hi" in kv:
                script.c_hi = _f(kv["c-hi"], lineno, "c-hi")
            if "c-occ" in kv:
                script.c_occ = _f(kv["c-occ"], lineno, "c-occ")
            if "c-out" in kv:
                script.c_out = _f(kv["c-out"], lineno, "c-out")
        elif directive == "depth-noise":
            once("depth-noise")
            kv = _kv(args, lineno, ("sigma", "drop"))
            if "sigma" in kv:
                script.depth_sigma = _f(kv["sigma"], lineno, "sigma")
            if "drop" in kv:
                script.depth_drop = _f(kv["drop"], lineno, "drop")
        elif directive == "slice-radius":
            once("slice-radius")
            script.slice_radius = _i(args[0], lineno, "slice-radius")
        elif directive == "mask-inflation":
            once("mask-inflation")
            script.mask_inflation = _f(args[0], lineno, "mask-inflation")
        elif directive == "cloud":
            once("cloud")
            kv = _kv(args, lineno, ("voxel", "range-min", "range-max",
                                    "cluster-radius", "cluster-min", "robot-margin",
                                    "depth-gate"))
            if "voxel" in kv:
                script.voxel = _f(kv["voxel"], lineno, "voxel")
            if "range-min" in kv:
                script.range_min = _f(kv["range-min"], lineno, "range-min")
            if "range-max" in kv:
                script.range_max = _f(kv["range-max"], lineno, "range-max")
            if "cluster-radius" in kv:
                script.cluster_radius = _f(kv["cluster-radius"], lineno, "cluster-radius")
            if "cluster-min" in kv:
                script.cluster_min = _i(kv["cluster-min"], lineno, "cluster-min")
            if "robot-margin" in kv:
                script.robot_margin = _f(kv["robot-margin"], lineno, "robot-margin")
            if "depth-gate" in kv:
                script.depth_gate = _f(kv["depth-gate"], lineno, "depth-gate")
        elif directive == "model-samples":
            once("model-samples")
            script.model_samples = _i(args[0], lineno, "model-samples")
        elif directive == "scheduler":
            once("scheduler")
            kv = _kv(args, lineno, ("horizon", "gamma", "interval", "grid-pan",
                                    "grid-tilt", "growth", "sigma-obs", "sigma-cap",
                                    "exhaustive-limit"))
            if "horizon" in kv:
                script.sched_horizon = _i(kv["horizon"], lineno, "horizon")
            if "gamma" in kv:
                script.sched_gamma = _f(kv["gamma"], lineno, "gamma")
            if "interval" in kv:
                script.sched_interval = _f(kv["interval"], lineno, "interval")
            if "grid-pan" in kv:
                script.sched_grid_pan = _i(kv["grid-pan"], lineno, "grid-pan")
            if "grid-tilt" in kv:
                script.sched_grid_tilt = _i(kv["grid-tilt"], lineno, "grid-tilt")
            if "growth" in kv:
                script.sched_growth = _f(kv["growth"], lineno, "growth")
            if "sigma-obs" in kv:
                script.sched_sigma_obs = _f(kv["sigma-obs"], lineno, "sigma-obs")
            if "sigma-cap" in kv:
                script.sched_sigma_cap = _f(kv["sigma-cap"], lineno, "sigma-cap")
            if "exhaustive-limit" in kv:
                script.sched_exhaustive_limit = _i(kv["exhaustive-limit"], lineno,
                                                   "exhaustive-limit")
        elif directive == "workspace":
            once("workspace")
            kv = _kv(args, lineno, ("min", "max"))
            if "min" in kv:
                script.workspace_min = _vec(kv["min"], lineno, "min", 3)
            if "max" in kv:
                script.workspace_max = _vec(kv["max"], lineno, "max", 3)
        elif directive == "body":
            once("body")
            kv = _kv(args, lineno, ("shoulder-width", "hip-width"))
            if "shoulder-width" in kv:
                script.shoulder_width = _f(kv["shoulder-width"], lineno, "shoulder-width")
            if "hip-width" in kv:
                script.hip_width = _f(kv["hip-width"], lineno, "hip-width")
        elif directive == "part-dim":
            if not args or args[0] not in _PART_BY_NAME:
                raise ConfigError("part-dim needs a keypart name", lineno, "part-dim")
            idx = _PART_BY_NAME[args[0]]
            kv = _kv(args[1:], lineno, ("radius", "height"))
            if "radius" in kv:
                part_radius[idx] = _f(kv["radius"], lineno, "radius")
            if "height" in kv:
                part_height[idx] = _f(kv["height"], lineno, "height")
        elif directive == "camera":
            if not args:
                raise ConfigError("camera needs an id", lineno, "camera")
            kv = _kv(args[1:], lineno, _CAMERA_KEYS)
            cam = CameraSpec(
                cam_id=args[0],
                fx=_f(kv.get("fx", "150"), lineno, "fx"),
                fy=_f(kv.get("fy", kv.get("fx", "150")), lineno, "fy"),
                cx=_f(kv.get("cx", "71.5"), lineno, "cx"),
                cy=_f(kv.get("cy", "55.5"), lineno, "cy"),
                width=_i(kv.get("width", "144"), lineno, "width"),
                height=_i(kv.get("height", "112"), lineno, "height"),
                pos=_vec(kv.get("pos", "3.0,0.0,1.6"), lineno, "pos", 3),
                yaw=_f(kv.get("yaw", "3.141592653589793"), lineno, "yaw"),
                pitch=_f(kv.get("pitch", "-0.3"), lineno, "pitch"),
                pan_min=_f(kv.get("pan-min", "-1.0"), lineno, "pan-min"),
                pan_max=_f(kv.get("pan-max", "1.0"), lineno, "pan-max"),
                tilt_min=_f(kv.get("tilt-min", "-0.6"), lineno, "tilt-min"),
                tilt_max=_f(kv.get("tilt-max", "0.6"), lineno, "tilt-max"),
                rate=_f(kv.get("rate", "1.5"), lineno, "rate"),
                active=_b(kv.get("active", "yes"), lineno, "active"),
            )
            script.cameras.append(cam)
        elif directive == "prop":
            kv = _kv(args, lineno, ("pos", "radius", "height"))
            for req in ("pos", "radius", "height"):
                if req not in kv:
                    raise ConfigError(f"prop needs {req}", lineno, req)
            script.props.append(PropSpec(
                pos=_vec(kv["pos"], lineno, "pos", 3),
                radius=_f(kv["radius"], lineno, "radius"),
                height=_f(kv["height"], lineno, "height"),
            ))
        elif directive == "robot":
            once("robot")
            kv = _kv(args, lineno, ("radius",))
            if "radius" in kv:
                script.robot_radius = _f(kv["radius"], lineno, "radius")
        elif directive == "robot-waypoint":
            kv = _kv(args, lineno, ("t", "joints"))
            if "t" not in kv or "joints" not in kv:
                raise ConfigError("robot-waypoint needs t and joints", lineno)
            joints = tuple(
                _vec(j, lineno, "joints", 3) for j in kv["joints"].split(";")
            )
            script.robot_waypoints.append((_f(kv["t"], lineno, "t"), joints))
        elif directive == "human-waypoint":
            kv = _kv(args, lineno, ("t", "dof"))
            if "t" not in kv or "dof" not in kv:
                raise ConfigError("human-waypoint needs t and dof", lineno)
            dof = _vec(kv["dof"], lineno, "dof", body.TOTAL_DOF)
            script.human_waypoints.append((_f(kv["t"], lineno, "t"), dof))
        else:
            raise ConfigError(f"unknown directive {directive!r}", lineno)

    if not header_seen:
        raise ConfigError("empty scenario: missing format header")
    script.part_radius = tuple(part_radius)
    script.part_height = tuple(part_height)
    script.validate()
    return script


def parse_file(path) -> ScenarioScript:
    with open(path, "r", encoding="utf-8") as f:
        return parse(f.read())


# ---------------------------------------------------------------------------
# emission


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ",".join(_fmt(float(x)) for x in v)


def emit(script: ScenarioScript) -> str:
    """Canonical text form; parse(emit(s)) == s."""
    lines = [f"format {FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append(f"name {script.name}")
    lines.append(f"seed {script.seed}")
    lines.append(f"duration {_fmt(script.duration)}")
    lines.append(f"frame-rate {_fmt(script.frame_rate)}")
    lines.append(f"window m={script.window_m} gamma={_fmt(script.window_gamma)} "
                 f"alpha={_fmt(script.window_alpha)}")
    lines.append(f"detector sigma-px={_fmt(script.sigma_px)} c-hi={_fmt(script.c_hi)} "
                 f"c-occ={_fmt(script.c_occ)} c-out={_fmt(script.c_out)}")
    lines.append(f"depth-noise sigma={_fmt(script.depth_sigma)} "
                 f"drop={_fmt(script.depth_drop)}")
    lines.append(f"slice-radius {script.slice_radius}")
    lines.append(f"mask-inflation {_fmt(script.mask_inflation)}")
    lines.append(
        f"cloud voxel={_fmt(script.voxel)} range-min={_fmt(script.range_min)} "
        f"range-max={_fmt(script.range_max)} cluster-radius={_fmt(script.cluster_radius)} "
        f"cluster-min={script.cluster_min} robot-margin={_fmt(script.robot_margin)} "
        f"depth-gate={_fmt(script.depth_gate)}")
    lines.append(f"model-samples {script.model_samples}")
    lines.append(
        f"scheduler horizon={script.sched_horizon} gamma={_fmt(script.sched_gamma)} "
        f"interval={_fmt(script.sched_interval)} grid-pan={script.sched_grid_pan} "
        f"grid-tilt={script.sched_grid_tilt} growth={_fmt(script.sched_growth)} "
        f"sigma-obs={_fmt(script.sched_sigma_obs)} sigma-cap={_fmt(script.sched_sigma_cap)} "
        f"exhaustive-limit={script.sched_exhaustive_limit}")
    lines.append(f"workspace min={_fmt_vec(script.workspace_min)} "
                 f"max={_fmt_vec(script.workspace_max)}")
    lines.append(f"body shoulder-width={_fmt(script.shoulder_width)} "
                 f"hip-width={_fmt(script.hip_width)}")
    for idx, nm in enumerate(body.KEYPART_NAMES):
        lines.append(f"part-dim {nm} radius={_fmt(script.part_radius[idx])} "
                     f"height={_fmt(script.part_height[idx])}")
    for cam in script.cameras:
        lines.append(
            f"camera {cam.cam_id} fx={_fmt(cam.fx)} fy={_fmt(cam.fy)} "
            f"cx={_fmt(cam.cx)} cy={_fmt(cam.cy)} width={cam.width} height={cam.height} "
            f"pos={_fmt_vec(cam.pos)} yaw={_fmt(cam.yaw)} pitch={_fmt(cam.pitch)} "
            f"pan-min={_fmt(cam.pan_min)} pan-max={_fmt(cam.pan_max)} "
            f"tilt-min={_fmt(cam.tilt_min)} tilt-max={_fmt(cam.tilt_max)} "
            f"rate={_fmt(cam.rate)} active={_fmt(cam.active)}")
    for prop in script.props:
        lines.append(f"prop pos={_fmt_vec(prop.pos)} radius={_fmt(prop.radius)} "
                     f"height={_fmt(prop.height)}")
    if script.robot_waypoints:
        lines.append(f"robot radius={_fmt(script.robot_radius)}")
        for t, joints in script.robot_waypoints:
            js = ";".join(_fmt_vec(j) for j in joints)
            lines.append(f"robot-waypoint t={_fmt(t)} joints={js}")
    for t, dof in script.human_waypoints:
        lines.append(f"human-waypoint t={_fmt(t)} dof={_fmt_vec(dof)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in scenario templates (three production-style scenes)


def _standing_dofs(x, y, heading, reach_l=0.0, reach_r=0.0, sway=0.0):
    """Convenience 24-dof builder: stand at (x, y), optional forward reaches."""
    d = np.zeros(body.TOTAL_DOF)
    d[0:3] = (x, y, 0.9)
    d[5] = heading
    d[3] = sway  # torso lean about x
    # positive reach swings the arm forward (negative theta_x in the model)
    d[8:10] = (-reach_l, 0.15)    # left upper arm
    d[10:12] = (-reach_l * 0.5, 0.0)
    d[12:14] = (-reach_r, -0.15)  # right upper arm
    d[14:16] = (-reach_r * 0.5, 0.0)
    return tuple(float(v) for v in d)


def _pick_place_robot(duration, period=4.0):
    """Repetitive pick-and-place sweep for a 3-link arm at the origin."""
    base = (0.0, 0.0, 0.45)
    wps = []
    t = 0.0
    k = 0
    while t <= duration + period:
        phase = k % 4
        ang = (-0.5, 0.0, 0.5, 0.0)[phase]
        lift = (0.75, 1.15, 0.75, 1.15)[phase]
        elbow = (0.45 * np.cos(ang), 0.45 * np.sin(ang), lift)
        wrist = (0.95 * np.cos(ang), 0.95 * np.sin(ang), lift + 0.15)
        wps.append((round(t, 6), (base, tuple(map(float, elbow)), tuple(map(float, wrist)))))
        t += period / 2.0
        k += 1
    return wps


def _aim_at(pos, target):
    """Mount yaw/pitch pointing the optical axis from pos toward target."""
    d = np.asarray(target, dtype=np.float64) - np.asarray(pos, dtype=np.float64)
    yaw = float(np.arctan2(d[1], d[0]))
    pitch = float(np.arctan2(d[2], np.hypot(d[0], d[1])))
    return yaw, pitch


def _camera(cam_id, pos, target):
    yaw, pitch = _aim_at(pos, target)
    return CameraSpec(
        cam_id=cam_id, fx=150.0, fy=150.0, pos=tuple(map(float, pos)),
        yaw=yaw, pitch=pitch,
        pan_min=-0.95, pan_max=0.95, tilt_min=-0.5, tilt_max=0.45, rate=1.6,
    )


def _bench_cameras():
    """Home orientations watch the robot; the operator zone sits off-axis."""
    aim = (0.0, 0.0, 1.0)
    return [
        _camera("cam0", (3.1, 0.0, 1.7), aim),
        _camera("cam1", (0.9, -3.1, 1.7), aim),
    ]


def _desk_scale(script: ScenarioScript) -> None:
    """Planner settings sized for the bundled comparison sweep.

    Desk-scale clearances are large, so unobserved-part uncertainty must
    grow quickly for the risk objective to reward re-acquiring people who
    drift out of view.
    """
    script.sched_grid_pan = 5
    script.sched_grid_tilt = 3
    script.sched_growth = 0.35
    script.sched_sigma_cap = 1.5


def scene_assembly(seed: int = 0, duration: float = 12.0) -> ScenarioScript:
    """Operator assembling in front of the arm, swaying along the bench."""
    script = ScenarioScript(name="assembly", seed=seed, duration=duration)
    script.cameras = _bench_cameras()
    script.robot_waypoints = _pick_place_robot(duration)
    wps = []
    t = 0.0
    k = 0
    # lateral sway across the bench with light tool reaches
    ys = (0.0, 0.7, 1.05, 0.5, -0.4, -1.05, -0.6, 0.2)
    while t <= duration + 2.0:
        y = ys[k % len(ys)]
        reach = 0.55 if k % 3 == 1 else 0.2
        wps.append((round(t, 6), _standing_dofs(1.15, y, -np.pi / 2, reach, 0.35 - reach)))
        t += 1.9
        k += 1
    script.human_waypoints = wps
    _desk_scale(script)
    script.validate()
    return script


def scene_reach_in(seed: int = 0, duration: float = 12.0) -> ScenarioScript:
    """Intensive interaction: operator close in, arm sweeping and occluding."""
    script = ScenarioScript(name="reach-in", seed=seed, duration=duration)
    script.cameras = _bench_cameras()
    # wider, faster sweeps that cross the front camera's sight line
    base = (0.0, 0.0, 0.45)
    wps = []
    t = 0.0
    k = 0
    while t <= duration + 2.0:
        ang = (-0.9, -0.2, 0.6, 1.2, 0.4, -0.3)[k % 6]
        lift = (1.0, 1.35, 1.1, 0.9, 1.3, 1.05)[k % 6]
        elbow = (0.5 * np.cos(ang), 0.5 * np.sin(ang), lift)
        wrist = (1.05 * np.cos(ang), 1.05 * np.sin(ang), lift + 0.1)
        wps.append((round(t, 6), (base, tuple(map(float, elbow)), tuple(map(float, wrist)))))
        t += 1.4
        k += 1
    script.robot_waypoints = wps
    hps = []
    t = 0.0
    k = 0
    ys = (0.45, -0.3, 0.95, 0.1, -0.85, 0.55)
    while t <= duration + 2.0:
        y = ys[k % len(ys)]
        reach = (1.1, 0.3, 0.9, 0.25, 0.8, 0.4)[k % 6]
        hps.append((round(t, 6), _standing_dofs(1.0, y, -np.pi / 2, reach, reach * 0.6)))
        t += 1.6
        k += 1
    script.human_waypoints = hps
    _desk_scale(script)
    script.validate()
    return script


def scene_enter_exit(seed: int = 0, duration: float = 16.8) -> ScenarioScript:
    """Operator repeatedly entering and leaving the workspace."""
    script = ScenarioScript(name="enter-exit", seed=seed, duration=duration)
    aim = (0.0, 0.0, 1.0)
    # both cameras on the bench side: the walk is transverse to both views
    script.cameras = [
        _camera("cam0", (3.1, 0.4, 1.7), aim),
        _camera("cam1", (3.1, -2.4, 1.7), aim),
    ]
    script.robot_waypoints = _pick_place_robot(duration)
    script.workspace_min = (-1.6, -1.7, 0.0)
    script.workspace_max = (1.8, 2.55, 2.3)
    # pillar hiding the doorway area from both cameras
    script.props = [PropSpec(pos=(0.95, 2.75, 0.0), radius=0.55, height=2.4)]
    wps = []
    # walk cycle: hidden outside -> sweep across the bench -> back out
    cycle = (
        (0.0, (1.0, 3.4)),
        (1.2, (1.0, 3.4)),
        (2.6, (1.1, 1.5)),
        (3.6, (1.15, 0.2)),
        (4.6, (1.1, -1.2)),
        (5.6, (1.05, 0.3)),
        (6.6, (1.1, 1.6)),
        (7.8, (1.0, 3.4)),
    )
    period = 8.4
    t0 = 0.0
    while t0 <= duration + period:
        for dt, (x, y) in cycle:
            reach = 0.5 if 3.0 < dt < 6.0 else 0.1
            wps.append((round(t0 + dt, 6), _standing_dofs(x, y, -np.pi / 2, reach, 0.2)))
        t0 += period
    script.human_waypoints = wps
    _desk_scale(script)
    script.validate()
    return script


TEMPLATES = {
    "assembly": scene_assembly,
    "reach-in": scene_reach_in,
    "enter-exit": scene_enter_exit,
}

"""Declarative scenario scripts: parse, validate, emit, and templates.

A scenario file is line-oriented and human-editable. The first
non-comment line must be the versioned header ``format mvsense-scenario
2``. Every other line is a directive followed by positional tokens and
``key=value`` pairs; unknown directives or keys are rejected with the
offending line number.

``DIRECTIVES`` is the format's one definition: for each directive, its
keys, the attribute each key fills and how its value is read and
written. ``parse`` and ``emit`` both walk it, and ``emit`` produces a
canonical text form whose parse equals the original script, which keeps
golden fixtures stable. A script describes only the world the simulator
builds: cameras, props, the robot, human motion and body dimensions, the
workspace and sensor noise. Defaults live in the parameter objects
``ScenarioScript`` holds (``DetectorNoise``, ``DepthNoise``,
``PartDimensions``); perception's settings are its stages' own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import body
from .body import PartDimensions
from .simulator import TOTAL_DOF, DepthNoise, DetectorNoise

FORMAT_NAME = "mvsense-scenario"
FORMAT_VERSION = 2

CONFIGS = ("multi-active", "multi-fixed", "single-active", "single-fixed")


class ConfigError(ValueError):
    """Scenario file is malformed; carries line and field diagnostics.

    ``item`` is the entry a check on a repeated directive failed on (the
    index of a camera, prop or waypoint, or a keypart); ``parse`` turns it
    into the entry's line.
    """

    def __init__(self, message, line=None, field_name=None, item=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field '{field_name}'")
        super().__init__(f"{', '.join(loc)}: {message}" if loc else message)
        self.message = message
        self.line = line
        self.field_name = field_name
        self.item = item


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
    detector: DetectorNoise = DetectorNoise()
    depth_noise: DepthNoise = DepthNoise()
    workspace_min: tuple = (-1.6, -2.0, 0.0)
    workspace_max: tuple = (1.6, 2.0, 2.3)
    dims: PartDimensions = PartDimensions()
    cameras: list = field(default_factory=list)
    props: list = field(default_factory=list)
    robot_radius: float = 0.07
    robot_waypoints: list = field(default_factory=list)   # [(t, ((x,y,z)...)), ...]
    human_waypoints: list = field(default_factory=list)   # [(t, (24 floats)), ...]

    def validate(self) -> None:
        def need(cond, msg, fld=None, item=None):
            if not cond:
                raise ConfigError(msg, field_name=fld, item=item)

        det, noise, dims = self.detector, self.depth_noise, self.dims
        need(self.duration >= 0, "duration must be >= 0", "duration")
        need(self.frame_rate > 0, "frame-rate must be > 0", "frame-rate")
        need(self.seed >= 0, "seed must be >= 0", "seed")
        need(det.sigma_px >= 0, "sigma-px must be >= 0", "detector")
        for nm, v in (("c-hi", det.c_hi), ("c-occ", det.c_occ), ("c-out", det.c_out)):
            need(0 < v < 1, f"{nm} must be in (0,1)", "detector")
        need(noise.sigma_d >= 0, "depth sigma must be >= 0", "depth-noise")
        need(0 <= noise.p_drop < 1, "depth drop must be in [0,1)", "depth-noise")
        need(all(a < b for a, b in zip(self.workspace_min, self.workspace_max)),
             "workspace min must be < max per axis", "workspace")
        need(len(dims.radius) == body.NUM_KEYPARTS
             and len(dims.height) == body.NUM_KEYPARTS,
             "need dimensions for all 10 parts", "part-dim")
        for j, r in enumerate(dims.radius):
            need(r > 0, "part radii must be > 0", "part-dim", j)
        for j, h in enumerate(dims.height):
            need(h > 0, "part heights must be > 0", "part-dim", j)
        need(dims.shoulder_width > 0 and dims.hip_width > 0,
             "body widths must be > 0", "body")
        need(len(self.cameras) >= 1, "need at least one camera", "camera")
        seen = set()
        for i, cam in enumerate(self.cameras):
            need(cam.cam_id not in seen, f"duplicate camera id {cam.cam_id}", "camera", i)
            seen.add(cam.cam_id)
            need(abs(cam.fx - cam.fy) < 1e-9,
                 "square pixels required (fx == fy)", "camera", i)
            need(cam.fx > 0, "focal length must be > 0", "camera", i)
            need(cam.width >= 16 and cam.height >= 16, "image too small", "camera", i)
            need(0 <= cam.cx < cam.width and 0 <= cam.cy < cam.height,
                 "principal point outside image", "camera", i)
            need(cam.pan_min < cam.pan_max and cam.tilt_min < cam.tilt_max,
                 "servo limits must be ordered", "camera", i)
            need(cam.rate > 0, "servo rate must be > 0", "camera", i)
        for i, prop in enumerate(self.props):
            need(prop.radius > 0 and prop.height > 0, "prop size must be > 0", "prop", i)
        need(self.robot_radius > 0, "robot radius must be > 0", "robot")
        need(len(self.human_waypoints) >= 1, "need at least one human waypoint",
             "human-waypoint")
        for wps, fld in ((self.human_waypoints, "human-waypoint"),
                         (self.robot_waypoints, "robot-waypoint")):
            for i in range(1, len(wps)):
                need(wps[i][0] > wps[i - 1][0],
                     "waypoint times must be strictly increasing", fld, i)
        for i, (_t, dof) in enumerate(self.human_waypoints):
            need(len(dof) == TOTAL_DOF,
                 f"human waypoint needs {TOTAL_DOF} dof values", "human-waypoint", i)
        joint_counts = [len(j) for _t, j in self.robot_waypoints]
        for i, n in enumerate(joint_counts):
            need(n == joint_counts[0], "robot waypoints must agree on joint count",
                 "robot-waypoint", i)
        if joint_counts:
            need(joint_counts[0] >= 2, "robot needs at least 2 joints", "robot-waypoint", 0)


# ---------------------------------------------------------------------------
# value kinds: how a token is read and how a value is written back


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ",".join(_fmt(float(x)) for x in v)


def _finite(tok: str) -> float:
    x = float(tok)
    if not math.isfinite(x):
        raise ValueError(tok)
    return x


def _vector(n: int) -> Callable:
    def read(tok: str) -> tuple:
        values = tuple(_finite(x) for x in tok.split(","))
        if len(values) != n:
            raise ValueError(tok)
        return values
    return read


class _Kind(NamedTuple):
    read: Callable    # token -> value; raises ValueError or KeyError if malformed
    what: str         # what the token must be, for the diagnostic
    show: Callable = _fmt


WORD = _Kind(str, "a word", str)
INT = _Kind(int, "an integer")
NUMBER = _Kind(_finite, "a finite number")
YES_NO = _Kind({"yes": True, "no": False}.__getitem__, "yes or no")
VEC3 = _Kind(_vector(3), "3 comma-separated numbers", _fmt_vec)
DOF = _Kind(_vector(TOTAL_DOF), f"{TOTAL_DOF} comma-separated numbers",
            _fmt_vec)
JOINTS = _Kind(lambda tok: tuple(map(_vector(3), tok.split(";"))),
               "x,y,z joints separated by ';'", lambda js: ";".join(map(_fmt_vec, js)))
KEYPART = _Kind({nm: nm for nm in body.KEYPART_NAMES}.__getitem__, "a keypart name", str)


# ---------------------------------------------------------------------------
# the directive table: the format's one definition


class _Key(NamedTuple):
    name: str         # text before '='; for a positional token, what it holds
    attr: str         # field of the directive's entry that the value fills
    kind: _Kind
    positional: bool = False


def _k(name: str, kind: _Kind = NUMBER, attr: str | None = None) -> _Key:
    """A ``name=value`` key; its field is the name with '_' for '-'."""
    return _Key(name, attr or name.replace("-", "_"), kind)


class _Directive(NamedTuple):
    keys: tuple             # positional keys first, then key=value keys in emit order
    rows: Callable          # script -> one tuple of values, in key order, per line
    store: Callable         # (script, {field: value}) -> entry index, or None
    repeats: bool = False
    required: bool = False  # every key=value key must be given


def _setting(*keys, owner: str = "") -> _Directive:
    """A once-only line that fills fields of ``script.<owner>``, or of the script."""
    def rows(script):
        obj = getattr(script, owner) if owner else script
        return [tuple(getattr(obj, k.attr) for k in keys)]

    def store(script, values):
        if owner:
            values = {owner: replace(getattr(script, owner), **values)}
        for attr, value in values.items():
            setattr(script, attr, value)

    return _Directive(keys, rows, store)


def _scalar(attr: str, kind: _Kind) -> _Directive:
    return _setting(_Key(attr, attr, kind, positional=True))


def _listing(*keys, owner: str, make: Callable, row: Callable | None = None,
             required: bool = False) -> _Directive:
    """A repeatable line that appends ``make(**values)`` to ``script.<owner>``;
    ``row`` gives an entry's values in key order (by default, its fields)."""
    row = row or (lambda entry: tuple(getattr(entry, k.attr) for k in keys))

    def store(script, values):
        entries = getattr(script, owner)
        entries.append(make(**values))
        return len(entries) - 1

    return _Directive(keys, lambda script: [row(e) for e in getattr(script, owner)],
                      store, repeats=True, required=required)


def _store_part_dim(script, values) -> int:
    j, dims = body.KEYPART_NAMES.index(values.pop("part")), script.dims
    script.dims = replace(dims, **{attr: getattr(dims, attr)[:j] + (v,)
                                   + getattr(dims, attr)[j + 1:]
                                   for attr, v in values.items()})
    return j


def _parsed_camera(cam_id, **values) -> CameraSpec:
    if "fx" in values:  # square pixels unless fy= says otherwise
        values.setdefault("fy", values["fx"])
    return CameraSpec(cam_id, **values)


DIRECTIVES = {
    "name": _scalar("name", WORD),
    "seed": _scalar("seed", INT),
    "duration": _scalar("duration", NUMBER),
    "frame-rate": _scalar("frame_rate", NUMBER),
    "detector": _setting(_k("sigma-px"), _k("c-hi"), _k("c-occ"), _k("c-out"),
                         owner="detector"),
    "depth-noise": _setting(_k("sigma", attr="sigma_d"), _k("drop", attr="p_drop"),
                            owner="depth_noise"),
    "workspace": _setting(_k("min", VEC3, "workspace_min"), _k("max", VEC3, "workspace_max")),
    "body": _setting(_k("shoulder-width"), _k("hip-width"), owner="dims"),
    "part-dim": _Directive(
        (_Key("keypart name", "part", KEYPART, positional=True), _k("radius"), _k("height")),
        lambda script: list(zip(body.KEYPART_NAMES, script.dims.radius, script.dims.height)),
        _store_part_dim, repeats=True),
    "camera": _listing(_Key("camera id", "cam_id", WORD, positional=True),
                       _k("fx"), _k("fy"), _k("cx"), _k("cy"), _k("width", INT),
                       _k("height", INT), _k("pos", VEC3), _k("yaw"), _k("pitch"),
                       _k("pan-min"), _k("pan-max"), _k("tilt-min"), _k("tilt-max"),
                       _k("rate"), _k("active", YES_NO), owner="cameras", make=_parsed_camera),
    "prop": _listing(_k("pos", VEC3), _k("radius"), _k("height"), owner="props",
                     make=PropSpec, required=True),
    "robot": _setting(_k("radius", attr="robot_radius")),
    "robot-waypoint": _listing(_k("t"), _k("joints", JOINTS), owner="robot_waypoints",
                               make=lambda t, joints: (t, joints), row=tuple,
                               required=True),
    "human-waypoint": _listing(_k("t"), _k("dof", DOF), owner="human_waypoints",
                               make=lambda t, dof: (t, dof), row=tuple, required=True),
}


# ---------------------------------------------------------------------------
# parsing


def _value(kind: _Kind, tok: str, line: int, fld: str):
    try:
        return kind.read(tok)
    except (ValueError, KeyError):
        raise ConfigError(f"expected {kind.what}, got {tok!r}", line, fld) from None


def _read(word: str, spec: _Directive, args: list, line: int) -> dict:
    """One line's values by field, checked against the directive's keys."""
    pos = [k for k in spec.keys if k.positional]
    named = {k.name: k for k in spec.keys if not k.positional}
    if not named and len(args) != len(pos):
        raise ConfigError(f"{word} takes one token", line, word)
    if len(args) < len(pos):
        raise ConfigError(f"{word} needs a {pos[0].name}", line, word)
    given = {}
    for tok in args[len(pos):]:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}", line)
        name, val = tok.split("=", 1)
        if name not in named:
            raise ConfigError(f"unknown key {name!r}", line, name)
        if name in given:
            raise ConfigError(f"duplicate key {name!r}", line, name)
        given[name] = val
    for name in named:
        if spec.required and name not in given:
            raise ConfigError(f"{word} needs {name}", line, name)
    values = {k.attr: _value(k.kind, tok, line, word) for k, tok in zip(pos, args)}
    for name, key in named.items():
        if name in given:
            values[key.attr] = _value(key.kind, given[name], line, name)
    return values


def parse(text: str) -> ScenarioScript:
    """Parse scenario text; raises ConfigError with line diagnostics."""
    script = ScenarioScript()
    header_seen = False
    lines = {}  # (directive, entry index or None) -> line number

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
            if _value(INT, args[1], lineno, "format") != FORMAT_VERSION:
                raise ConfigError(f"unsupported format version {args[1]}", lineno,
                                  "format")
            header_seen = True
            continue

        spec = DIRECTIVES.get(directive)
        if spec is None:
            raise ConfigError(f"unknown directive {directive!r}", lineno)
        if not spec.repeats and (directive, None) in lines:
            raise ConfigError(f"duplicate directive {directive!r}", lineno)
        values = _read(directive, spec, args, lineno)
        lines[directive, spec.store(script, values)] = lineno

    if not header_seen:
        raise ConfigError("empty scenario: missing format header")
    try:
        script.validate()
    except ConfigError as err:  # point at the line that set the failed field
        raise ConfigError(err.message, lines.get((err.field_name, err.item)),
                          err.field_name) from None
    return script


def parse_file(path) -> ScenarioScript:
    with open(path, "r", encoding="utf-8") as f:
        return parse(f.read())


# ---------------------------------------------------------------------------
# emission


def emit(script: ScenarioScript) -> str:
    """Canonical text form; parse(emit(s)) == s."""
    lines = [f"format {FORMAT_NAME} {FORMAT_VERSION}"]
    for word, spec in DIRECTIVES.items():
        for row in spec.rows(script):
            lines.append(" ".join([word] + [
                key.kind.show(v) if key.positional else f"{key.name}={key.kind.show(v)}"
                for key, v in zip(spec.keys, row)]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# built-in scenario templates (three production-style scenes)


def _standing_dofs(x, y, heading, reach_l=0.0, reach_r=0.0, sway=0.0):
    """Convenience 24-dof builder: stand at (x, y), optional forward reaches."""
    d = np.zeros(TOTAL_DOF)
    d[0:3] = (x, y, 0.9)
    d[5] = heading
    d[3] = sway  # torso lean about x
    # positive reach swings the arm forward (negative theta_x in the model)
    d[8:10] = (-reach_l, 0.15)    # left upper arm
    d[10:12] = (-reach_l * 0.5, 0.0)
    d[12:14] = (-reach_r, -0.15)  # right upper arm
    d[14:16] = (-reach_r * 0.5, 0.0)
    return tuple(float(v) for v in d)


def _arm_sweep(duration, step, until, angles, lifts, elbow, wrist, rise):
    """A 3-link arm at the origin cycling through ``angles`` and ``lifts``,
    one waypoint every ``step`` s until ``until`` s past ``duration``: the
    elbow ``elbow`` m off the vertical axis, the wrist ``wrist`` m off it
    and ``rise`` m higher."""
    base = (0.0, 0.0, 0.45)
    wps = []
    t = 0.0
    k = 0
    while t <= duration + until:
        ang, lift = angles[k % len(angles)], lifts[k % len(lifts)]
        e = (elbow * np.cos(ang), elbow * np.sin(ang), lift)
        w = (wrist * np.cos(ang), wrist * np.sin(ang), lift + rise)
        wps.append((round(t, 6), (base, tuple(map(float, e)), tuple(map(float, w)))))
        t += step
        k += 1
    return wps


def _pick_place_robot(duration):
    """Repetitive pick-and-place sweep, a 4 s period."""
    return _arm_sweep(duration, 2.0, 4.0, (-0.5, 0.0, 0.5, 0.0), (0.75, 1.15, 0.75, 1.15),
                      0.45, 0.95, 0.15)


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
    script.validate()
    return script


def scene_reach_in(seed: int = 0, duration: float = 12.0) -> ScenarioScript:
    """Intensive interaction: operator close in, arm sweeping and occluding."""
    script = ScenarioScript(name="reach-in", seed=seed, duration=duration)
    script.cameras = _bench_cameras()
    # wider, faster sweeps that cross the front camera's sight line
    script.robot_waypoints = _arm_sweep(duration, 1.4, 2.0, (-0.9, -0.2, 0.6, 1.2, 0.4, -0.3),
                                        (1.0, 1.35, 1.1, 0.9, 1.3, 1.05), 0.5, 1.05, 0.1)
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
    script.validate()
    return script


TEMPLATES = {
    "assembly": scene_assembly,
    "reach-in": scene_reach_in,
    "enter-exit": scene_enter_exit,
}

"""Scenario script format: parsing, validation diagnostics, canonical
emission round trip, and the shipped template files."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsense import simulator
from mvsense.scenario import (
    DIRECTIVES,
    CameraSpec,
    ConfigError,
    PropSpec,
    ScenarioScript,
    TEMPLATES,
    emit,
    parse,
    parse_file,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
format mvsense-scenario 2
name tiny
seed 3
duration 1.0
frame-rate 10.0
camera cam0 fx=150 fy=150 cx=71.5 cy=55.5 width=144 height=112 pos=3.0,0.0,1.6 yaw=3.14159 pitch=-0.3
human-waypoint t=0.0 dof=0,0,0.9,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
"""

# The perception settings that version 1 carried, as ``emit`` wrote them
VERSION_1_SETTINGS = [
    "window m=5 gamma=0.7 alpha=1.0",
    "slice-radius 5",
    "mask-inflation 1.2",
    "cloud voxel=0.02 range-min=0.2 range-max=5.0 cluster-radius=0.05 cluster-min=10 "
    "robot-margin=1.1 depth-gate=0.3",
    "model-samples 128",
    "scheduler horizon=3 gamma=0.9 interval=0.4 grid-pan=5 grid-tilt=3 growth=0.35 "
    "sigma-obs=0.02 sigma-cap=1.5 exhaustive-limit=2000",
]


class TestParse:
    def test_minimal_parses(self):
        script = parse(MINIMAL)
        assert script.name == "tiny"
        assert script.seed == 3
        assert len(script.cameras) == 1
        assert script.cameras[0].cam_id == "cam0"

    def test_header_required_first(self):
        with pytest.raises(ConfigError):
            parse("name oops\n" + MINIMAL)

    def test_unsupported_version_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse(MINIMAL.replace("mvsense-scenario 2", "mvsense-scenario 3"))
        assert "version" in str(err.value)

    def test_version_1_file_refused_at_header(self):
        v1 = MINIMAL.replace("mvsense-scenario 2\n", "mvsense-scenario 1\n"
                             + "\n".join(VERSION_1_SETTINGS) + "\n")
        with pytest.raises(ConfigError) as err:
            parse(v1)
        assert (err.value.line, err.value.field_name) == (1, "format")
        assert err.value.message == "unsupported format version 1"

    @pytest.mark.parametrize("line", ["warp-drive on"] + VERSION_1_SETTINGS)
    def test_unknown_directive_reports_line(self, line):
        bad = MINIMAL + line + "\n"
        with pytest.raises(ConfigError) as err:
            parse(bad)
        assert err.value.line == len(MINIMAL.splitlines()) + 1
        assert err.value.message == f"unknown directive {line.split()[0]!r}"

    def test_unknown_key_rejected_with_field(self):
        bad = MINIMAL.replace("seed 3", "seed 3\ndetector sigma-px=1.5 glamour=0.7")
        with pytest.raises(ConfigError) as err:
            parse(bad)
        assert err.value.field_name == "glamour"

    def test_duplicate_directive_rejected(self):
        with pytest.raises(ConfigError):
            parse(MINIMAL + "seed 4\n")

    def test_comments_and_blanks_ignored(self):
        text = MINIMAL.replace("seed 3", "# a comment\n\nseed 3")
        assert parse(text).seed == 3

    def test_wrong_dof_count_rejected(self):
        bad = MINIMAL.replace(
            "dof=0,0,0.9" + ",0" * 21,
            "dof=0,0,0.9,0")
        with pytest.raises(ConfigError):
            parse(bad)

    def test_out_of_range_confidence_rejected(self):
        bad = MINIMAL + "detector c-hi=1.2\n"
        with pytest.raises(ConfigError):
            parse(bad)

    def test_non_square_pixels_rejected(self):
        bad = MINIMAL.replace("fx=150 fy=150", "fx=150 fy=151")
        with pytest.raises(ConfigError):
            parse(bad)

    def test_waypoint_times_must_increase(self):
        bad = MINIMAL + ("human-waypoint t=0.0 dof=" + ",".join(["0"] * 24) + "\n")
        with pytest.raises(ConfigError):
            parse(bad)

    def test_part_dim_override(self):
        text = MINIMAL + "part-dim torso radius=0.2 height=0.6\n"
        script = parse(text)
        assert script.dims.radius[0] == 0.2
        assert script.dims.height[0] == 0.6
        assert script.dims.radius[1] == ScenarioScript().dims.radius[1]

    def test_prop_requires_all_fields(self):
        with pytest.raises(ConfigError):
            parse(MINIMAL + "prop pos=1,2,0 radius=0.5\n")

    @pytest.mark.parametrize("line", ["bare", "extra token"])
    @pytest.mark.parametrize("directive", ["name", "seed", "duration", "frame-rate"])
    def test_malformed_scalar_directive(self, directive, line):
        kept = [ln for ln in MINIMAL.splitlines() if ln.split()[0] != directive]
        bad = directive if line == "bare" else f"{directive} 3 7"
        with pytest.raises(ConfigError) as err:
            parse("\n".join(kept + [bad]) + "\n")
        assert err.value.line == len(kept) + 1
        assert err.value.field_name == directive

    @pytest.mark.parametrize("old, new, field", [
        ("duration 1.0", "duration inf", "duration"),
        ("pos=3.0,0.0,1.6", "pos=nan,0,1.6", "pos"),
        ("dof=0,0,0.9,", "dof=nan,0,0.9,", "dof"),
    ])
    def test_non_finite_numbers_rejected(self, old, new, field):
        lineno = next(i for i, ln in enumerate(MINIMAL.splitlines(), 1) if old in ln)
        with pytest.raises(ConfigError) as err:
            parse(MINIMAL.replace(old, new))
        assert (err.value.line, err.value.field_name) == (lineno, field)

    def test_camera_fy_defaults_to_fx(self):
        script = parse(MINIMAL.replace("fx=150 fy=150", "fx=120"))
        assert script.cameras[0].fy == 120.0

    def test_validate_error_points_at_its_line(self):
        """A check ``validate`` makes after parsing names the line that set
        the field: the singleton directive, or the failing entry."""
        cam = next(ln for ln in MINIMAL.splitlines() if ln.startswith("camera"))
        text = MINIMAL + "depth-noise drop=1.5\n"
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert (err.value.line, err.value.field_name) == (len(text.splitlines()), "depth-noise")
        text = MINIMAL + cam.replace("cam0", "cam1").replace("fy=150", "fy=151") + "\n"
        with pytest.raises(ConfigError) as err:
            parse(text)
        assert (err.value.line, err.value.field_name) == (len(text.splitlines()), "camera")


class TestRoundTrip:
    def test_emit_parse_identity_minimal(self):
        script = parse(MINIMAL)
        assert parse(emit(script)) == script

    def test_robot_radius_without_a_robot_round_trips(self):
        script = parse(MINIMAL + "robot radius=0.1\n")
        assert not script.robot_waypoints
        assert parse(emit(script)) == script and script.robot_radius == 0.1

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_emit_parse_identity_templates(self, name):
        script = TEMPLATES[name](seed=5)
        assert parse(emit(script)) == script

    def test_emit_is_canonical_fixed_point(self):
        script = TEMPLATES["assembly"](seed=1)
        text = emit(script)
        assert emit(parse(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_key_off_its_default_round_trips(self, data):
        script = data.draw(off_default_scripts())
        text = emit(script)
        assert parse(text) == script
        assert emit(parse(text)) == text


class TestMalformedText:
    @settings(max_examples=400, deadline=None)
    @given(name=st.sampled_from(sorted(TEMPLATES)), data=st.data())
    def test_one_edit_parses_or_raises_config_error_with_line(self, name, data):
        text = edited(data, (SCENARIO_DIR / f"{name}.scn").read_text())
        try:
            parse(text)
        except ConfigError as err:
            assert err.line is not None, str(err)


class TestShippedFiles:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_files_match_templates(self, name):
        """Each shipped file parses to its template and is, byte for byte,
        the template's canonical text."""
        path = SCENARIO_DIR / f"{name}.scn"
        assert path.exists(), f"missing canonical scenario file {path}"
        assert parse_file(path) == TEMPLATES[name](seed=0)
        assert emit(TEMPLATES[name](seed=0)) == path.read_text(encoding="utf-8")

    def test_templates_define_two_cameras_and_robot(self):
        for name, builder in TEMPLATES.items():
            script = builder()
            assert len(script.cameras) == 2
            assert script.robot_waypoints
            script.validate()


# ---------------------------------------------------------------------------
# generators for the property tests


def nudge(draw, value):
    """A valid value near ``value`` (a field's default) but not equal to it."""
    if isinstance(value, str):
        return value + draw(st.text("abcxyz_-", min_size=1, max_size=4))
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + draw(st.integers(1, 3))
    if isinstance(value, tuple):
        return tuple(nudge(draw, v) for v in value)
    f = draw(st.floats(0.001, 0.05))
    return value * (1.0 - f) if value else f


def finite(lo=-10.0, hi=10.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def times(draw):
    return sorted(draw(st.lists(finite(0.0, 60.0), min_size=1, max_size=4, unique=True)))


@st.composite
def off_default_scripts(draw):
    """Scripts in which every key of the directive table is off its default."""
    script = ScenarioScript()
    for word, spec in DIRECTIVES.items():
        if not spec.repeats and word != "robot":
            (row,) = spec.rows(script)
            spec.store(script, {k.attr: nudge(draw, v) for k, v in zip(spec.keys, row)})
    for name, radius, height in DIRECTIVES["part-dim"].rows(script):
        DIRECTIVES["part-dim"].store(script, {"part": name, "radius": nudge(draw, radius),
                                              "height": nudge(draw, height)})
    camera = DIRECTIVES["camera"]
    for i in range(draw(st.integers(1, 3))):
        (row,) = camera.rows(ScenarioScript(cameras=[CameraSpec(f"cam{i}")]))
        values = {k.attr: nudge(draw, v) for k, v in zip(camera.keys, row)}
        camera.store(script, dict(values, fy=values["fx"]))
    script.props = [PropSpec(draw(st.tuples(finite(), finite(), finite())),
                             draw(finite(0.01, 2.0)), draw(finite(0.01, 3.0)))
                    for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):  # with a robot, or a robot-less script
        joints = draw(st.integers(2, 4))
        script.robot_waypoints = [
            (t, tuple(draw(st.tuples(finite(), finite(), finite())) for _ in range(joints)))
            for t in times(draw)]
    (row,) = DIRECTIVES["robot"].rows(script)
    script.robot_radius = nudge(draw, row[0])
    script.human_waypoints = [
        (t, tuple(draw(st.lists(finite(), min_size=simulator.TOTAL_DOF, max_size=simulator.TOTAL_DOF))))
        for t in times(draw)]
    script.validate()
    return script


JUNK = st.one_of(
    st.sampled_from(["", "nan", "inf", "-inf", "1e999", "-1", "0", "1e-300", "yes", "x",
                     "=", "a=b", "1,2", "1,2,3", ";", "#", "9" * 40, "seed", "camera"]),
    st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")), max_size=8),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)


def edited(data, text: str) -> str:
    """``text`` after one edit of one line: delete a token, insert junk,
    replace a value, duplicate the line, or cut it down to its directive."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    j = data.draw(st.integers(0, len(tokens) - 1))
    edit = data.draw(st.sampled_from(["delete", "insert", "replace", "duplicate", "cut"]))
    if edit == "delete":
        del tokens[j]
    elif edit == "insert":
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(JUNK))
    elif edit == "replace":
        key, eq, _ = tokens[j].partition("=")
        tokens[j] = key + eq + data.draw(JUNK) if eq else data.draw(JUNK)
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = tokens[:1]
    if edit != "duplicate":
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"

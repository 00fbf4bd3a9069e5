"""Package layout: every function, class, method, module-level constant
and dataclass field in ``src/mvsense`` has a reader inside the package.

Code that only the tests call belongs in ``tests/`` (as an oracle helper
in ``conftest.py``) or nowhere. Perception, the modules a deployed
system runs each frame, stands apart from the simulator and the trial
code around it: it imports none of them and defines nothing that only
the simulator reads, and the loop's classes in the trial module name no
scene script and no simulator. How a part's uncertainty grows and
resets is read in the scheduler alone, and the tree's keypoint table is
written in the body model alone. The scan is by name: a definition
counts as used when some ``Name``, ``Attribute`` or import in the package
refers to its name. Docstrings and comments are not references, and dunder
methods are called by the language, not by name. A constant is a
module-level assignment to an UPPER_CASE name (a leading underscore
allowed); assigning it is not reading it. A dataclass field is read when
some attribute of that name is loaded, except that a load from ``self``
counts only for the class whose method makes it; passing a field to the
constructor or assigning it is not reading it.

The package namespace re-exports nothing, so a process that only reads,
checks or writes scenario scripts loads neither the pipeline nor scipy.
"""

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import mvsense

PACKAGE = Path(mvsense.__file__).parent
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

# Dataclass fields read outside the package, with the reader.
ALLOWED_FIELDS = {
    # perfbench counts the planner's exhaustive searches by it
    "ViewpointTrajectory.mode",
    # the plan's score; the per-frame trace of ROADMAP item 2 is to report
    # what the scheduler chose and why
    "ViewpointTrajectory.objective",
}

# the perception modules, and the simulation, trial and command-line
# modules they must not depend on
PERCEPTION = ("body", "keypoints", "keyparts", "filters", "registration", "scheduler")
OUTSIDE = ("simulator", "harness", "scenario", "cli")

# the perception loop's classes in the trial module, and the names of the
# scene script and the simulator that none of them may use: a pipeline is
# built from its rigs, a body model and its frame period
LOOP_CLASSES = ("Pipeline", "FrameInput", "FrameResult")
SCRIPT_NAMES = ("script", "ScenarioScript", "scenario", "simulator")

# the scheduler's uncertainty policy: how sigma grows and resets is
# written in the scheduler alone
SIGMA_FIELDS = ("growth", "sigma_obs", "sigma_cap")

# what reading, checking and writing a script must not load
SCRIPT_ONLY_ABSENT = ("mvsense.harness", "mvsense.keyparts", "mvsense.filters",
                      "mvsense.registration", "mvsense.keypoints", "mvsense.scheduler")


def _scan():
    """Definitions, module-level constants and the names the package reads."""
    defined, constants, referenced = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                    constants.setdefault(target.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return defined, constants, referenced


def _modules():
    """Per module: its parsed tree and the names it reads."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        out[path.stem] = tree, names
    return out


def _imported_modules(tree):
    """The package modules a module imports, relatively or by the package name."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["mvsense" if node.level else "", node.module]))
            dotted += [f"{module}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("mvsense.")}


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _self_loads(cls):
    """Attribute names loaded from ``self`` in the methods of ``cls``,
    nested classes aside."""
    names, stack = set(), list(cls.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _fields():
    """Every dataclass field as Class.field, and the fields read: as
    Class.field for loads from ``self``, by attribute name for the rest."""
    fields, self_loaded, loaded = {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self_loaded.update(f"{node.name}.{name}" for name in _self_loads(node))
                if _is_dataclass(node):
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            fields[f"{node.name}.{stmt.target.id}"] = \
                                f"{path.name}:{stmt.lineno}"
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                loaded.add(node.attr)
    return fields, {name for name in fields
                    if name in self_loaded or name.split(".")[1] in loaded}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_has_a_caller_in_the_package():
    defined, _constants, referenced = _scan()
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in referenced and not _is_dunder(name))
    assert not unused, "defined in src/mvsense but never referenced there: " \
        + ", ".join(unused)


def test_every_constant_is_read_in_the_package():
    _defined, constants, referenced = _scan()
    unread = sorted(f"{name} ({where})" for name, where in constants.items()
                    if name not in referenced)
    assert not unread, "constants in src/mvsense never read there: " + ", ".join(unread)


def test_every_dataclass_field_is_read_in_the_package():
    fields, read = _fields()
    unread = sorted(f"{name} ({where})" for name, where in fields.items()
                    if name not in read and name not in ALLOWED_FIELDS)
    assert not unread, "dataclass fields in src/mvsense never read there: " \
        + ", ".join(unread)


def test_field_allowlist_names_exist_and_are_unread():
    fields, read = _fields()
    for name in ALLOWED_FIELDS:
        assert name in fields, f"{name} is no longer a dataclass field"
        assert name not in read, f"{name} is read in the package now"


def test_perception_imports_no_simulation_or_trial_module():
    modules = _modules()
    wrong = sorted(f"{name} imports {other}" for name in PERCEPTION
                   for other in _imported_modules(modules[name][0]) & set(OUTSIDE))
    assert not wrong, "perception depends on the simulator or trial code: " + ", ".join(wrong)


def test_perception_defines_nothing_only_the_simulator_reads():
    modules = _modules()
    only = []
    for name in PERCEPTION:
        for node in modules[name][0].body:
            targets = [node.name] if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else \
                [t.id for t in (node.targets if isinstance(node, ast.Assign) else
                                [node.target] if isinstance(node, ast.AnnAssign) else [])
                 if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)]
            for target in targets:
                readers = {other for other, (_tree, names) in modules.items()
                           if target in names}
                if readers == {"simulator"}:
                    only.append(f"{name}.{target}")
    assert not only, "perception code only the simulator reads: " + ", ".join(only)


def test_perception_loop_names_no_script_or_simulator():
    """``Pipeline``, ``FrameInput`` and ``FrameResult`` read no scene script
    and no simulator: no name, attribute, argument or keyword of theirs is
    one of ``SCRIPT_NAMES``."""
    classes = {node.name: node for node in _modules()["harness"][0].body
               if isinstance(node, ast.ClassDef)}
    assert set(LOOP_CLASSES) <= set(classes)
    wrong = []
    for name in LOOP_CLASSES:
        for node in ast.walk(classes[name]):
            used = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.arg if isinstance(node, (ast.arg, ast.keyword)) else None
            if used in SCRIPT_NAMES:
                wrong.append(f"{name} line {node.lineno}: {used}")
    assert not wrong, "the perception loop names the script or the simulator: " \
        + ", ".join(wrong)


def test_sigma_policy_is_read_only_in_the_scheduler():
    """``SchedulerParams.growth``, ``sigma_obs`` and ``sigma_cap`` are
    loaded as attributes in ``scheduler`` and in no other module."""
    wrong = sorted(f"{name}.py:{node.lineno}: {node.attr}"
                   for name, (tree, _names) in _modules().items() if name != "scheduler"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and node.attr in SIGMA_FIELDS)
    assert not wrong, "sigma policy read outside the scheduler: " + ", ".join(wrong)


def test_keypoint_table_is_written_only_in_body():
    """Only ``body`` stores into a ``.keypoints[...]`` subscript, and
    ``registration`` names no attribute ``keypoints``: it reads the table
    through ``body.initial_state`` and writes it through
    ``body.enforce_joint_constraints``."""
    wrong = []
    for name, (tree, _names) in _modules().items():
        for node in ast.walk(tree):
            if name != "body" and isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, ast.Store) \
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "keypoints":
                wrong.append(f"{name}.py:{node.lineno}: stores into .keypoints[...]")
            elif name == "registration" and isinstance(node, ast.Attribute) \
                    and node.attr == "keypoints":
                wrong.append(f"{name}.py:{node.lineno}: names .keypoints")
    assert not wrong, "keypoint table reached outside the body model: " + ", ".join(wrong)


def test_scenario_scripts_load_no_pipeline_and_no_scipy(tmp_path):
    """In a fresh interpreter, round-trip every template and run ``validate``
    and ``emit-template``; the pytest process has imported everything."""
    probe = textwrap.dedent("""
        import json, sys
        import mvsense
        from mvsense import cli
        from mvsense.scenario import TEMPLATES, emit, parse

        for name, builder in TEMPLATES.items():
            script = builder(seed=0)
            assert parse(emit(script)) == script, name
        out = sys.argv[1] + "/t.scn"
        assert cli.main(["emit-template", "--name", next(iter(TEMPLATES)),
                         "--out", out]) == 0
        assert cli.main(["validate", "--script", out]) == 0
        print(json.dumps(sorted(sys.modules)))
    """)
    run = subprocess.run([sys.executable, "-c", probe, str(tmp_path)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout.splitlines()[-1])
    wrong = sorted(name for name in loaded if name == "scipy" or name.startswith("scipy.")
                   or name in SCRIPT_ONLY_ABSENT)
    assert not wrong, "script handling loaded: " + ", ".join(wrong)

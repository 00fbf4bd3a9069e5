"""The benchmark's traced bindings exist and fire.

perfbench's traced pass wraps each function at the binding its caller
looks it up through, as listed in ``perfbench/spans.py``'s ``SITES``, and
fails its run when a wrapper never fires. This test makes the same check
on one short multi-active trial, at test cost: a change that stops
calling a function through a listed binding, or removes it, fails here,
so it shows that the benchmark has to change with it.
"""

import contextlib
import importlib.util
from pathlib import Path
from unittest import mock

from mvsense import harness, scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_sites() -> tuple:
    """``SITES`` of ``perfbench/spans.py``: (owner, attribute, span name,
    counter hook) per traced binding."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


def test_every_traced_binding_exists_and_fires():
    sites = load_sites()
    missing = [name for owner, attr, name, _observe in sites
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"bindings gone: {missing}"

    calls = {name: 0 for _owner, _attr, name, _observe in sites}

    def counting(fn, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    with contextlib.ExitStack() as stack:
        for owner, attr, name, _observe in sites:
            stack.enter_context(
                mock.patch.object(owner, attr, counting(getattr(owner, attr), name)))
        harness.run_trial(scenario.scene_assembly(seed=0, duration=1.0),
                          config="multi-active")
    silent = [name for name, n in calls.items() if n == 0]
    assert not silent, f"bindings never called: {silent}"

"""Golden byte-determinism guard for the metrics files.

Each built-in template runs for one second at seed 0 under multi-active
and single-fixed, and the sha256 of every ``_frames.csv`` and
``_summary.json`` must match the digests recorded below. The summaries
carry pose errors as full-precision floats, so any change in what
registration computes, down to the last bit of a mean error, shows up
here. A change that alters behaviour on purpose must say so and update
these digests with the accuracy table before and after.

The 144x112 renders each fit in one block of ``geometry.cast_rays``, so
one more trial runs the assembly template at multi-fixed with 640x480
cameras, where every render spans several blocks.

Recorded with Python 3.11, numpy 2.4 and scipy 1.17 on x86-64.
"""

import dataclasses
import hashlib

import pytest

from mvsense import harness, scenario

GOLDEN = {
    "assembly_multi-active_0_frames.csv":
        "bdf2451a09f6f816c157936d5ab1f534c53fc1c5cb019965e333610f1f662496",
    "assembly_multi-active_0_summary.json":
        "904f8a320c0c9ff57173f214d36d336b97e5a0ed0164443841dadcd746711ab6",
    "assembly_single-fixed_0_frames.csv":
        "fedf02ce9e2e63a75cb210284d0adb9f5be1f2f9eab4ea5dc05c7d92fa8b26e6",
    "assembly_single-fixed_0_summary.json":
        "724f8ba35eec4dff83de80347811dd586819cf7eab2e05e3a25804b0e25b73ec",
    "enter-exit_multi-active_0_frames.csv":
        "c8efd13522621bd5bc190794e97808ff627d470f5a3874293b7809f546f1839e",
    "enter-exit_multi-active_0_summary.json":
        "af6926908bb511918f3322cf594a922c0eaac811d8ca8b95b5287864c71ce3d3",
    "enter-exit_single-fixed_0_frames.csv":
        "c8efd13522621bd5bc190794e97808ff627d470f5a3874293b7809f546f1839e",
    "enter-exit_single-fixed_0_summary.json":
        "58d40b9dca058ce8c4a3c199d182c12bcd28b75b0d73d1044e727b9714633845",
    "reach-in_multi-active_0_frames.csv":
        "d54586760e862739ddb6aa1cdb25d16644c683bba85a0c02566d94d7863a6230",
    "reach-in_multi-active_0_summary.json":
        "816026cc44dcf7edf0c5e07cfafa94209ad5d003606faac8dd164ca5e73d95dc",
    "reach-in_single-fixed_0_frames.csv":
        "773887f1ceacc1b81794e5829a97ae179ab0ae0e149288354da000c1c0023190",
    "reach-in_single-fixed_0_summary.json":
        "ac96255c4b48a26b65eaa119deabd312d14449006bf3681d7e7572507cefc498",
}

HIRES_GOLDEN = {
    "assembly_multi-fixed_0_frames.csv":
        "8011b6212a9334019f565d8e7234ff0d2293ffeb66147a4333aa8a354f145bb3",
    "assembly_multi-fixed_0_summary.json":
        "2de12283b041d4481cab3699fc12049b0fa7157267dcf8c1f0d89a56e86df8b2",
}


def hires(cam, width=640, height=480):
    """The same camera at 640x480, focal length scaled so no view angle shrinks."""
    s = min(width / cam.width, height / cam.height)
    return dataclasses.replace(cam, width=width, height=height,
                               fx=cam.fx * s, fy=cam.fy * s,
                               cx=(width - 1) / 2.0, cy=(height - 1) / 2.0)


def assert_digests(script, config, out_dir, golden):
    for suffix in ("_frames.csv", "_summary.json"):
        name = f"{script.name}_{config}_0{suffix}"
        digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        assert digest == golden[name], f"{name} changed"


@pytest.mark.parametrize("template", sorted(scenario.TEMPLATES))
@pytest.mark.parametrize("config", ["multi-active", "single-fixed"])
def test_metrics_files_match_golden_digests(template, config, tmp_path):
    script = scenario.TEMPLATES[template](seed=0, duration=1.0)
    harness.run_trial(script, config=config, out_dir=tmp_path)
    assert_digests(script, config, tmp_path, GOLDEN)


def test_hires_metrics_files_match_golden_digests(tmp_path):
    script = scenario.TEMPLATES["assembly"](seed=0, duration=0.5)
    script.cameras = [hires(cam) for cam in script.cameras]
    harness.run_trial(script, config="multi-fixed", out_dir=tmp_path)
    assert_digests(script, "multi-fixed", tmp_path, HIRES_GOLDEN)

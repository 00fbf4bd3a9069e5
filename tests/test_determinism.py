"""Golden byte-determinism guard for the metrics files.

Each built-in template runs for one second at seed 0 under multi-active
and single-fixed, and the sha256 of every ``_frames.csv`` and
``_summary.json`` must match the digests recorded below. The summaries
carry pose errors as full-precision floats, so any change in what
registration computes, down to the last bit of a mean error, shows up
here. A change that alters behaviour on purpose must say so and update
these digests with the accuracy table before and after.

The summaries were last re-recorded when every part below the torso
moved from anchored ICP on the sampled model to the level solve on the
analytic cylinder (``registration.register_level``), and siblings of one
level stopped stripping bleed-over against each other: the mean pose
errors changed, and every ``_frames.csv`` kept its digest, so presence,
accuracy and recall did not move in these trials. (Before that, they
were re-recorded when ``geometry.cast_rays`` became an elementwise kernel
cast in the camera frame, which moved the mean pose errors in their 13th
significant digit.)

The 144x112 renders each fit in one block of ``geometry.cast_rays``, so
two more trials run at multi-fixed with 640x480 cameras, where every
render spans several blocks: assembly, and reach-in, whose robot links
remove points from several keyparts of one camera in the same frame.

Recorded with Python 3.11, numpy 2.4 and scipy 1.17 on x86-64.
"""

import hashlib

import pytest

from conftest import hires
from mvsense import harness, scenario

GOLDEN = {
    "assembly_multi-active_0_frames.csv":
        "bdf2451a09f6f816c157936d5ab1f534c53fc1c5cb019965e333610f1f662496",
    "assembly_multi-active_0_summary.json":
        "d8428a4804fb95e79241480208cd3a2bc21cf93c4028bd78b4d0d293fcd65ce3",
    "assembly_single-fixed_0_frames.csv":
        "fedf02ce9e2e63a75cb210284d0adb9f5be1f2f9eab4ea5dc05c7d92fa8b26e6",
    "assembly_single-fixed_0_summary.json":
        "92b6387bb7fded17d103fe97c06cf35f86fcf4ee32899e20c864257a977e1f66",
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
        "e3b70804d8d842590fe41063930ec4fc5364ae3d4f4087bc72a60e5f8ba724f9",
    "reach-in_single-fixed_0_frames.csv":
        "773887f1ceacc1b81794e5829a97ae179ab0ae0e149288354da000c1c0023190",
    "reach-in_single-fixed_0_summary.json":
        "57a7d26f81825fb6da1612a53848f92b06f4345f1ef152f44b29c77024508593",
}

HIRES_GOLDEN = {
    "assembly_multi-fixed_0_frames.csv":
        "8011b6212a9334019f565d8e7234ff0d2293ffeb66147a4333aa8a354f145bb3",
    "assembly_multi-fixed_0_summary.json":
        "a0ef2eb7300e9098a06dddd4db5592f6d563cf5019b7385a6e4c5dc1f382a46b",
    "reach-in_multi-fixed_0_frames.csv":
        "49c8fef410cc5a02620a6f18a0d93a58922f874c449fee2a8f93a17ec0d72cf7",
    "reach-in_multi-fixed_0_summary.json":
        "36ee11fda7e9438253dc307fb5eca8eef593f261c979ddc664b8d93705b2babc",
}


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


def run_hires(template, duration, out_dir):
    script = scenario.TEMPLATES[template](seed=0, duration=duration)
    script.cameras = [hires(cam) for cam in script.cameras]
    harness.run_trial(script, config="multi-fixed", out_dir=out_dir)
    assert_digests(script, "multi-fixed", out_dir, HIRES_GOLDEN)


def test_hires_metrics_files_match_golden_digests(tmp_path):
    run_hires("assembly", 0.5, tmp_path)


def test_hires_reach_in_metrics_files_match_golden_digests(tmp_path):
    # from the fourth frame on the robot's links reach into several
    # keyparts' clouds of one camera at once
    run_hires("reach-in", 1.5, tmp_path)

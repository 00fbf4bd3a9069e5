"""Golden byte-determinism guard for the metrics files.

Each built-in template runs for one second at seed 0 under multi-active
and single-fixed, and the sha256 of every ``_frames.csv`` and
``_summary.json`` must match the digests recorded below. The summaries
carry pose errors as full-precision floats, so any change in what
registration computes, down to the last bit of a mean error, shows up
here. A change that alters behaviour on purpose must say so and update
these digests with the accuracy table before and after.

The two 640x480 summaries were last re-recorded when extraction began
to lift pixels at the voxel's footprint: a labeled pixel is lifted only
where its image row and column are multiples of a stride from its paint
depth, two samples per voxel side, and a part that a robot link cuts
is lifted at every pixel. At 640x480 most labeled pixels get stride 2
or 3, so the clouds change, and with them the pose errors: assembly
3.678 to 3.685 degrees and 1.66 to 2.25 cm over its five frames,
reach-in 4.444 to 4.111 degrees and 2.66 to 2.75 cm. Every other field,
and both ``_frames.csv`` files, kept their bytes. At 144x112 the stride
is 1 at every labeled pixel, and the twelve digests below held
unchanged.

The 144x112 summaries were last re-recorded for two reasons at once. First,
``registration.register_tree`` now strips bleed-over from a part's cloud
however few points remain, where it used to keep the whole cloud when
fewer than 8 would be left, so parts were fitted to their parents'
surfaces. With that change alone, the four assembly and reach-in
summaries at 144x112 changed their mean pose errors, and every
``_frames.csv`` and both 640x480 trials kept their digests. Second, each
summary gained ``pose_error_by_part``, each keypart's mean axis error and
sample count. Presence, accuracy and recall did not move. (Before that,
they were re-recorded when every part below the torso moved to the level
solve on the analytic cylinder, ``registration.register_level``.)

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
        "3895b4e764d4e92d64aa2ed2169ffe43436c8231db7804c1dfb817b83eee839b",
    "assembly_single-fixed_0_frames.csv":
        "fedf02ce9e2e63a75cb210284d0adb9f5be1f2f9eab4ea5dc05c7d92fa8b26e6",
    "assembly_single-fixed_0_summary.json":
        "6006a9f8dcc1da1bfa82bdfd174c83e8ec812ec6d4292910015697e680d29e44",
    "enter-exit_multi-active_0_frames.csv":
        "c8efd13522621bd5bc190794e97808ff627d470f5a3874293b7809f546f1839e",
    "enter-exit_multi-active_0_summary.json":
        "2d6541b871208cb951b6cd8cc149ab1d04ce88783387b91b414bea2662695821",
    "enter-exit_single-fixed_0_frames.csv":
        "c8efd13522621bd5bc190794e97808ff627d470f5a3874293b7809f546f1839e",
    "enter-exit_single-fixed_0_summary.json":
        "05eb2480f3065153a4b21375841792f6a724c654155326fa546f6edff4cfba2b",
    "reach-in_multi-active_0_frames.csv":
        "d54586760e862739ddb6aa1cdb25d16644c683bba85a0c02566d94d7863a6230",
    "reach-in_multi-active_0_summary.json":
        "2258fe1be0f232e0030fea98634af2a14ce9cc1d2178acc89d9f2d026f4d4592",
    "reach-in_single-fixed_0_frames.csv":
        "773887f1ceacc1b81794e5829a97ae179ab0ae0e149288354da000c1c0023190",
    "reach-in_single-fixed_0_summary.json":
        "91dcb05de5e49529c5f3ad8dfd5ab8a28587ccc19dff70fe0b98fc8dd3781013",
}

HIRES_GOLDEN = {
    "assembly_multi-fixed_0_frames.csv":
        "8011b6212a9334019f565d8e7234ff0d2293ffeb66147a4333aa8a354f145bb3",
    "assembly_multi-fixed_0_summary.json":
        "0040e038c584e96664854e859acd580c04a7478931e52c2e36ccbe4f1002bd9a",
    "reach-in_multi-fixed_0_frames.csv":
        "49c8fef410cc5a02620a6f18a0d93a58922f874c449fee2a8f93a17ec0d72cf7",
    "reach-in_multi-fixed_0_summary.json":
        "ba1ada1f11662e9e5acf508542adfbd714315ba2918b6a4bf35f3832e6917434",
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

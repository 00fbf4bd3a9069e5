"""Trial harness and CLI: metrics accounting, determinism, file outputs,
and the command-line surface with its exit codes."""

import json

import numpy as np
import pytest

from mvsense import body, registration, scenario
from mvsense.cli import main
from mvsense.harness import (
    build_scene,
    compare_configs,
    format_comparison,
    gt_part_presence,
    keypoint_depth_offsets,
    run_trial,
    select_cameras,
)


def tiny_script(seed=3, duration=1.2):
    script = scenario.scene_assembly(seed=seed, duration=duration)
    return script


class TestSceneBuilding:
    def test_config_selects_cameras(self):
        script = tiny_script()
        assert len(select_cameras(script, "multi-active")) == 2
        assert len(select_cameras(script, "single-fixed")) == 1
        assert all(r.active for r in select_cameras(script, "multi-active"))
        assert not any(r.active for r in select_cameras(script, "multi-fixed"))

    def test_unknown_config_rejected(self):
        with pytest.raises(scenario.ConfigError):
            select_cameras(tiny_script(), "triple-active")

    def test_gt_presence_uses_workspace_volume(self):
        script = tiny_script()
        scene = build_scene(script, "multi-fixed")
        pose = scene.human.pose_at(0.0)
        flags = gt_part_presence(pose, script.workspace_min, script.workspace_max)
        assert all(flags)  # assembly operator works inside the volume
        far = gt_part_presence(pose, (50, 50, 50), (60, 60, 60))
        assert not any(far)

    def test_depth_offsets_zero_for_face_points(self):
        off = keypoint_depth_offsets(body.PartDimensions())
        for kp in body.PART_KEYPOINTS[body.HEAD]:
            assert off[kp] == 0.0
        assert off[body.L_WRIST] > 0.0


class TestRunTrial:
    def test_zero_duration_empty_metrics_success(self):
        script = tiny_script(duration=0.0)
        m = run_trial(script)
        assert m.frames == 0
        assert m.total_samples == 0
        assert m.accuracy == 0.0

    def test_confusion_counts_sum_to_frames_times_parts(self):
        script = tiny_script()
        m = run_trial(script, config="multi-fixed")
        assert m.total_samples == m.frames * body.NUM_KEYPARTS
        assert 0.0 <= m.accuracy <= 1.0

    def test_frames_cap(self):
        m = run_trial(tiny_script(duration=5.0), config="single-fixed", frames=4)
        assert m.frames == 4

    def test_metrics_files_byte_identical_across_runs(self, tmp_path):
        script = tiny_script()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_trial(script, config="multi-active", out_dir=d1)
        run_trial(script, config="multi-active", out_dir=d2)
        for name in ("assembly_multi-active_3_frames.csv",
                     "assembly_multi-active_3_summary.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_changes_observation_stream(self):
        # binary presence rows may coincide across seeds; the underlying
        # noisy streams must not
        from mvsense.simulator import synthetic_detect
        streams = []
        for seed in (3, 4):
            scene = build_scene(tiny_script(seed=seed), "single-fixed")
            pose = scene.human.pose_at(0.0)
            obs = synthetic_detect(scene.rigs[0], pose,
                                   scene.robot.links_at(0.0),
                                   scene.detector_noise, scene.rng(1, 0), 0.0)
            streams.append(np.stack([o.pixel for o in obs]))
        assert not np.array_equal(streams[0], streams[1])

    def test_summary_fields(self):
        m = run_trial(tiny_script(), config="single-active")
        s = m.summary()
        for key in ("accuracy", "recall", "precision", "tp", "tn", "fp", "fn",
                    "per_part_accuracy", "mean_axis_error_deg"):
            assert key in s
        assert len(s["per_part_accuracy"]) == 10

    def test_dump_frame_writes_artifacts(self, tmp_path):
        script = tiny_script()
        run_trial(script, config="multi-fixed", frames=2, out_dir=tmp_path,
                  dump_frame=1)
        masks = list(tmp_path.glob("frame1_*_mask.txt"))
        clouds = list(tmp_path.glob("frame1_part*_cloud.xyz"))
        assert masks and clouds
        tree = json.loads((tmp_path / "frame1_tree.json").read_text())
        assert "torso" in tree

    @pytest.mark.parametrize("dump_frame", [2, 3])
    def test_dump_frame_past_frames_cap_rejected(self, tmp_path, dump_frame):
        with pytest.raises(scenario.ConfigError, match="past the 2 frames run"):
            run_trial(tiny_script(), config="multi-fixed", frames=2,
                      out_dir=tmp_path, dump_frame=dump_frame)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("failing", [0, 1])
    def test_dump_of_failed_frame_completes_without_tree(self, tmp_path,
                                                         monkeypatch, failing):
        real = registration.register_tree
        calls = []

        def register_tree(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing + 1:
                raise RuntimeError("injected registration failure")
            return real(*args, **kwargs)

        clean = tmp_path / "clean"
        run_trial(tiny_script(), config="multi-fixed", frames=2, out_dir=clean,
                  dump_frame=failing)
        monkeypatch.setattr(registration, "register_tree", register_tree)
        out = tmp_path / "failed"
        m = run_trial(tiny_script(), config="multi-fixed", frames=2,
                      out_dir=out, dump_frame=failing)
        assert m.frames == 2 and len(calls) == 2
        assert not any(m.rows[failing][f"pred_{j}"]
                       for j in range(body.NUM_KEYPARTS))
        # the failed frame dumps the masks and clouds it made before the
        # failure, and never a tree (its own partial one or a stale one)
        dumped = sorted(p.name for p in out.glob("frame*"))
        expected = sorted(p.name for p in clean.glob("frame*")
                          if not p.name.endswith("_tree.json"))
        assert dumped == expected
        for name in dumped:
            assert (out / name).read_bytes() == (clean / name).read_bytes()
        assert (clean / f"frame{failing}_tree.json").exists()

class TestCompareConfigs:
    def test_structure_and_single_trial_std_zero(self):
        script = tiny_script(duration=1.0)
        table = compare_configs(script, trials=1)
        assert set(table) == set(scenario.CONFIGS)
        for stats in table.values():
            assert stats["std_accuracy"] == 0.0
            assert len(stats["accuracies"]) == 1

    def test_parallel_matches_serial(self):
        script = tiny_script(duration=1.0)
        serial = compare_configs(script, trials=2, jobs=1)
        parallel = compare_configs(script, trials=2, jobs=2)
        for config in scenario.CONFIGS:
            assert serial[config]["accuracies"] == parallel[config]["accuracies"]

    def test_format_comparison_table(self):
        script = tiny_script(duration=1.0)
        table = compare_configs(script, trials=1)
        text = format_comparison({"assembly": table})
        assert "multi-active" in text
        assert "assembly" in text

    def test_format_comparison_prints_full_std(self):
        stats = {"mean_accuracy": 0.91234, "std_accuracy": 0.0123}
        text = format_comparison({"assembly": {"multi-active": stats},
                                  "reach-in": {"multi-active": stats}})
        assert "0.9123±0.012 " in text
        assert text.count("±0.012") == 2


class TestCli:
    def _write_script(self, tmp_path):
        path = tmp_path / "t.scn"
        scenario.emit_file(tiny_script(duration=0.5), path)
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        assert main(["validate", "--script", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_script_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("format mvsense-scenario 1\nbogus-directive 1\n")
        assert main(["validate", "--script", str(bad)]) == 1

    def test_missing_file_exit_1(self):
        assert main(["validate", "--script", "/nonexistent.scn"]) == 1

    def test_simulate_runs_and_writes(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--script", str(path), "--config", "single-fixed",
                   "--frames", "3", "--out-dir", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frames"] == 3
        assert list(out.glob("*_frames.csv"))

    def test_simulate_seed_override(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        rc = main(["simulate", "--script", str(path), "--seed", "11",
                   "--config", "single-fixed", "--frames", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    def test_dump_frame_subcommand(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        out = tmp_path / "dump"
        rc = main(["dump-frame", "--script", str(path), "--frame", "3",
                   "--config", "multi-fixed", "--out-dir", str(out)])
        assert rc == 0
        assert list(out.glob("frame3_*_mask.txt"))

    @pytest.mark.parametrize("frame", [5, 100000, -1])
    def test_dump_frame_outside_trial_exit_1(self, tmp_path, capsys, frame):
        path = self._write_script(tmp_path)  # 0.5 s at 10 Hz: frames 0..4
        out = tmp_path / "dump"
        rc = main(["dump-frame", "--script", str(path), "--frame", str(frame),
                   "--out-dir", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert (f"field 'frame': {frame} is outside the trial's frames [0, 5)"
                in captured.err)
        assert "dumped" not in captured.out
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("frames", [0, -5])
    def test_simulate_frames_below_one_exit_1(self, tmp_path, capsys, frames):
        path = self._write_script(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--script", str(path), "--frames", str(frames),
                   "--out-dir", str(out)])
        assert rc == 1
        assert (f"field 'frames': need at least 1, got {frames}"
                in capsys.readouterr().err)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("trials", [0, -3])
    def test_compare_trials_below_one_exit_1(self, tmp_path, capsys, trials):
        path = self._write_script(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", "--script", str(path), "--trials", str(trials),
                   "--out-dir", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"field 'trials': need at least 1, got {trials}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_emit_template(self, tmp_path):
        out = tmp_path / "scene.scn"
        rc = main(["emit-template", "--name", "assembly", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        assert scenario.parse_file(out) == scenario.TEMPLATES["assembly"](seed=2)

    def test_emit_template_unknown_exit_1(self):
        assert main(["emit-template", "--name", "nope"]) == 1

    def test_runtime_error_exit_2(self, tmp_path):
        path = self._write_script(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["simulate", "--script", str(path), "--frames", "1",
                   "--out-dir", str(blocker / "sub")])
        assert rc == 2

    def test_compare_subcommand(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        out = tmp_path / "cmp"
        rc = main(["compare", "--script", str(path), "--trials", "1",
                   "--out-dir", str(out)])
        assert rc == 0
        assert (out / "comparison.json").exists()
        assert "single-fixed" in capsys.readouterr().out

"""Trial harness and CLI: metrics accounting, determinism, file outputs,
and the command-line surface with its exit codes."""

import json
import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import detect_view
from mvsense import body, harness, keyparts, keypoints, registration, scenario, simulator
from mvsense.cli import main
from mvsense.keypoints import DetectorFailure
from mvsense.harness import (
    build_scene,
    compare_configs,
    format_comparison,
    gt_part_presence,
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

    def test_gt_presence_matches_a_per_part_test(self):
        """The stacked comparison gives what a test per part gives: a
        midpoint on a face of the box is inside, one with a NaN outside."""
        lo, hi = (-1.0, -2.0, 0.0), (1.0, 2.0, 2.0)
        rng = np.random.default_rng(0)
        got, want = [], []
        for mids in rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0, np.nan], (40, body.NUM_KEYPARTS, 3)):
            pose = SimpleNamespace(cylinders=[SimpleNamespace(midpoint=m) for m in mids])
            got += gt_part_presence(pose, lo, hi)
            want += [bool(np.all(m >= lo) & np.all(m <= hi)) for m in mids]
        assert got == want and any(want) and not all(want)


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
        streams = []
        for seed in (3, 4):
            scene = build_scene(tiny_script(seed=seed), "single-fixed")
            pose = scene.human.pose_at(0.0)
            pixels, _conf = detect_view(scene.rigs[0], pose, scene.robot.links_at(0.0),
                                        scene.detector_noise, scene.rng(1, 0))
            streams.append(pixels)
        assert not np.array_equal(streams[0], streams[1])

    def test_summary_fields(self):
        m = run_trial(tiny_script(), config="single-active")
        s = m.summary()
        for key in ("accuracy", "recall", "precision", "tp", "tn", "fp", "fn",
                    "per_part_accuracy", "mean_axis_error_deg"):
            assert key in s
        assert len(s["per_part_accuracy"]) == 10

    def test_pose_error_by_part(self, monkeypatch):
        """Each axis error is recorded with its part, the parts a frame
        predicts present that are truly present and posed, in part order;
        the summary gives each part's mean and sample count by name."""
        scored = []
        score = harness.TrialMetrics.score

        def recording_score(self, frame, t, result, pose, lo, hi):
            score(self, frame, t, result, pose, lo, hi)
            present = gt_part_presence(pose, lo, hi)
            scored.extend([] if result.failed else [
                j for j in result.parts
                if present[j] and result.tree.nodes[j].state is not None])

        monkeypatch.setattr(harness.TrialMetrics, "score", recording_score)
        m = run_trial(tiny_script(), config="multi-fixed")
        assert scored and m.axis_error_parts == scored
        s = m.summary()
        by_part = s["pose_error_by_part"]
        assert list(by_part) == list(body.KEYPART_NAMES)
        for j, name in enumerate(body.KEYPART_NAMES):
            errors = [e for e, p in zip(m.axis_errors_deg, scored) if p == j]
            assert by_part[name] == {
                "mean_axis_error_deg": float(np.mean(errors)) if errors else None,
                "samples": len(errors)}
        assert sum(v["samples"] for v in by_part.values()) == s["pose_samples"]

    def test_pose_error_by_part_without_samples(self):
        s = harness.TrialMetrics("empty", "multi-fixed", 0, 0).summary()
        assert s["pose_error_by_part"] == {
            name: {"mean_axis_error_deg": None, "samples": 0}
            for name in body.KEYPART_NAMES}

    def test_dump_frame_writes_artifacts(self, tmp_path, monkeypatch):
        """Masks, clouds and the tree are written; each ``.xyz`` file loads
        with ``np.loadtxt`` into its part's cloud, every coordinate's bits
        kept."""
        results = []
        step = harness.Pipeline.step

        def recorded(self, inp):
            results.append(step(self, inp))
            return results[-1]

        monkeypatch.setattr(harness.Pipeline, "step", recorded)
        script = tiny_script()
        run_trial(script, config="multi-fixed", frames=2, out_dir=tmp_path,
                  dump_frame=1)
        masks = list(tmp_path.glob("frame1_*_mask.txt"))
        clouds = results[1].clouds
        assert masks and clouds
        assert sorted(tmp_path.glob("frame1_part*_cloud.xyz")) == sorted(
            tmp_path / f"frame1_part{part}_cloud.xyz" for part in clouds)
        for part, points in clouds.items():
            back = np.loadtxt(tmp_path / f"frame1_part{part}_cloud.xyz", ndmin=2)
            assert back.tobytes() == points.tobytes()
        tree = json.loads((tmp_path / "frame1_tree.json").read_text())
        assert "torso" in tree

    def test_dumped_mask_covers_the_whole_image(self, tmp_path, monkeypatch):
        """Masks hold only their painted window; the dump writes the whole
        image's labels, background outside the window."""
        painted = []
        paint = keyparts.paint_masks

        def recorded(*args):
            painted.append(paint(*args))
            return painted[-1]

        monkeypatch.setattr(keyparts, "paint_masks", recorded)
        script = tiny_script()
        run_trial(script, config="multi-fixed", frames=2, out_dir=tmp_path, dump_frame=1)
        dumped = sorted(tmp_path.glob("frame1_*_mask.txt"))
        assert dumped and len(painted) >= len(dumped)
        for path, mask in zip(dumped, painted[-len(dumped):]):
            labels = np.loadtxt(path, dtype=np.int16, ndmin=2)
            assert labels.shape == mask.shape
            assert mask.labels.size < labels.size
            assert np.array_equal(labels, mask.expanded().labels)
            labeled = (mask.labels != keyparts.BACKGROUND).sum()
            assert (labels != keyparts.BACKGROUND).sum() == labeled

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

    @pytest.mark.parametrize("fault", ["returns 16", "returns NaN", "raises"])
    def test_detector_fault_fails_that_frame_only(self, monkeypatch, caplog, fault):
        """A detector that returns 16 keypoints, or a NaN pixel, or raises,
        at 0.5 s: that frame is logged once and scored all absent, and the
        trial goes on."""
        synthetic_detect = simulator.synthetic_detect
        rigs = len(select_cameras(tiny_script(), "multi-fixed"))
        calls = []

        def faulty(*args):
            pixels, conf = synthetic_detect(*args)
            calls.append(None)
            if len(calls) != 5 * rigs + 1:  # the first rig of frame 5
                return pixels, conf
            if fault == "raises":
                raise DetectorFailure("injected")
            if fault == "returns NaN":
                pixels[3, 1] = np.nan
                return pixels, conf
            return pixels[:16], conf[:16]

        clean = run_trial(tiny_script(), config="multi-fixed")
        monkeypatch.setattr(simulator, "synthetic_detect", faulty)
        with caplog.at_level(logging.ERROR, logger="mvsense.harness"):
            m = run_trial(tiny_script(), config="multi-fixed")
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "frame 5 " in errors[0].getMessage()
        assert isinstance(errors[0].exc_info[1], DetectorFailure)
        if fault == "returns 16":
            assert "returned 16 keypoints" in str(errors[0].exc_info[1])
        if fault == "returns NaN":
            assert "keypoint 3 has pixel" in str(errors[0].exc_info[1])
        assert m.frames == clean.frames == len(m.rows)
        assert any(clean.rows[5][f"pred_{j}"] for j in range(body.NUM_KEYPARTS))
        assert not any(m.rows[5][f"pred_{j}"] for j in range(body.NUM_KEYPARTS))
        assert m.rows[:5] == clean.rows[:5]

    def test_zero_confidence_keypoints_fail_no_frame(self, monkeypatch, caplog):
        """A detector that reports confidence 0 from its fifth call on, while
        the presence windows still hold its keypoints present: fusion has no
        weight for them, so they are unfused, no frame fails, and no mask
        is painted from a pixel the detector gave confidence 0."""
        synthetic_detect = simulator.synthetic_detect
        step = harness.Pipeline.step
        calls, results = [], []

        def fading(*args):
            pixels, conf = synthetic_detect(*args)
            calls.append(None)
            return pixels, conf if len(calls) < 5 else np.zeros_like(conf)

        def recorded(pipeline, inp):
            results.append(step(pipeline, inp))
            return results[-1]

        monkeypatch.setattr(simulator, "synthetic_detect", fading)
        monkeypatch.setattr(harness.Pipeline, "step", recorded)
        with caplog.at_level(logging.ERROR, logger="mvsense.harness"):
            m = run_trial(scenario.TEMPLATES["reach-in"](), config="single-fixed", frames=8)
        assert not [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        # the windows hold parts present for some frames after the fade
        assert any(m.rows[4][f"pred_{j}"] for j in range(body.NUM_KEYPARTS))
        assert any(results[f].clouds for f in range(4))
        for result in results[4:]:
            assert not result.clouds
            assert all((mask.labels == keyparts.BACKGROUND).all()
                       for mask in result.masks.values())

    def test_failed_frame_adds_no_pose_error(self, monkeypatch, caplog):
        """Frames that fail in the scheduler, after their trees were
        registered, predict every part absent and add no pose error. Each
        logs one ERROR record with its traceback, the count perfbench
        reads as failed frames."""
        calls = []

        def plan(*args, **kwargs):
            calls.append(None)
            raise RuntimeError("injected scheduler failure")

        monkeypatch.setattr(harness.scheduler, "plan", plan)
        with caplog.at_level(logging.ERROR, logger="mvsense.harness"):
            m = run_trial(tiny_script(), config="multi-active", frames=4)
        assert calls
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == len(calls)
        for r in errors:
            assert r.name == "mvsense.harness"
            assert re.fullmatch(r"frame \d+ pipeline error", r.getMessage())
            assert str(r.exc_info[1]) == "injected scheduler failure"
        assert m.summary()["pose_samples"] == 0
        assert not any(row[f"pred_{j}"] for row in m.rows for j in range(body.NUM_KEYPARTS))


class TestPipeline:
    def test_replay_without_a_scene_reproduces_the_trial(self, monkeypatch):
        """The trial's FrameInputs, replayed through a fresh Pipeline over
        fresh rigs, give its presence rows and pose errors bit for bit."""
        script = tiny_script()
        inputs, truths = [], []
        step, score = harness.Pipeline.step, harness.TrialMetrics.score

        def recording_step(self, inp):
            inputs.append(inp)
            return step(self, inp)

        def recording_score(self, frame, t, result, pose, lo, hi):
            truths.append((frame, t, pose))
            return score(self, frame, t, result, pose, lo, hi)

        monkeypatch.setattr(harness.Pipeline, "step", recording_step)
        monkeypatch.setattr(harness.TrialMetrics, "score", recording_score)
        trial = run_trial(script, config="multi-fixed", frames=8)
        monkeypatch.undo()
        assert len(inputs) == len(truths) == 8
        assert trial.axis_errors_deg  # registration ran and was scored

        def no_simulator(*args, **kwargs):
            raise AssertionError("the replay touched the simulator")

        for name in ("render_depth", "synthetic_detect"):
            monkeypatch.setattr(simulator, name, no_simulator)
        monkeypatch.setattr(simulator.Scene, "__init__", no_simulator)
        pipeline = harness.Pipeline(select_cameras(script, "multi-fixed"), script.dims,
                                    1.0 / script.frame_rate)
        replay = harness.TrialMetrics(script.name, "multi-fixed", trial.seed, 8)
        for inp, (frame, t, pose) in zip(inputs, truths):
            replay.score(frame, t, pipeline.step(inp), pose,
                         script.workspace_min, script.workspace_max)
        assert replay.rows == trial.rows
        assert replay.axis_errors_deg == trial.axis_errors_deg
        assert replay.position_errors_m == trial.position_errors_m


    def test_one_window_per_rig_scores_like_a_window_per_row(self, monkeypatch):
        """A rig's window scores its 17 keypoint rows and 10 part rows, each
        part fed the max confidence of its keypoints, as 27 scalar windows
        do, bit for bit."""
        script = tiny_script()
        frames = []
        step = harness.Pipeline.step

        def recording_step(self, inp):
            result = step(self, inp)
            frames.append((inp.detections, {r: w.score() for r, w in self.windows.items()}))
            return result

        monkeypatch.setattr(harness.Pipeline, "step", recording_step)
        run_trial(script, config="multi-fixed", frames=8)
        rows = body.NUM_KEYPOINTS + body.NUM_KEYPARTS
        windows = {}
        for detections, scores in frames:
            assert set(scores) == set(detections) and len(scores) == 2
            for rig_id, (_pixels, conf) in detections.items():
                conf = conf.tolist()
                row_conf = conf + [max(conf[k] for k in body.PART_KEYPOINTS[j])
                                   for j in range(body.NUM_KEYPARTS)]
                ref = windows.setdefault(rig_id, [keypoints.PresenceWindow()
                                                  for _ in range(rows)])
                for w, c in zip(ref, row_conf):
                    w.update(c)
                assert scores[rig_id].tolist() == [float(w.score()) for w in ref]

    def test_a_keypoint_is_present_only_where_its_parts_are(self, rng):
        """A part row holds the max confidence of its keypoints, so its
        window never scores below theirs: in a camera, a present keypoint
        has every part that contains it present. Hence an absent part's
        keypoints are never lifted and ``augment`` finds no keypoint to
        supplement it from. Random histories, as ``Pipeline._run`` builds
        its rows, with zeros and ties."""
        levels = np.array([0.0, 0.0, 0.05, 0.135, 0.2, 0.34, 0.5, 0.9])
        split = seen = 0
        for _ in range(300):
            window = keypoints.PresenceWindow()
            for _ in range(10):
                conf = np.where(rng.random(body.NUM_KEYPOINTS) < 0.6,
                                rng.choice(levels, body.NUM_KEYPOINTS),
                                rng.random(body.NUM_KEYPOINTS))
                part_conf = np.where(body.PART_KEYPOINT_MASK, conf, -np.inf).max(axis=1)
                window.update(np.concatenate([conf, part_conf]))
                present = window.present()
                kp, part = present[:body.NUM_KEYPOINTS], present[body.NUM_KEYPOINTS:]
                assert not (body.PART_KEYPOINT_MASK & kp & ~part[:, None]).any()
                seen += int(kp.sum())
                split += int((body.PART_KEYPOINT_MASK & ~kp & part[:, None]).any())
        assert seen and split  # present keypoints, and parts with absent ones

    def test_trial_trees_have_no_supplemented_node(self, monkeypatch):
        """The consequence on a golden trial: no tree the pipeline registers
        holds a supplemented node."""
        present, supplemented = [], []
        register = registration.register_tree

        def recording_register(tree, *args):
            present.extend(p for p, node in tree.nodes.items() if node.present)
            supplemented.extend(p for p, node in tree.nodes.items() if node.supplemented)
            return register(tree, *args)

        monkeypatch.setattr(registration, "register_tree", recording_register)
        run_trial(scenario.TEMPLATES["reach-in"](seed=0, duration=1.0),
                  config="single-fixed")
        assert present and not supplemented


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

    def test_pool_starts_no_more_workers_than_tasks(self, monkeypatch):
        """One trial per config is four tasks: eight jobs start four workers."""
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, function, tasks):
                return [function(task) for task in tasks]

        class RecordingContext:
            Pool = RecordingPool

        monkeypatch.setattr(harness, "get_context", lambda method: RecordingContext())
        script = tiny_script(duration=0.5)
        table = compare_configs(script, trials=1, jobs=8)
        assert sizes == [len(scenario.CONFIGS)]
        assert table == compare_configs(script, trials=1, jobs=1)

    def test_script_emitted_once_per_call(self, monkeypatch):
        emitted, tasks = [], []
        emit = scenario.emit

        def counted(script):
            emitted.append(script.name)
            return emit(script)

        def stub(task):
            tasks.append(task)
            return task[1], task[2], 0.5, 0.5

        monkeypatch.setattr(scenario, "emit", counted)
        monkeypatch.setattr(harness, "_trial_task", stub)
        script = tiny_script()
        table = compare_configs(script, trials=3)
        assert emitted == [script.name]
        assert len(tasks) == 3 * len(scenario.CONFIGS)
        assert {text for text, _config, _seed in tasks} == {emit(script)}
        assert [(config, seed) for _text, config, seed in tasks] == \
            [(c, script.seed + k) for c in scenario.CONFIGS for k in range(3)]
        assert all(stats["accuracies"] == [0.5] * 3 for stats in table.values())

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
        path.write_text(scenario.emit(tiny_script(duration=0.5)), encoding="utf-8")
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write_script(tmp_path)
        assert main(["validate", "--script", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_script_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("format mvsense-scenario 2\nbogus-directive 1\n")
        assert main(["validate", "--script", str(bad)]) == 1

    def test_validate_version_1_file_exit_1(self, tmp_path, capsys):
        """Every version-1 file holds perception settings, which version 2
        dropped; ``validate`` refuses it at its header."""
        bad = tmp_path / "v1.scn"
        bad.write_text(scenario.emit(tiny_script()).replace(
            "mvsense-scenario 2\n", "mvsense-scenario 1\nslice-radius 5\n"))
        assert main(["validate", "--script", str(bad)]) == 1
        assert "line 1, field 'format': unsupported format version 1" in capsys.readouterr().err

    def test_validate_bare_scalar_directive_exit_1(self, tmp_path, capsys):
        text = scenario.emit(tiny_script())
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace("\nseed 3\n", "\nseed\n"))
        assert main(["validate", "--script", str(bad)]) == 1
        assert "config error: line 3, field 'seed'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_compare_jobs_below_one_exit_1(self, tmp_path, capsys, jobs):
        path = self._write_script(tmp_path)
        out = tmp_path / "out"
        rc = main(["compare", "--script", str(path), "--trials", "1",
                   "--jobs", str(jobs), "--out-dir", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"field 'jobs': need at least 1, got {jobs}" in captured.err
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

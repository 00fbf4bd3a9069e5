"""Pose-error regression bounds on fixed-camera trials.

Registration quality shows only in pose error, so this gate bounds it.
The three templates run at seed 0 for 4 s under multi-fixed and
single-fixed. Every part that a frame predicts present and that is truly
present adds its axis error (degrees between the true and estimated
cylinder axes) and its position error (metres between the midpoints), as
``harness.TrialMetrics.score`` records them. The tests bound the pooled
axis mean, the pooled position mean and each part's axis mean, and keep
the pooled sample count from falling below 90% of its measured value, so
that dropping parts cannot lower a mean.

Each bound is the value measured when the gate was added plus 10%,
rounded up to 0.1 degree, or to 0.1 mm for the position mean; the
measured value is noted beside it. Fixed cameras keep the scheduler out,
so the figures move only with what the pipeline makes of the frames.
"""

import numpy as np
import pytest

from mvsense import body, harness, scenario

DURATION = 4.0
CONFIGS = ("multi-fixed", "single-fixed")

SAMPLES = {"multi-fixed": 814, "single-fixed": 647}  # measured
AXIS_MEAN_DEG = {"multi-fixed": 10.2, "single-fixed": 8.7}  # 9.23, 7.82
POSITION_MEAN_M = {"multi-fixed": 0.0421, "single-fixed": 0.0376}  # 0.03824, 0.03412
# per part in part order; measured multi-fixed 1.38 / 5.27 / 24.01 / 32.04 /
# 10.94 / 11.49 / 6.10 / 3.94 / 5.09 / 2.77, single-fixed 1.18 / 3.98 /
# 33.42 / 7.89 (2 samples) / 8.41 / 20.85 / 2.96 / 3.13 / 2.61 / 4.37
PART_AXIS_MEAN_DEG = {
    "multi-fixed": (1.6, 5.8, 26.5, 35.3, 12.1, 12.7, 6.8, 4.4, 5.6, 3.1),
    "single-fixed": (1.3, 4.4, 36.8, 8.7, 9.3, 23.0, 3.3, 3.5, 2.9, 4.9),
}


def pose_errors(config: str) -> dict:
    """part -> (axis errors in degrees, position errors in metres) pooled
    over the three templates at seed 0."""
    errors = {j: ([], []) for j in range(body.NUM_KEYPARTS)}
    score = harness.TrialMetrics.score

    def recording_score(self, frame, t, result, pose, lo, hi):
        n = len(self.axis_errors_deg)
        score(self, frame, t, result, pose, lo, hi)
        present = harness.gt_part_presence(pose, lo, hi)
        scored = [] if result.failed else [
            j for j in result.parts
            if present[j] and result.tree.nodes[j].state is not None]
        assert len(self.axis_errors_deg) - n == len(scored)
        for j, axis, position in zip(scored, self.axis_errors_deg[n:],
                                     self.position_errors_m[n:]):
            errors[j][0].append(axis)
            errors[j][1].append(position)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness.TrialMetrics, "score", recording_score)
        for name in sorted(scenario.TEMPLATES):
            script = scenario.TEMPLATES[name](seed=0, duration=DURATION)
            harness.run_trial(script, config=config)
    return errors


@pytest.fixture(scope="module", params=CONFIGS)
def trial_errors(request):
    return request.param, pose_errors(request.param)


def pooled(errors: dict, which: int) -> list:
    return [e for j in range(body.NUM_KEYPARTS) for e in errors[j][which]]


def test_sample_count(trial_errors):
    config, errors = trial_errors
    assert len(pooled(errors, 0)) >= 0.9 * SAMPLES[config]


def test_pooled_axis_mean(trial_errors):
    config, errors = trial_errors
    assert np.mean(pooled(errors, 0)) <= AXIS_MEAN_DEG[config]


def test_pooled_position_mean(trial_errors):
    config, errors = trial_errors
    assert np.mean(pooled(errors, 1)) <= POSITION_MEAN_M[config]


def test_per_part_axis_means(trial_errors):
    config, errors = trial_errors
    means = [np.mean(errors[j][0]) if errors[j][0] else np.inf
             for j in range(body.NUM_KEYPARTS)]
    over = {body.KEYPART_NAMES[j]: (round(float(m), 2), bound)
            for j, (m, bound) in enumerate(zip(means, PART_AXIS_MEAN_DEG[config]))
            if not m <= bound}
    assert not over, f"per-part axis mean over its bound (mean, bound): {over}"

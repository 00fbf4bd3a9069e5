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
measured value is noted beside it. A change that lowers pose error
re-measures and tightens a bound the same way, and never loosens one, so
a bound whose re-measured value plus 10% lies above it keeps its earlier
value. The bounds were last re-measured when the parts below the torso
moved to the anchored level solve (``registration.register_level``).
Fixed cameras keep the scheduler out, so the figures move only with what
the pipeline makes of the frames.
"""

import numpy as np
import pytest

from mvsense import body, harness, scenario

DURATION = 4.0
CONFIGS = ("multi-fixed", "single-fixed")

SAMPLES = {"multi-fixed": 814, "single-fixed": 647}  # measured
AXIS_MEAN_DEG = {"multi-fixed": 10.2, "single-fixed": 7.9}  # 9.37, 7.14
POSITION_MEAN_M = {"multi-fixed": 0.0421, "single-fixed": 0.0354}  # 0.03953, 0.03213
# per part in part order; measured multi-fixed 1.38 / 5.32 / 24.93 / 34.74 /
# 10.77 / 9.65 / 6.12 / 3.97 / 5.36 / 2.95, single-fixed 1.18 / 3.87 /
# 27.82 / 4.11 (2 samples) / 8.45 / 19.56 / 2.93 / 3.06 / 2.64 / 4.48
PART_AXIS_MEAN_DEG = {
    "multi-fixed": (1.6, 5.8, 26.5, 35.3, 11.9, 10.7, 6.8, 4.4, 5.6, 3.1),
    "single-fixed": (1.3, 4.3, 30.7, 4.6, 9.3, 21.6, 3.3, 3.4, 2.9, 4.9),
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

"""Pose-error regression bounds on fixed-camera trials.

Registration quality shows only in pose error, so this gate bounds it.
The three templates run at seed 0 for 4 s under multi-fixed and
single-fixed. Every part that a frame predicts present and that is truly
present adds its axis error (degrees between the true and estimated
cylinder axes) and its position error (metres between the midpoints),
recorded with its part by ``harness.TrialMetrics.score``. The tests bound
the pooled axis mean, the pooled position mean and each part's axis
mean, and keep the pooled sample count from falling below 90% of its
measured value, so that dropping parts cannot lower a mean.

Each bound is the value measured when the gate was added plus 10%,
rounded up to 0.1 degree, or to 0.1 mm for the position mean; the
measured value is noted beside it. A change that lowers pose error
re-measures and tightens a bound the same way, and never loosens one, so
a bound whose re-measured value plus 10% lies above it keeps its earlier
value. The bounds were last re-measured when ``registration.register_tree``
began to strip bleed-over from a part's cloud however few points remain:
it used to keep the whole cloud when fewer than 8 points would be left,
so arm parts whose clouds were mostly their parents' surfaces were fitted
to those surfaces. The arms' bounds and single-fixed's right lower leg's
tightened; every other part measured as before. (Before that, they were
re-measured when the parts below the torso moved to the anchored level
solve, ``registration.register_level``.)
Fixed cameras keep the scheduler out, so the figures move only with what
the pipeline makes of the frames.
"""

import numpy as np
import pytest

from mvsense import body, harness, scenario

DURATION = 4.0
CONFIGS = ("multi-fixed", "single-fixed")

SAMPLES = {"multi-fixed": 814, "single-fixed": 647}  # measured
AXIS_MEAN_DEG = {"multi-fixed": 9.4, "single-fixed": 6.6}  # 8.46, 5.92
POSITION_MEAN_M = {"multi-fixed": 0.0402, "single-fixed": 0.0323}  # 0.03649, 0.02928
# per part in part order; measured multi-fixed 1.38 / 5.32 / 21.48 / 27.88 /
# 10.37 / 8.75 / 6.12 / 3.97 / 5.36 / 2.95, single-fixed 1.18 / 3.87 /
# 21.11 / 4.11 (2 samples) / 8.45 / 13.11 / 2.93 / 3.06 / 2.64 / 3.07
PART_AXIS_MEAN_DEG = {
    "multi-fixed": (1.6, 5.8, 23.7, 30.7, 11.5, 9.7, 6.8, 4.4, 5.6, 3.1),
    "single-fixed": (1.3, 4.3, 23.3, 4.6, 9.3, 14.5, 3.3, 3.4, 2.9, 3.4),
}


def pose_errors(config: str) -> dict:
    """part -> (axis errors in degrees, position errors in metres) pooled
    over the three templates at seed 0."""
    errors = {j: ([], []) for j in range(body.NUM_KEYPARTS)}
    for name in sorted(scenario.TEMPLATES):
        script = scenario.TEMPLATES[name](seed=0, duration=DURATION)
        m = harness.run_trial(script, config=config)
        for j, axis, position in zip(m.axis_error_parts, m.axis_errors_deg,
                                     m.position_errors_m):
            errors[j][0].append(axis)
            errors[j][1].append(position)
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

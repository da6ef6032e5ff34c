"""run_trial against reference_trial, bit for bit, on random scenarios in both modes.

reference_trial (tests/reference.py) runs the loop from plain stages: a
per-pair sense with per-obstacle noise draws, a fuse that places every
visible obstacle, the selection rule as a loop, one gust draw per tick and
a termination check over the recorded ticks. Only step and
steering_direction are the package's. Every tick's recorded floats, the
acted-on obstacle, the outcome, the path length and the per-class
clearances must be the same floats (compared by repr, so -0.0 is not 0.0).
"""

from __future__ import annotations

import builtins
import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402

from reference import reference_trial  # noqa: E402
from soar_sim.report import TrialRow, summarize_mode  # noqa: E402
from soar_sim.scenario_io import ScenarioSpec  # noqa: E402
from soar_sim.sim import (  # noqa: E402
    MODE_NON_SOAR,
    MODE_SOAR,
    OUTCOME_GOAL,
    OUTCOME_STUCK,
    OUTCOME_TIMEOUT,
    OUTCOME_WRONG_DIRECTION,
    run_trial,
)
from soar_sim.world import ClearancePolicy, DisturbanceSpec, ObstacleInstance, RobotParams, Vec2  # noqa: E402
from test_scenario_property import scenarios  # noqa: E402

# long enough for the 5 s stuck window, short enough to keep the per-pair reference cheap
TIME_CAP_S = 6.0

# from (0, 0) toward a goal 10 m along x, rocks kept 1 m off and balls ignored in both modes
OPEN_ROAD = ScenarioSpec(
    name="random",
    obstacles=(),
    start_pose=(Vec2(0.0, 0.0), 0.0),
    goal=Vec2(10.0, 0.0),
    goal_radius=0.3,
    robot=RobotParams(cruise_speed=1.0, max_turn_rate=2.0, slowdown_radius=0.5, collision_radius=0.1, dt=0.05),
    disturbance=DisturbanceSpec(),
    policy=ClearancePolicy({"rock": 1.0, "sports_ball": 0.0}, default_d0=1.0),
    uniform_d0=1.0,
    time_limit=TIME_CAP_S,
    seed=0,
)

# a rock dead ahead at a gap of exactly its d0 (2 - 1 is exact on this rig): the sum is zero on
# the first tick, so steering takes the tie-break's left perpendicular
TIE_AHEAD = replace(OPEN_ROAD, obstacles=(ObstacleInstance(1, "rock", Vec2(2.0, 0.0), 1.0),))
# drift cancels all of the cruise speed: stuck once the 5 s window has passed
STANDSTILL = replace(OPEN_ROAD, robot=replace(OPEN_ROAD.robot, cruise_speed=0.2),
                     disturbance=DisturbanceSpec(drift_x=-0.2))
# drift cancels all but 0.0101 m/s of the cruise speed: 0.0505 m over the 5 s stuck window, not
# stuck, but 0.049995 m over a window one tick short
CREEP = replace(OPEN_ROAD, robot=replace(OPEN_ROAD.robot, cruise_speed=0.2),
                disturbance=DisturbanceSpec(drift_x=-0.1899))
# drift 2.5 times the cruise speed carries the robot away from the goal
BLOWN_BACK = replace(OPEN_ROAD, disturbance=DisturbanceSpec(drift_x=-2.5))


def tick_view(tick):
    d = tick.decision
    steering = None if d is None else (d.v_hat, d.c1, d.c2, d.active, d.tie_break_applied)
    return tick.time, tick.position, tick.heading, tick.speed, steering, tick.min_clearance


@settings(max_examples=40, deadline=None)
@given(spec=scenarios())
@example(spec=TIE_AHEAD)
# a ball whose edge the center ray to a rock passes 0.5% inside, with gusts on: the ball occludes
# the rock, which would otherwise be the one steering acts on
@example(spec=replace(
    OPEN_ROAD,
    obstacles=(ObstacleInstance(1, "sports_ball", Vec2(1.0, 0.995 * 0.5), 0.5),
               ObstacleInstance(2, "rock", Vec2(2.0, 0.0), 0.6)),
    policy=ClearancePolicy({"rock": 1.5, "sports_ball": 0.0}),
    disturbance=DisturbanceSpec(gust_std=0.05),
))
@example(spec=STANDSTILL)
@example(spec=CREEP)
@example(spec=BLOWN_BACK)
def test_run_trial_is_the_reference_loop(spec):
    assert_reference_loop(replace(spec, time_limit=min(spec.time_limit, TIME_CAP_S)))


def assert_reference_loop(spec):
    for mode in (MODE_SOAR, MODE_NON_SOAR):
        result, ref = run_trial(spec, mode, spec.seed), reference_trial(spec, mode, spec.seed)
        assert result.outcome == ref.outcome
        assert repr((result.path_length, result.min_clearance_by_class)) == \
            repr((ref.path_length, ref.min_clearance_by_class))
        assert len(result.trajectory) == len(ref.ticks)
        for tick, ref_tick in zip(result.trajectory, ref.ticks):
            assert repr(tick_view(tick)) == repr(tick_view(ref_tick)), tick.time


@pytest.mark.parametrize("spec, outcome, ticks", [
    (STANDSTILL, OUTCOME_STUCK, 101),
    (CREEP, OUTCOME_TIMEOUT, 121),
    (BLOWN_BACK, OUTCOME_WRONG_DIRECTION, 68),
], ids=["standstill", "creep", "blown_back"])
def test_example_scene_ends_as_intended(spec, outcome, ticks):
    # each named scene still ends as its comment says, so its @example checks the oracle there
    for mode in (MODE_SOAR, MODE_NON_SOAR):
        result = run_trial(spec, mode, spec.seed)
        assert (result.outcome, len(result.trajectory)) == (outcome, ticks)


def compensated_sum(values, start=0):
    """builtins.sum as Python 3.12 and later add floats: Neumaier's compensated summation."""
    total, c = start, 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_float_sums_are_left_folds_under_a_compensated_sum(monkeypatch):
    # every float sum adds left to right, so each supported Python gives the same floats
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    # a 0.5 x 0.1 rectangle: its sides fold left to 1.2000000000000002, where 3.12's sum() gives 1.2
    loop = ObstacleInstance(1, "rock", Vec2(0.0, 0.0), 0.1, (Vec2(0.5, 0.0), Vec2(0.5, 0.1), Vec2(0.0, 0.1)), 1.0)
    left_fold = ((0.5 + 0.1) + 0.5) + 0.1
    assert compensated_sum([0.5, 0.1, 0.5, 0.1]) != left_fold
    assert loop.position_at(left_fold) == Vec2(0.0, 0.0)  # the loop's end is its start again
    rows = [TrialRow(seed, time, OUTCOME_GOAL) for seed, time in enumerate([0.1, 0.2, 0.3])]
    assert summarize_mode(MODE_SOAR, rows).mean_travel_time == ((0.1 + 0.2) + 0.3) / 3
    assert_reference_loop(TIE_AHEAD)

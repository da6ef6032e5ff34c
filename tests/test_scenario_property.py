"""Random scenarios: each is rejected by validation or round-trips and runs to an outcome.

Specs are drawn directly, so invalid ones (a dt above 0.1, a slowdown radius
inside the goal, an obstacle over the start or the goal) reach the loader
and must come back as a ScenarioError, never as any other exception.
Specs with out-of-range sensor values or a NaN check that validate_scenario
accepts a spec exactly when the loader accepts its document.

The roadmap's "zero-d0 classes are transparent" property is not checked
here: a zero-d0 obstacle still occludes the obstacles behind it and still
takes perception noise draws, so removing it changes the run except in
arranged scenes. Acceptance criterion 05 checks it in such a scene.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import yaml  # noqa: E402
from soar_sim import scenario_io  # noqa: E402
from soar_sim.perception import StereoRig  # noqa: E402
from soar_sim.scenario_io import (  # noqa: E402
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    serialize_scenario,
    validate_scenario,
)
from soar_sim.sim import (  # noqa: E402
    MODE_NON_SOAR,
    MODE_SOAR,
    OUTCOME_COLLISION,
    OUTCOME_GOAL,
    OUTCOME_STUCK,
    OUTCOME_TIMEOUT,
    OUTCOME_WRONG_DIRECTION,
    run_trial,
)
from soar_sim.world import (  # noqa: E402
    ClearancePolicy,
    DisturbanceSpec,
    ObstacleInstance,
    RobotParams,
    Vec2,
)

OUTCOMES = {OUTCOME_GOAL, OUTCOME_TIMEOUT, OUTCOME_WRONG_DIRECTION, OUTCOME_STUCK, OUTCOME_COLLISION}
CLASSES = ["rock", "person", "sports_ball", "cone"]

COORD = st.floats(-6.0, 6.0, allow_nan=False)
POINT = st.builds(Vec2, COORD, COORD)
STEP = st.builds(Vec2, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))

RIGS = st.builds(
    StereoRig,
    focal_px=st.sampled_from([200.0, 400.0]),
    baseline_m=st.sampled_from([0.06, 0.12]),
    disparity_std=st.sampled_from([0.0, 0.3]),
    misclassify_prob=st.sampled_from([0.0, 0.3]),
    confusion=st.just({"rock": "sports_ball"}),
    fov_deg=st.sampled_from([360.0, 90.0]),
    max_range_m=st.sampled_from([4.0, 15.0]),
)
# each field drawn from in-range and out-of-range values
ANY_RIGS = st.builds(
    StereoRig,
    focal_px=st.sampled_from([0.0, 400.0]),
    baseline_m=st.sampled_from([-0.1, 0.12]),
    disparity_std=st.sampled_from([-0.1, 0.0, 0.3]),
    misclassify_prob=st.sampled_from([0.3, 1.5, -0.1]),
    confusion=st.just({"rock": "sports_ball"}),
    fov_deg=st.sampled_from([360.0, 0.0, 90.0]),
    max_range_m=st.sampled_from([-1.0, 4.0, 15.0]),
)
NAN = math.nan
# no edit, or one field of the spec set to NaN
NAN_EDITS = [
    lambda s: s,
    lambda s: replace(s, goal=Vec2(NAN, s.goal.y)),
    lambda s: replace(s, start_pose=(s.start_pose[0], NAN)),
    lambda s: replace(s, uniform_d0=NAN),
    lambda s: replace(s, disturbance=replace(s.disturbance, drift_y=NAN)),
    lambda s: replace(s, policy=replace(s.policy, default_d0=NAN)),
    lambda s: replace(s, rig=replace(s.rig, cx=NAN)),
    lambda s: replace(s, rig=replace(s.rig, max_range_m=NAN)),
    lambda s: replace(s, obstacles=tuple(replace(o, radius=NAN) for o in s.obstacles)),
]


@st.composite
def obstacles(draw, max_count=8):
    result = []
    for obstacle_id in range(1, draw(st.integers(0, max_count)) + 1):
        center = draw(POINT)
        waypoints, speed = (), 0.0
        if draw(st.booleans()):
            # loops stay within 2 m of the center, so they rarely sweep the goal
            waypoints = tuple(center + offset for offset in draw(st.lists(STEP, min_size=1, max_size=3)))
            speed = draw(st.floats(0.0, 1.5))
        result.append(ObstacleInstance(obstacle_id, draw(st.sampled_from(CLASSES)), center,
                                       draw(st.floats(0.0, 1.0)), waypoints, speed))
    return tuple(result)


@st.composite
def scenarios(draw, obstacle_strategy=obstacles(), rigs=RIGS):
    goal_radius = draw(st.floats(0.05, 0.8))
    return ScenarioSpec(
        name="random",
        obstacles=draw(obstacle_strategy),
        start_pose=(draw(POINT), draw(st.floats(-math.pi, math.pi))),
        goal=draw(POINT),
        goal_radius=goal_radius,
        robot=RobotParams(
            cruise_speed=draw(st.floats(0.2, 2.0)),
            max_turn_rate=draw(st.floats(0.5, 4.0)),
            slowdown_radius=goal_radius + draw(st.floats(-0.1, 1.5)),
            collision_radius=draw(st.floats(0.0, 0.4)),
            dt=draw(st.sampled_from([0.02, 0.05, 0.1, 0.12])),
        ),
        disturbance=DisturbanceSpec(
            drift_x=draw(st.floats(-0.3, 0.3)),
            drift_y=draw(st.floats(-0.3, 0.3)),
            gust_std=draw(st.sampled_from([0.0, 0.05])),
        ),
        policy=ClearancePolicy(
            entries={label: draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])) for label in CLASSES[:3]},
            default_d0=draw(st.sampled_from([0.0, 1.0])),
        ),
        uniform_d0=draw(st.sampled_from([0.5, 1.0, 1.5])),
        time_limit=draw(st.floats(0.05, 8.0)),
        seed=draw(st.integers(0, 2**31)),
        rig=draw(rigs),
    )


@st.composite
def odd_scenarios(draw):
    """Specs with sensor values often out of range, and sometimes a NaN."""
    spec = draw(scenarios(obstacle_strategy=obstacles(max_count=3), rigs=ANY_RIGS))
    return draw(st.sampled_from(NAN_EDITS))(spec)


def rock_on_start(offset, radius):
    """A zero-d0 rock a tiny offset from the start, which non_soar treats as opaque."""
    return ScenarioSpec(
        name="random",
        obstacles=(ObstacleInstance(1, "rock", Vec2(0.0, offset), radius),),
        start_pose=(Vec2(0.0, 0.0), 0.0),
        goal=Vec2(0.0, 1.0),
        goal_radius=0.5,
        robot=RobotParams(cruise_speed=1.0, max_turn_rate=1.0, slowdown_radius=0.5, collision_radius=0.0,
                          dt=0.02),
        disturbance=DisturbanceSpec(),
        policy=ClearancePolicy(entries={"rock": 0.0}, default_d0=0.0),
        uniform_d0=0.5,
        time_limit=1.0,
        seed=0,
    )


class TestRandomScenarios:
    @settings(max_examples=60, deadline=None)
    @given(spec=scenarios())
    # fuse places the rock's estimate exactly on the robot, where steering has no direction
    @example(spec=rock_on_start(2.2250738585072014e-308, 0.0))
    # at 1e-251 m the rock's image area overflows a float
    @example(spec=rock_on_start(1.0529970872887591e-251, 1.0))
    def test_rejected_or_round_trips_and_runs_to_an_outcome(self, spec):
        try:
            loaded = load_scenario(serialize_scenario(spec))
        except ScenarioError:
            return
        assert loaded == spec
        for mode in (MODE_SOAR, MODE_NON_SOAR):
            result = run_trial(spec, mode)
            assert result.outcome in OUTCOMES
            assert result.travel_time <= spec.time_limit + spec.robot.dt

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    @settings(max_examples=40, deadline=None)
    @given(spec=scenarios())
    def test_libyaml_parses_documents_as_pyyaml_does(self, spec):
        text = serialize_scenario(spec)
        # repr, so that a NaN field compares equal to itself
        expected = repr(yaml.load(text, Loader=yaml.SafeLoader))
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == expected
        assert repr(yaml.load(text, Loader=scenario_io._Loader)) == expected

    @settings(max_examples=40, deadline=None)
    @given(spec=odd_scenarios())
    # a zero focal length passed validation and then raised in fuse
    @example(spec=replace(rock_on_start(0.5, 0.1), rig=StereoRig(focal_px=0.0)))
    def test_validating_agrees_with_loading(self, spec):
        try:
            validate_scenario(spec)
            valid = True
        except ScenarioError:
            valid = False
        try:
            load_scenario(serialize_scenario(spec))
            loads = True
        except ScenarioError:
            loads = False
        assert valid == loads
        if valid:
            assert run_trial(spec, MODE_SOAR).outcome in OUTCOMES

    @settings(max_examples=20, deadline=None)
    @given(spec=scenarios(obstacle_strategy=st.just(())))
    def test_modes_coincide_without_obstacles(self, spec):
        try:
            validate_scenario(spec)
        except ScenarioError:
            return
        assert run_trial(spec, MODE_SOAR).trajectory == run_trial(spec, MODE_NON_SOAR).trajectory

"""Mirror symmetry of the whole trial loop.

Reflecting a scenario about the x-axis (y negated for the start, the goal,
obstacle centres, waypoints and drift, and the start heading negated) gives
the same trial with y and heading negated, bit for bit: negation commutes
with IEEE + - * / and sqrt, hypot and cos are even, atan2 and sin are odd,
the occlusion prefilter squares its cross product, and range, bearing
magnitude, id and intrusion order every sort and every tie.

The mirror breaks by design in two ways, so where the two runs differ,
either run must have met one at or before the first tick that differs:

- steering's tie-break takes the left perpendicular in both runs;
- wrap_angle maps both +pi and -pi to +pi, so a heading error, a new
  heading or an obstacle bearing of exactly +-pi (straight behind, or
  rounded there) is +pi in both runs: an exact reversal turns left in both.

Gusts are off: their stream is not mirrored.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from soar_sim.perception import StereoRig  # noqa: E402
from soar_sim.scenario_io import (  # noqa: E402
    ScenarioError,
    ScenarioSpec,
    load_scenario_file,
    validate_scenario,
)
from soar_sim.sim import MODE_NON_SOAR, MODE_SOAR, run_trial  # noqa: E402
from soar_sim.world import (  # noqa: E402
    ClearancePolicy,
    DisturbanceSpec,
    ObstacleInstance,
    RobotParams,
    Vec2,
    wrap_angle,
)

MODES = (MODE_SOAR, MODE_NON_SOAR)
CLASSES = ["rock", "person", "sports_ball"]


def flip(p: Vec2) -> Vec2:
    return Vec2(p.x, -p.y)


def mirror(spec: ScenarioSpec) -> ScenarioSpec:
    """spec reflected about the x-axis."""
    return replace(
        spec,
        obstacles=tuple(
            replace(obs, center=flip(obs.center), waypoints=tuple(flip(w) for w in obs.waypoints))
            for obs in spec.obstacles
        ),
        start_pose=(flip(spec.start_pose[0]), -spec.start_pose[1]),
        goal=flip(spec.goal),
        disturbance=replace(spec.disturbance, drift_y=-spec.disturbance.drift_y),
    )


def first_broken_tick(spec: ScenarioSpec, trajectory) -> int:
    """Index of the first tick with a tie-break, or a heading error, heading or bearing of exactly +-pi."""
    for i in range(1, len(trajectory)):
        before, decision = trajectory[i - 1], trajectory[i].decision
        p, heading = before.position, before.heading
        angles = [math.atan2(decision.v_hat.y, decision.v_hat.x) - heading] + [
            math.atan2(c.y - p.y, c.x - p.x) - heading
            for c in (obs.position_at(trajectory[i].time) for obs in spec.obstacles)
        ]
        angles.append(trajectory[i].heading)
        if decision.tie_break_applied or any(abs(wrap_angle(a)) == math.pi for a in angles):
            return i
    return len(trajectory)


def active_id(decision):
    return None if decision.active is None else decision.active.id


def tick_mirrors(t, m) -> bool:
    """Whether tick m is tick t reflected about the x-axis."""
    if (m.time, m.position, m.heading, m.speed, m.min_clearance) != (
        t.time, flip(t.position), -t.heading, t.speed, t.min_clearance
    ):
        return False
    if t.decision is None:
        return m.decision is None
    d, e = t.decision, m.decision
    return (e.v_hat, e.c1, e.c2, active_id(e)) == (flip(d.v_hat), d.c1, d.c2, active_id(d))


def mirrors(spec: ScenarioSpec, mode: str, seed: int) -> bool:
    """Whether the reflected spec runs the mirrored trial; where it does not, the rule must explain why."""
    reflection = mirror(spec)
    result, reflected = run_trial(spec, mode, seed), run_trial(reflection, mode, seed)
    a, b = result.trajectory, reflected.trajectory
    differs = next((i for i, (t, m) in enumerate(zip(a, b)) if not tick_mirrors(t, m)), min(len(a), len(b)))
    if differs == len(a) == len(b):
        assert (reflected.outcome, reflected.path_length, reflected.min_clearance_by_class) == (
            result.outcome, result.path_length, result.min_clearance_by_class
        )
        return True
    assert differs >= min(first_broken_tick(spec, a), first_broken_tick(reflection, b)), f"tick {differs}"
    return False


# every shipped scenario has a full view; at 90 degrees the bearing test decides what is seen
@pytest.mark.parametrize("fov_deg", [360.0, 90.0])
def test_shipped_scenarios_mirror(scenario_dir, fov_deg):
    broken = set()
    for path in sorted(scenario_dir.glob("*.yaml")):
        spec = load_scenario_file(str(path))
        spec = replace(spec, disturbance=replace(spec.disturbance, gust_std=0.0),
                       rig=replace(spec.rig, fov_deg=fov_deg))
        for mode in MODES:
            if not mirrors(spec, mode, 42):
                broken.add((spec.name, mode))
    # transparency non_soar meets ball 1 exactly head-on at tick 52 and reverses
    assert broken == {("transparency", MODE_NON_SOAR)}


COORD = st.floats(-6.0, 6.0, allow_nan=False)
STEP = st.floats(-2.0, 2.0)


@st.composite
def y_distinct_scenarios(draw):
    """Random gust-free specs in which the start, goal, centres and waypoints have distinct y.

    Equal y values (Hypothesis often draws 0.0) put an obstacle exactly
    behind the robot, a bearing of +-pi that wrap_angle does not mirror.
    """
    n = draw(st.integers(0, 6))
    loops = [draw(st.integers(0, 2)) if draw(st.booleans()) else 0 for _ in range(n)]
    ys = iter(draw(st.lists(COORD, min_size=2 + n + sum(loops), max_size=2 + n + sum(loops), unique=True)))
    obstacles = []
    for obstacle_id, waypoints in enumerate(loops, start=1):
        center = Vec2(draw(COORD), next(ys))
        path = tuple(Vec2(center.x + draw(STEP), next(ys)) for _ in range(waypoints))
        speed = draw(st.floats(0.0, 1.5)) if waypoints else 0.0
        obstacles.append(ObstacleInstance(obstacle_id, draw(st.sampled_from(CLASSES)), center,
                                          draw(st.floats(0.0, 1.0)), path, speed))
    goal_radius = draw(st.floats(0.05, 0.8))
    return ScenarioSpec(
        name="random",
        obstacles=tuple(obstacles),
        start_pose=(Vec2(draw(COORD), next(ys)), draw(st.floats(-math.pi, math.pi))),
        goal=Vec2(draw(COORD), next(ys)),
        goal_radius=goal_radius,
        robot=RobotParams(
            cruise_speed=draw(st.floats(0.2, 2.0)),
            max_turn_rate=draw(st.floats(0.5, 4.0)),
            slowdown_radius=goal_radius + draw(st.floats(0.0, 1.5)),
            collision_radius=draw(st.floats(0.0, 0.4)),
            dt=draw(st.sampled_from([0.02, 0.05, 0.1])),
        ),
        disturbance=DisturbanceSpec(drift_x=draw(st.floats(-0.3, 0.3)), drift_y=draw(st.floats(-0.3, 0.3))),
        policy=ClearancePolicy(
            entries={label: draw(st.sampled_from([0.0, 0.5, 1.0])) for label in CLASSES[:2]},
            default_d0=draw(st.sampled_from([0.0, 1.0])),
        ),
        uniform_d0=draw(st.sampled_from([0.5, 1.0])),
        time_limit=draw(st.floats(0.5, 6.0)),
        seed=draw(st.integers(0, 2**31)),
        rig=StereoRig(
            disparity_std=draw(st.sampled_from([0.0, 0.3])),
            misclassify_prob=draw(st.sampled_from([0.0, 0.3])),
            confusion={"rock": "sports_ball"},
            fov_deg=draw(st.sampled_from([360.0, 90.0])),
            max_range_m=draw(st.sampled_from([4.0, 15.0])),
        ),
    )


@settings(max_examples=30, deadline=None)
@given(spec=y_distinct_scenarios())
def test_random_scenarios_mirror(spec):
    try:
        validate_scenario(spec)
    except ScenarioError:
        return
    for mode in MODES:
        mirrors(spec, mode, spec.seed)

"""Deterministic fixed-step simulation.

One trial runs the perceive -> fuse -> select -> steer -> move loop until
a termination condition fires (sense ranges, fuse admits by the clearance
rule and places, selection ranks). Trials are pure functions of
(scenario, mode, seed): perception noise and disturbance gusts come from
separate seeded streams, drawn in blocks that are the same streams as
draws made tick by tick. Moving obstacles advance before the robot each
tick. Each recorded state is one Tick: the robot's pose and speed, the
steering decision that moved it there and its smallest gap to an avoidable
obstacle; the loop reads the pose from the newest Tick, and termination,
export and plotting all read that one list. run_trials runs a seed in
several modes, sensing their common prefix once, with the cyclic garbage
collector paused, as the loop makes no reference cycles; run_trial is its
one-mode case. numpy loads where the streams are seeded, so importing the
package, validating a scenario or plotting a trajectory never loads it.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from math import atan2, cos, dist, sin, sqrt
from threading import Lock
from typing import NamedTuple, Optional, Sequence

from soar_sim.perception import Draws, PerceptionFrame, fuse, largest_d0, noise_draws, sense
from soar_sim.scenario_io import ScenarioSpec
from soar_sim.steering import SteeringDecision, steering_direction
from soar_sim.world import (
    ClearancePolicy,
    RobotParams,
    Vec2,
    effective_d0,
    nearest_effective_obstacle,
    new_record,
    wrap_angle,
)

MODE_SOAR = "soar"
MODE_NON_SOAR = "non_soar"

OUTCOME_GOAL = "goal_reached"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_WRONG_DIRECTION = "wrong_direction"
OUTCOME_STUCK = "stuck"
OUTCOME_COLLISION = "collision"

# failure-condition thresholds of the trial protocol: stuck means moving less
# than STUCK_EPSILON_M over the last STUCK_WINDOW_S; wrong direction means
# ending up farther than WRONG_DIR_FACTOR times the start distance from the goal
STUCK_WINDOW_S = 5.0
STUCK_EPSILON_M = 0.05
WRONG_DIR_FACTOR = 1.5

# rng sub-stream tags, so toggling one noise source never shifts the other
_STREAM_PERCEPTION = 1
_STREAM_DISTURBANCE = 2

# items per rng call of a trial's noise streams (gust pairs, label flips, disparity rows); a
# block is the same stream as one draw per tick, and drawing past the trial's end is unseen
DRAW_BLOCK = 256

# held while a trial reads and clears the process-wide collector flag, or sets it back: another thread's
# gc.enable() between a read and its disable would leave the collector off for good
_GC_FLAG = Lock()


class Tick(NamedTuple):
    """One recorded state: the robot after a tick and what steering acted on.

    min_clearance is the smallest gap to an obstacle whose true class has a
    positive scenario-policy d0 (inf when there is none). The t=0 tick holds
    the start state, with decision None.
    """

    time: float
    position: Vec2
    heading: float
    speed: float
    decision: Optional[SteeringDecision]
    min_clearance: float


@dataclass(frozen=True, slots=True)
class TrialResult:
    outcome: str
    path_length: float
    min_clearance_by_class: dict[str, float]
    trajectory: tuple[Tick, ...]
    mode: str
    seed: int

    @property
    def travel_time(self) -> float:
        return self.trajectory[-1].time


def step(
    position: Vec2,
    heading: float,
    v_hat: Vec2,
    params: RobotParams,
    goal: Vec2,
    disturbance: Vec2,
) -> tuple[Vec2, float, float]:
    """Advance the robot one tick of params.dt toward v_hat; returns its (position, heading, speed).

    Heading turns toward v_hat rate-limited by max_turn_rate; an error of
    exactly +-pi turns left by wrap_angle's (-pi, pi], not by a tie-break.
    Speed is cruise_speed, ramped linearly to zero inside slowdown_radius of
    the goal; the disturbance is added as a velocity.
    """
    dt = params.dt
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    x, y = position.x, position.y
    err = wrap_angle(atan2(v_hat.y, v_hat.x) - heading)
    max_delta = params.max_turn_rate * dt
    if err > max_delta:
        err = max_delta
    elif err < -max_delta:
        err = -max_delta
    heading = wrap_angle(heading + err)
    # sqrt(dx*dx + dy*dy), not hypot: the golden digests pin these floats
    dxg = goal.x - x
    dyg = goal.y - y
    goal_dist = sqrt(dxg * dxg + dyg * dyg)
    if goal_dist >= params.slowdown_radius:
        speed = params.cruise_speed
    else:
        speed = params.cruise_speed * (goal_dist / params.slowdown_radius)
    x = x + speed * dt * cos(heading) + disturbance.x * dt
    y = y + speed * dt * sin(heading) + disturbance.y * dt
    return new_record(Vec2, (x, y)), heading, speed


def detect_termination(trajectory: Sequence[Tick], spec: ScenarioSpec) -> Optional[str]:
    """Evaluate the termination conditions at the newest tick of trajectory.

    trajectory holds the ticks so far, oldest first, evenly spaced by the
    robot dt. Collision is judged by the newest tick's min_clearance, which
    counts only obstacles whose true class has a positive scenario-policy
    d0: driving through ignorable objects is sanctioned while
    misclassification-induced contact is not.
    """
    if not trajectory:
        raise ValueError("trajectory must be non-empty")
    now = trajectory[-1]
    t, pos = now.time, now.position
    goal_dist = dist(pos, spec.goal)
    if goal_dist <= spec.goal_radius:
        return OUTCOME_GOAL
    if now.min_clearance <= spec.robot.collision_radius:
        return OUTCOME_COLLISION
    if t >= spec.time_limit:
        return OUTCOME_TIMEOUT
    if t >= STUCK_WINDOW_S:
        back = round(STUCK_WINDOW_S / spec.robot.dt)
        if back < len(trajectory) and dist(pos, trajectory[-1 - back].position) < STUCK_EPSILON_M:
            return OUTCOME_STUCK
    initial_dist = dist(trajectory[0].position, spec.goal)
    if goal_dist > WRONG_DIR_FACTOR * initial_dist:
        return OUTCOME_WRONG_DIRECTION
    return None


def run_trial(spec: ScenarioSpec, mode: str, seed: Optional[int] = None) -> TrialResult:
    """Run one trial, bit-identical for identical (spec, mode, seed): the one-mode case of run_trials."""
    return run_trials(spec, (mode,), seed)[0]


def run_trials(spec: ScenarioSpec, modes: Sequence[str], seed: Optional[int] = None) -> list[TrialResult]:
    """run_trial(spec, mode, seed) for each mode, in order, from one tick loop.

    soar mode looks d0 up in the scenario's per-class policy; non_soar mode
    gives every label spec.uniform_d0. sense cuts each frame at largest_d0 of
    the modes' policies. Until the modes' fused estimates first differ, it
    runs once per tick and fuse admits the frame under each mode's policy;
    then each goes on alone, from a copy of the loop's state and streams, and
    fuses that frame under its own. The loop makes no reference cycles, so
    it runs with the cyclic garbage collector off, and turns the collector
    back on only if it was on.
    """
    if isinstance(modes, str) or not modes:
        raise ValueError(f"modes must be a non-empty sequence of modes, got {modes!r}")
    for mode in modes:
        if mode not in (MODE_SOAR, MODE_NON_SOAR):
            raise ValueError(f"mode must be '{MODE_SOAR}' or '{MODE_NON_SOAR}', got {mode!r}")
    if seed is None:
        seed = spec.seed

    import numpy as np
    rng_perception = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_PERCEPTION]))
    rng_gust = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_DISTURBANCE]))
    policy_of = {MODE_SOAR: spec.policy, MODE_NON_SOAR: ClearancePolicy(entries={}, default_d0=spec.uniform_d0)}

    dt = spec.robot.dt
    obstacles = spec.obstacles
    labels = [obs.class_label for obs in obstacles]
    radii = [obs.radius for obs in obstacles]
    avoidable = [effective_d0(spec.policy, label) > 0.0 for label in labels]
    # world snapshot: static obstacles are placed once, moving ones every tick
    moving = [i for i, obs in enumerate(obstacles) if obs.is_moving()]
    max_ticks = math.ceil(spec.time_limit / dt) + 1
    drift_x, drift_y = spec.disturbance.drift_x, spec.disturbance.drift_y
    gust_std = spec.disturbance.gust_std

    def loop(modes: Sequence[str], state: tuple, frame: Optional[PerceptionFrame]) -> list[TrialResult]:
        """Run modes from state to their outcomes; a given frame is the next tick's, already sensed."""
        trajectory, positions, min_clearance, path_length, disturbance, gusts, draws = state
        policies = [policy_of[mode] for mode in modes]
        max_gap, paired = largest_d0(policies), len(policies) > 1

        def update_clearance(pos: Vec2) -> float:
            """Fold pos into min_clearance; return its smallest gap to an avoidable obstacle."""
            nearest = math.inf
            for label, radius, center, avoid in zip(labels, radii, positions, avoidable):
                gap = dist(pos, center) - radius
                gap = gap if gap > 0.0 else 0.0  # max(0.0, gap), NaN and -0.0 included
                if gap < min_clearance[label]:
                    min_clearance[label] = gap
                if avoid and gap < nearest:
                    nearest = gap
            return nearest

        if not trajectory:  # a new trial records its start state first
            trajectory.append(Tick(0.0, *spec.start_pose, 0.0, None, update_clearance(spec.start_pose[0])))
        outcome = detect_termination(trajectory, spec)
        for tick in range(len(trajectory), max_ticks + 1):
            if outcome is not None:
                break
            t_next = tick * dt
            now = trajectory[-1]
            pose = (now.position, now.heading)
            if frame is None:
                # obstacle-first ordering: sensing and collision use positions at t_next
                for i in moving:
                    positions[i] = obstacles[i].position_at(t_next)
                frame = sense(obstacles, pose, spec.rig, max_gap, draws, positions=positions)
            estimates, _ = fuse(frame, pose, policies[0])
            if paired and any(fuse(frame, pose, policy)[0] != estimates for policy in policies[1:]):
                from copy import deepcopy  # one deepcopy: the two noise streams keep one generator
                return [result for mode in modes for result in loop((mode,), (
                    list(trajectory), list(positions), dict(min_clearance), path_length, disturbance,
                    *deepcopy((gusts, draws))), frame)]
            frame = None
            decision = steering_direction(now.position, spec.goal, nearest_effective_obstacle(estimates))

            if gust_std > 0.0:
                [(gx, gy)] = gusts.take(1)
                disturbance = new_record(Vec2, (drift_x + gx, drift_y + gy))

            position, heading, speed = step(now.position, now.heading, decision.v_hat, spec.robot, spec.goal,
                                            disturbance)
            path_length += dist(now.position, position)
            trajectory.append(new_record(Tick, (t_next, position, heading, speed, decision,
                                                update_clearance(position))))
            outcome = detect_termination(trajectory, spec)
        return [TrialResult(outcome or OUTCOME_TIMEOUT, path_length, dict(min_clearance), tuple(trajectory), mode, seed)
                for mode in modes]

    gusts = Draws(rng_gust, lambda rng, n: rng.normal(0.0, gust_std, (n, 2)).tolist(), DRAW_BLOCK)
    # without gusts the disturbance is fixed for the trial; adding 0.0 maps a -0.0 drift to 0.0
    start = ([], [obs.position_at(0.0) for obs in obstacles], {label: math.inf for label in labels}, 0.0,
             Vec2(drift_x + 0.0, drift_y + 0.0), gusts, noise_draws(rng_perception, spec.rig, DRAW_BLOCK))
    with _GC_FLAG:
        enabled = gc.isenabled()
        gc.disable()
    try:
        return loop(modes, start, None)
    finally:
        del loop  # loop calls itself through this cell: emptied, it leaves no cycle for the collector
        with _GC_FLAG:
            if enabled:
                gc.enable()

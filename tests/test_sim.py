from __future__ import annotations

import gc
import math
import os
import pickle
import re
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soar_sim.sim
import soar_sim.world
from soar_sim.perception import (
    Detection,
    Draws,
    PerceptionFrame,
    StereoRig,
    fuse,
    largest_d0,
    noise_draws,
    sense,
)
from soar_sim.report import TrialRow, build_comparison, render_trajectory_csv, render_trial_summary, summarize_mode
from soar_sim.scenario_io import load_scenario_file
from soar_sim.sim import (
    MODE_NON_SOAR,
    MODE_SOAR,
    OUTCOME_COLLISION,
    OUTCOME_GOAL,
    OUTCOME_STUCK,
    OUTCOME_TIMEOUT,
    OUTCOME_WRONG_DIRECTION,
    Tick,
    TrialResult,
    detect_termination,
    run_trial,
    run_trials,
    step,
)
from soar_sim.steering import SteeringDecision
from soar_sim.world import (ClearancePolicy, ObstacleEstimate, RobotParams, Vec2, effective_d0,
                            nearest_effective_obstacle)

PARAMS = RobotParams(cruise_speed=1.0, max_turn_rate=2.0, slowdown_radius=1.0,
                     collision_radius=0.2, dt=0.05)
FAR_GOAL = Vec2(100.0, 0.0)
NO_DRIFT = Vec2(0.0, 0.0)
ORIGIN = Vec2(0.0, 0.0)
PER_TICK_RECORDS = {
    "Vec2": (ORIGIN, "x"),
    "Tick": (Tick(0.0, ORIGIN, 0.0, 0.0, None, math.inf), "min_clearance"),
    "SteeringDecision": (SteeringDecision(0.0, 0.0, ORIGIN, None, False), "v_hat"),
    "Detection": (Detection(3, "rock", "rock", 1.0, 0.0, 0.5), "range_m"),
    "PerceptionFrame": (PerceptionFrame((), 0), "detections"),
}
# fuse's output and the obstacle steering acts on are both world.ObstacleEstimate records; these two
# keys name those roles, checked on the records the pipeline really hands on
FUSED, _ = fuse(PerceptionFrame((PER_TICK_RECORDS["Detection"][0],), 0), (ORIGIN, 0.0), ClearancePolicy())
PER_TICK_RECORDS["LabeledObstacleEstimate"] = (FUSED[0], "position")
PER_TICK_RECORDS["ActiveObstacle"] = (nearest_effective_obstacle(FUSED), "d0")


# the per-trial results are immutable records too, checked by the same test
ROW = TrialRow(0, 0.0, OUTCOME_GOAL)
RESULT_RECORDS = {
    "TrialResult": (TrialResult(OUTCOME_GOAL, 0.0, {}, (PER_TICK_RECORDS["Tick"][0],), MODE_SOAR, 0), "trajectory"),
    "TrialRow": (ROW, "outcome"),
    "ModeSummary": (summarize_mode(MODE_SOAR, [ROW]), "rows"),
    "ComparisonReport": (build_comparison("x", [ROW], [ROW]), "soar"),
}


@pytest.mark.parametrize("name", sorted(PER_TICK_RECORDS) + sorted(RESULT_RECORDS))
def test_per_tick_records_are_immutable(name):
    record, field_name = {**PER_TICK_RECORDS, **RESULT_RECORDS}[name]
    with pytest.raises(AttributeError):
        setattr(record, field_name, None)
    assert getattr(record, field_name) is not None


def test_results_survive_the_process_pool_boundary(head_on):
    # pool workers pickle their TrialRows back to the parent; a caller that pools run_trial pickles TrialResults
    result = run_trial(head_on, MODE_SOAR, 42)
    for record in (TrialRow(result.seed, result.travel_time, result.outcome), result):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and repr(copy) == repr(record)
    assert pickle.loads(pickle.dumps(result)).travel_time == result.travel_time


GUST_STD = 0.3
NOISE_SOURCES = {
    "flips": StereoRig(misclassify_prob=0.5),
    "rows": StereoRig(disparity_std=0.4),
    "both": StereoRig(disparity_std=0.4, misclassify_prob=0.5),
}


@pytest.mark.parametrize("seed", [0, 42, 2**32 - 1])
@settings(max_examples=40, deadline=None)
@given(source=st.sampled_from(["gusts", *NOISE_SOURCES]), block=st.integers(0, 40),
       ks=st.lists(st.integers(0, 12), max_size=25))
def test_gust_block_is_the_per_tick_stream(seed, source, block, ks):
    # run_trial takes its noise from blocks of DRAW_BLOCK items; the goldens were recorded with
    # one rng call per source and tick, so a numpy that fills a block differently fails here first
    blocked, per_tick = np.random.default_rng(seed), np.random.default_rng(seed)
    if source == "gusts":
        gusts = Draws(blocked, lambda rng, n: rng.normal(0.0, GUST_STD, (n, 2)).tolist(), block)
        taken = [gusts.take(k) for k in ks]
        expected = [[per_tick.normal(0.0, GUST_STD, 2).tolist() for _ in range(k)] for k in ks]
    else:
        # sense's order: a frame's k label draws, then its k disparity rows; with both sources
        # on they share one stream, which stays the per-frame one whatever the block asked for
        rig = NOISE_SOURCES[source]
        flips, rows = noise_draws(blocked, rig, block)
        flips_on, rows_on = rig.misclassify_prob > 0.0, rig.disparity_std > 0.0
        taken = [(flips.take(k) if flips_on else None, rows.take(k) if rows_on else None) for k in ks]
        expected = [
            (per_tick.random(k).tolist() if flips_on else None,
             np.sort(per_tick.normal(0.0, rig.disparity_std, (k, 9)), axis=1).tolist() if rows_on else None)
            for k in ks
        ]
        if flips_on and rows_on:
            assert blocked.bit_generator.state == per_tick.bit_generator.state
    assert taken == expected


class TestStep:
    def test_straight_advance(self):
        position, heading, speed = step(ORIGIN, 0.0, Vec2(1.0, 0.0), PARAMS, FAR_GOAL, NO_DRIFT)
        assert position.x == pytest.approx(1.0 * PARAMS.dt, rel=1e-12)
        assert position.y == 0.0
        assert heading == 0.0
        assert speed == 1.0

    def test_turn_rate_saturation(self):
        # the error is exactly pi, +pi by wrap_angle's (-pi, pi], so the limited turn is to the left
        _, heading, _ = step(ORIGIN, 0.0, Vec2(-1.0, 0.0), PARAMS, FAR_GOAL, NO_DRIFT)
        assert heading == PARAMS.max_turn_rate * PARAMS.dt

    def test_slowdown_ramp_midpoint(self):
        goal = Vec2(0.5, 0.0)  # slowdown_radius/2 away
        _, _, speed = step(ORIGIN, 0.0, Vec2(1.0, 0.0), PARAMS, goal, NO_DRIFT)
        assert speed == pytest.approx(PARAMS.cruise_speed / 2.0, rel=1e-12)

    def test_disturbance_displaces(self):
        drift = Vec2(0.0, 2.0)
        position, _, _ = step(ORIGIN, 0.0, Vec2(1.0, 0.0), PARAMS, FAR_GOAL, drift)
        assert position.y == pytest.approx(2.0 * PARAMS.dt, rel=1e-12)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step(ORIGIN, 0.0, Vec2(1.0, 0.0), replace(PARAMS, dt=0.0), FAR_GOAL, NO_DRIFT)


def ticks_at(positions, dt=0.05, min_clearance=math.inf):
    """Ticks at the given positions, k * dt apart, every gap min_clearance."""
    return [Tick(k * dt, p, 0.0, 0.0, None, min_clearance) for k, p in enumerate(positions)]


class TestDetectTermination:
    def test_goal_reached(self, open_field):
        ticks = ticks_at([open_field.goal + Vec2(0.1, 0.0)])
        assert detect_termination(ticks, open_field) == OUTCOME_GOAL

    def test_timeout(self, open_field):
        ticks = ticks_at([Vec2(0.0, 0.0), Vec2(1.0, 0.0)], dt=open_field.time_limit)
        assert detect_termination(ticks, open_field) == OUTCOME_TIMEOUT

    def test_stuck_on_zero_displacement(self, open_field):
        n = round(5.0 / open_field.robot.dt) + 1
        ticks = ticks_at([Vec2(1.0, 0.0)] * n, open_field.robot.dt)
        assert detect_termination(ticks, open_field) == OUTCOME_STUCK

    def test_not_stuck_before_window_elapses(self, open_field):
        ticks = ticks_at([Vec2(1.0, 0.0)] * 10, open_field.robot.dt)
        assert detect_termination(ticks, open_field) is None

    def test_wrong_direction_from_walkaway_trajectory(self, open_field):
        # constructed trajectory that walks away from the goal until 1.5x
        start = Vec2(0.0, 0.0)
        initial = math.dist(start, open_field.goal)
        positions = [start]
        pos = start
        while math.dist(pos, open_field.goal) <= 1.5 * initial:
            pos = pos + Vec2(-0.5, 0.0)
            positions.append(pos)
        ticks = ticks_at(positions, open_field.robot.dt)
        assert detect_termination(ticks, open_field) == OUTCOME_WRONG_DIRECTION
        # one step earlier it was still fine
        assert detect_termination(ticks[:-1], open_field) is None

    def test_collision_judged_by_min_clearance(self, open_field):
        radius = open_field.robot.collision_radius
        touching = ticks_at([Vec2(1.0, 0.0)], min_clearance=radius)
        clear = ticks_at([Vec2(1.0, 0.0)], min_clearance=radius + 0.01)
        assert detect_termination(touching, open_field) == OUTCOME_COLLISION
        assert detect_termination(clear, open_field) is None

    def test_empty_history_rejected(self, open_field):
        with pytest.raises(ValueError):
            detect_termination([], open_field)


class TestRunTrial:
    def test_obstacle_free_time(self, open_field):
        result = run_trial(open_field, MODE_SOAR, seed=3)
        assert result.outcome == OUTCOME_GOAL
        straight = math.dist(open_field.start_pose[0], open_field.goal)
        lower = straight / open_field.robot.cruise_speed
        assert lower <= result.travel_time <= lower * 1.15
        assert result.path_length >= straight - open_field.goal_radius

    def test_modes_identical_without_obstacles(self, open_field):
        soar = run_trial(open_field, MODE_SOAR, seed=3)
        non_soar = run_trial(open_field, MODE_NON_SOAR, seed=3)
        assert soar.trajectory == non_soar.trajectory

    def test_bit_identical_reruns(self, parking_lot):
        first = run_trial(parking_lot, MODE_SOAR, seed=42)
        second = run_trial(parking_lot, MODE_SOAR, seed=42)
        assert first == second

    def test_seed_defaults_to_scenario_seed(self, open_field):
        assert run_trial(open_field, MODE_SOAR) == run_trial(open_field, MODE_SOAR, seed=open_field.seed)

    def test_invalid_mode_rejected(self, open_field):
        with pytest.raises(ValueError):
            run_trial(open_field, "telepathic")

    # a bare string would read as a sequence of one-letter modes, and no modes leaves nothing to run
    @pytest.mark.parametrize("modes", [(), MODE_SOAR], ids=["empty", "string"])
    def test_malformed_modes_rejected(self, open_field, modes):
        with pytest.raises(ValueError, match=re.escape(f"modes must be a non-empty sequence of modes, got {modes!r}")):
            run_trials(open_field, modes)

    def test_soar_drives_through_ignorable_balls(self, transparency):
        result = run_trial(transparency, MODE_SOAR, seed=5)
        assert result.outcome == OUTCOME_GOAL
        assert result.min_clearance_by_class["sports_ball"] == 0.0

    def test_non_soar_detours_and_takes_longer(self, transparency):
        # one ignorable ball blocking the line: soar drives through it,
        # non_soar treats it as opaque and swings around
        one_ball = replace(
            transparency,
            obstacles=(replace(transparency.obstacles[0], center=Vec2(5.0, 0.3)),),
            robot=replace(transparency.robot, cruise_speed=0.5),
        )
        soar = run_trial(one_ball, MODE_SOAR, seed=5)
        non_soar = run_trial(one_ball, MODE_NON_SOAR, seed=5)
        assert soar.outcome == OUTCOME_GOAL
        assert non_soar.outcome == OUTCOME_GOAL
        assert non_soar.travel_time > soar.travel_time
        assert non_soar.min_clearance_by_class["sports_ball"] > 0.2

    def test_ignorable_transparency(self, transparency):
        without_balls = replace(
            transparency,
            obstacles=tuple(o for o in transparency.obstacles if o.class_label != "sports_ball"),
        )
        with_balls_run = run_trial(transparency, MODE_SOAR, seed=5)
        without_balls_run = run_trial(without_balls, MODE_SOAR, seed=5)
        assert with_balls_run.trajectory == without_balls_run.trajectory

    def test_transparency_holds_with_gusts_on(self, transparency):
        gusty = replace(transparency, disturbance=replace(transparency.disturbance, gust_std=0.03))
        without_balls = replace(
            gusty,
            obstacles=tuple(o for o in gusty.obstacles if o.class_label != "sports_ball"),
        )
        a = run_trial(gusty, MODE_SOAR, seed=6)
        b = run_trial(without_balls, MODE_SOAR, seed=6)
        assert a.trajectory == b.trajectory

    def test_clearance_keeping_single_block(self, single_block):
        result = run_trial(single_block, MODE_SOAR, seed=1)
        assert result.outcome == OUTCOME_GOAL
        d0 = single_block.policy.entries["rock"]
        assert result.min_clearance_by_class["rock"] >= 0.95 * d0

    def test_collision_outcome_matches_clearance_record(self, head_on):
        for seed in range(100, 110):
            result = run_trial(head_on, MODE_SOAR, seed=seed)
            touched = result.min_clearance_by_class["rock"] <= head_on.robot.collision_radius
            assert (result.outcome == OUTCOME_COLLISION) == touched

    def test_travel_time_within_limit(self, arch):
        result = run_trial(arch, MODE_NON_SOAR, seed=43)
        assert result.travel_time <= arch.time_limit + arch.robot.dt

    def test_tick_record_invariants(self, open_field):
        result = run_trial(open_field, MODE_SOAR, seed=3)
        dt = open_field.robot.dt
        assert [tick.time for tick in result.trajectory] == [k * dt for k in range(len(result.trajectory))]
        assert [tick.decision is None for tick in result.trajectory] == [True] + [False] * (
            len(result.trajectory) - 1
        )
        assert result.travel_time == result.trajectory[-1].time

    def test_collision_only_for_avoidable_true_classes(self, transparency):
        ball = transparency.obstacles[0]  # sports_ball, d0 = 0
        rock = transparency.obstacles[-1]
        heading = transparency.start_pose[1]
        inside_ball = run_trial(replace(transparency, start_pose=(ball.center, heading)), MODE_SOAR, seed=5)
        assert inside_ball.outcome == OUTCOME_GOAL
        touching_rock = Vec2(rock.center.x + rock.radius + 0.1, rock.center.y)
        at_rock = run_trial(replace(transparency, start_pose=(touching_rock, heading)), MODE_SOAR, seed=5)
        assert at_rock.outcome == OUTCOME_COLLISION
        assert at_rock.travel_time == 0.0


# these scenes set no disparity noise, no label confusion and no gusts, so a trial draws nothing from its
# seed: compare --trials N on them repeats one pair N times; head_on confuses labels, so its seed matters
@pytest.mark.parametrize("scene, seed_matters", [("single_block", False), ("transparency", False),
                                                 ("open_field", False), ("head_on", True)])
def test_noise_free_scenes_ignore_the_seed(request, scene, seed_matters):
    spec = request.getfixturevalue(scene)
    seed_42, seed_43 = (run_trials(spec, (MODE_SOAR, MODE_NON_SOAR), seed) for seed in (42, 43))
    same = [(a.outcome, a.trajectory) == (b.outcome, b.trajectory) for a, b in zip(seed_42, seed_43)]
    assert same == ([False, False] if seed_matters else [True, True])


def test_stage_hooks_called_once_per_tick(monkeypatch, parking_lot):
    # perfbench/spans.py times sim.sense and sim.fuse by swapping these module
    # attributes; it counts sense(...).detections and fuse(...)[1] as dropped
    frames, dropped = [], []
    sense, fuse = soar_sim.sim.sense, soar_sim.sim.fuse

    def counting_sense(*args, **kwargs):
        frames.append(sense(*args, **kwargs))
        return frames[-1]

    def counting_fuse(*args, **kwargs):
        fused = fuse(*args, **kwargs)
        dropped.append(fused[1])
        return fused

    monkeypatch.setattr(soar_sim.sim, "sense", counting_sense)
    monkeypatch.setattr(soar_sim.sim, "fuse", counting_fuse)
    # with noise this wide, each visible obstacle has no positive sample with odds near 2^-9
    noisy = replace(parking_lot, time_limit=5.0, rig=replace(parking_lot.rig, disparity_std=1e3))
    ticks = len(run_trial(noisy, MODE_SOAR, seed=42).trajectory) - 1
    assert ticks > 0
    assert len(frames) == len(dropped) == ticks
    assert all(isinstance(frame.detections, tuple) for frame in frames)
    assert dropped == [frame.dropped for frame in frames]
    assert sum(dropped) > 0


def test_paired_trials_sense_their_common_prefix_once(monkeypatch, parking_lot):
    # run_trials senses once per tick while the two trials match, then once per tick in each;
    # two plain trials would sense every tick of each
    frames = []
    sense = soar_sim.sim.sense

    def counting_sense(*args, **kwargs):
        frames.append(sense(*args, **kwargs))
        return frames[-1]

    monkeypatch.setattr(soar_sim.sim, "sense", counting_sense)
    soar, non_soar = run_trials(parking_lot, (MODE_SOAR, MODE_NON_SOAR), 42)
    ticks_soar, ticks_non_soar = len(soar.trajectory) - 1, len(non_soar.trajectory) - 1
    # the common Tick prefix after t=0; the next tick, where the fused estimates first differ, is
    # sensed once as well, and both trials fuse that frame
    shared = next(i for i, (a, b) in enumerate(zip(soar.trajectory[1:], non_soar.trajectory[1:])) if a != b)
    assert shared > 0
    assert len(frames) == ticks_soar + ticks_non_soar - (shared + 1)


def test_position_at_hook_resolved_per_call(monkeypatch, arch):
    # perfbench/spans.py times world.position_at by swapping the class attribute
    calls = []
    position_at = soar_sim.world.ObstacleInstance.position_at

    def counting_position_at(self, t):
        calls.append(self.id)
        return position_at(self, t)

    monkeypatch.setattr(soar_sim.world.ObstacleInstance, "position_at", counting_position_at)
    ticks = len(run_trial(arch, MODE_SOAR, seed=42).trajectory) - 1
    moving = sum(obs.is_moving() for obs in arch.obstacles)
    assert (len(arch.obstacles), moving, ticks) == (30, 2, 327)
    # every obstacle placed at t=0, then the moving ones once per tick
    assert len(calls) == 30 + 2 * 327 == 684


def assert_whole(record, cls):
    # the loop builds these through tuple.__new__, which checks no field count
    assert type(record) is cls
    assert len(record) == len(cls._fields)


def test_loop_records_are_whole(scenario_dir):
    fused = 0
    for path in sorted(scenario_dir.glob("*.yaml")):
        spec = load_scenario_file(str(path))
        for mode in (MODE_SOAR, MODE_NON_SOAR):
            for tick in run_trial(spec, mode, spec.seed).trajectory:
                assert_whole(tick, Tick)
                assert_whole(tick.position, Vec2)
                if tick.decision is None:
                    continue
                assert_whole(tick.decision, SteeringDecision)
                assert_whole(tick.decision.v_hat, Vec2)
                if tick.decision.active is not None:
                    assert_whole(tick.decision.active, ObstacleEstimate)
                    assert_whole(tick.decision.active.position, Vec2)

        if not spec.obstacles:
            continue
        # one frame from just outside the first obstacle, with the scene's own noise
        obs = spec.obstacles[0]
        pose = (Vec2(obs.center.x - obs.radius - 0.1, obs.center.y), 0.0)
        draws = noise_draws(np.random.default_rng(spec.seed), spec.rig, 0)
        frame = sense(spec.obstacles, pose, spec.rig, largest_d0([spec.policy]), draws,
                      [o.center for o in spec.obstacles])
        estimates, _ = fuse(frame, pose, spec.policy)
        assert_whole(frame, PerceptionFrame)
        for det in frame.detections:
            assert_whole(det, Detection)
        for est in estimates:
            assert_whole(est, ObstacleEstimate)
            assert_whole(est.position, Vec2)
        # the frame is cut at the largest d0; fuse admits what the policy avoids within its class's d0
        admitted = [det.instance_id for det in frame.detections
                    if 0.0 < effective_d0(spec.policy, det.reported_class) >= det.gap]
        assert [est.id for est in estimates] == admitted
        fused += len(estimates)
    assert fused > 0


def test_loop_calls_no_record_constructor_per_tick(monkeypatch, transparency):
    # the loop builds its records through tuple.__new__, without the Python frame of each
    # class's own __new__: the constructor calls of a trial must not grow with its ticks
    calls = {}
    for cls in (Vec2, Tick, SteeringDecision, Detection, PerceptionFrame, ObstacleEstimate):
        def counting_new(cls_, *args, _new=cls.__new__, **kwargs):
            calls[cls_.__name__] = calls.get(cls_.__name__, 0) + 1
            return _new(cls_, *args, **kwargs)
        monkeypatch.setattr(cls, "__new__", staticmethod(counting_new))

    counts, ticks = [], []
    for time_limit in (1.0, 10.0):
        spec = replace(transparency, time_limit=time_limit)
        calls.clear()
        for mode in (MODE_SOAR, MODE_NON_SOAR):
            ticks.append(len(run_trial(spec, mode, spec.seed).trajectory))
        # the paired call too, which at 10 s runs past its fork
        ticks.extend(len(result.trajectory) for result in run_trials(spec, (MODE_SOAR, MODE_NON_SOAR), spec.seed))
        counts.append(dict(calls))
    assert all(short < long for short, long in zip(ticks[:4], ticks[4:]))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("name", ["arch", "parking_lot"])
def test_trials_do_not_depend_on_obstacle_order(request, name):
    # every shipped scene lists its obstacles in id order; sense hands its noise rows and label flips
    # out in id order, so the same scene listed backwards writes the same bytes, alone and paired
    spec = request.getfixturevalue(name)
    ids = [obs.id for obs in spec.obstacles]
    assert len(ids) > 2 and ids == sorted(ids)
    backwards = replace(spec, obstacles=spec.obstacles[::-1])

    def artifacts(spec, seed):
        results = [*run_trials(spec, (MODE_SOAR, MODE_NON_SOAR), seed),
                   *(run_trial(spec, mode, seed) for mode in (MODE_SOAR, MODE_NON_SOAR))]
        return [(render_trajectory_csv(result), render_trial_summary(result, spec.name)) for result in results]

    for seed in (42, 43):
        assert artifacts(backwards, seed) == artifacts(spec, seed), seed


def test_trials_leave_no_cyclic_garbage(parking_lot, arch):
    # the loop calls itself through its closure cell, which run_trials empties when it ends, so
    # reference counting frees all a trial made and the collector finds nothing: a paired trial
    # that forks, and a trial with moving obstacles and gusts, each short and long
    gc.collect()
    for time_limit in (1.0, 10.0):
        soar, non_soar = run_trials(replace(parking_lot, time_limit=time_limit), (MODE_SOAR, MODE_NON_SOAR), 42)
        run_trial(replace(arch, time_limit=time_limit), MODE_NON_SOAR, 42)
    assert soar.trajectory != non_soar.trajectory
    assert gc.collect() == 0


def test_trial_loop_runs_with_the_collector_paused(monkeypatch, open_field):
    seen = []
    step = soar_sim.sim.step

    def recording_step(*args):
        seen.append(gc.isenabled())
        return step(*args)

    monkeypatch.setattr(soar_sim.sim, "step", recording_step)
    spec = replace(open_field, time_limit=1.0)
    run_trial(spec, MODE_SOAR)
    assert seen and not any(seen)
    assert gc.isenabled()

    # the flag is process-wide: a caller that turned the collector off finds it still off
    gc.disable()
    try:
        run_trial(spec, MODE_SOAR)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_failing_trial_leaves_the_collector_as_it_was(monkeypatch, open_field, enabled):
    def failing_step(*args):
        raise RuntimeError("step failed")

    monkeypatch.setattr(soar_sim.sim, "step", failing_step)
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(RuntimeError, match="step failed"):
            run_trial(open_field, MODE_SOAR)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


class SlowFlagGC:
    """gc, but isenabled() sleeps after it reads the flag, which holds open the window in which
    another thread's gc.enable() could fall between a trial's read and its disable."""

    def __getattr__(self, name):
        return getattr(gc, name)

    def isenabled(self):
        enabled = gc.isenabled()
        time.sleep(1e-4)
        return enabled


def test_concurrent_trials_leave_the_collector_on(monkeypatch, open_field, transparency, arch):
    # each trial reads, clears and restores the process-wide collector flag: with more threads than
    # CPUs, asked to switch every microsecond, another thread's re-enable must never fall between one
    # trial's read and its disable, which would leave the collector off after every trial has ended
    jobs = [(replace(spec, time_limit=0.5), mode, 42) for spec in (open_field, transparency, arch)
            for mode in (MODE_SOAR, MODE_NON_SOAR)]
    serial = [run_trial(*job) for job in jobs]
    monkeypatch.setattr(soar_sim.sim, "gc", SlowFlagGC())
    results, errors = [], []

    def work(offset):
        try:
            for _ in range(10):
                for k in range(len(jobs)):
                    i = (k + offset) % len(jobs)
                    results.append((i, run_trial(*jobs[i])))
        except Exception as exc:  # reported below, in the test's own thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(n,), daemon=True) for n in range((os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 10 * len(jobs) * len(threads)
    assert all(result == serial[i] for i, result in results)
    assert gc.isenabled()

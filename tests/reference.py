"""Reference pipeline for the differential tests: plain loops written from the documented rules.

reference_sense tests every pair of obstacles exactly and draws noise one
obstacle at a time; reference_fuse ranges and places every visible
obstacle that has a positive sample, whatever its class; reference_select
is the paper's selection rule as a loop. reference_trial runs the whole
perceive -> select -> steer -> step -> terminate loop from them, with one
gust draw per tick and a termination check that reads the recorded ticks.
Only step and steering_direction, which acceptance criteria 01-03 pin, are
the package's own, and the tie-break's turn is restated.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Optional

import numpy as np

from soar_sim.perception import SAMPLES_PER_DETECTION
from soar_sim.sim import (
    MODE_SOAR,
    OUTCOME_COLLISION,
    OUTCOME_GOAL,
    OUTCOME_STUCK,
    OUTCOME_TIMEOUT,
    OUTCOME_WRONG_DIRECTION,
    STUCK_EPSILON_M,
    STUCK_WINDOW_S,
    WRONG_DIR_FACTOR,
    step,
)
from soar_sim.steering import steering_direction
from soar_sim.world import ClearancePolicy, ObstacleEstimate, Vec2, wrap_angle


class Seen(NamedTuple):
    """A visible obstacle as the reference senses it; disparity is None when no sample is positive."""

    id: int
    reported_class: str
    true_class: str
    disparity: Optional[float]
    bearing: float
    radius: float


class Placed(NamedTuple):
    """A ranged and placed obstacle, with the d0 of its reported class."""

    seen: Seen
    position: Vec2
    gap: float
    d0: float


class RefTick(NamedTuple):
    time: float
    position: Vec2
    heading: float
    speed: float
    decision: object  # the SteeringDecision of steering_direction, None at t=0
    min_clearance: float


class RefTrial(NamedTuple):
    outcome: str
    path_length: float
    min_clearance_by_class: dict
    ticks: list


def _dist(a: Vec2, b: Vec2) -> float:
    """The distance between two points as hypot of their differences, not through Vec2.dist."""
    return math.hypot(a.x - b.x, a.y - b.y)


def segment_hits_disc(a: Vec2, b: Vec2, center: Vec2, radius: float) -> bool:
    """Whether segment a-b passes within radius of center (per-pair oracle)."""
    abx, aby = b.x - a.x, b.y - a.y
    seg_len2 = abx * abx + aby * aby
    if seg_len2 == 0.0:
        return _dist(a, center) <= radius
    t = ((center.x - a.x) * abx + (center.y - a.y) * aby) / seg_len2
    t = min(1.0, max(0.0, t))
    closest = Vec2(a.x + abx * t, a.y + aby * t)
    return _dist(closest, center) <= radius


def reference_sense(obstacles, pose, rig, rng, positions) -> list[Seen]:
    """sense() before its clearance rule, as a per-pair loop: one record per visible obstacle, in id order.

    Every obstacle tests every other one exactly. Noise is drawn per
    obstacle: every label draw (rng.random()) before any row of disparity
    samples (rng.normal(0, std, 9)).
    """
    cam_pos, heading = pose
    ordered = sorted(range(len(obstacles)), key=lambda i: obstacles[i].id)
    geo, candidates = [], []
    for i in ordered:
        obs, obs_pos = obstacles[i], positions[i]
        rng_m = _dist(cam_pos, obs_pos)
        if rng_m <= 0.0:
            continue
        geo.append((obs, obs_pos, rng_m))
        if rng_m > rig.max_range_m:
            continue
        bearing = wrap_angle(math.atan2(obs_pos.y - cam_pos.y, obs_pos.x - cam_pos.x) - heading)
        if abs(bearing) > math.radians(rig.fov_deg) / 2.0:
            continue
        candidates.append((obs, obs_pos, rng_m, bearing))
    visible = [
        (obs, obs_pos, rng_m, bearing)
        for obs, obs_pos, rng_m, bearing in candidates
        if not any(
            other_rng < rng_m and segment_hits_disc(cam_pos, obs_pos, other_pos, other.radius)
            for other, other_pos, other_rng in geo
            if other.id != obs.id
        )
    ]
    labels = []
    for obs, _, _, _ in visible:
        reported = obs.class_label
        if rig.misclassify_prob > 0.0 and rng.random() < rig.misclassify_prob:
            reported = rig.confusion.get(obs.class_label, obs.class_label)
        labels.append(reported)
    seen = []
    for (obs, obs_pos, rng_m, bearing), reported in zip(visible, labels):
        true_disparity = rig.focal_px * rig.baseline_m / rng_m
        if rig.disparity_std > 0.0:
            samples = true_disparity + rng.normal(0.0, rig.disparity_std, SAMPLES_PER_DETECTION)
            positive = [float(d) for d in samples if d > 0.0]
            disparity = statistics.median(positive) if positive else None
        else:
            disparity = true_disparity
        seen.append(Seen(obs.id, reported, obs.class_label, disparity, bearing, obs.radius))
    return seen


def depth(disparity: float, rig) -> float:
    """The ideal rig's range for a disparity, f / (d/B), in depth_from_disparity's floats but not through it.

    A d/B that underflows to 0 is ranged at inf.
    """
    w = disparity * (1.0 / rig.baseline_m)
    return rig.focal_px / w if w != 0.0 else math.inf


def reference_fuse(seen, pose, rig, policy: ClearancePolicy) -> tuple[list[Placed], int]:
    """Range and place every record with a positive sample, and look its reported class's d0 up.

    Returns (placed, dropped), dropped counting the records with no positive sample.
    """
    cam_pos, heading = pose
    placed = []
    dropped = 0
    for s in seen:
        if s.disparity is None:
            dropped += 1
            continue
        rng_m = depth(s.disparity, rig)
        ray = heading + s.bearing
        position = Vec2(cam_pos.x + rng_m * math.cos(ray), cam_pos.y + rng_m * math.sin(ray))
        gap = max(0.0, rng_m - s.radius)
        placed.append(Placed(s, position, gap, policy.entries.get(s.reported_class, policy.default_d0)))
    return placed, dropped


def qualifies(p: Placed) -> bool:
    """The clearance rule: a class with a positive d0, at a gap within that d0."""
    return p.d0 > 0.0 and p.gap <= p.d0


def reference_select(placed) -> Optional[Placed]:
    """The deepest intrusion d0 - gap among the qualifying records; ties to the smaller gap, then id."""
    best = None
    for p in placed:
        if not qualifies(p):
            continue
        if best is not None:
            depth, best_depth = p.d0 - p.gap, best.d0 - best.gap
            if depth < best_depth:
                continue
            if depth == best_depth and (p.gap, p.seen.id) > (best.gap, best.seen.id):
                continue
        best = p
    return best


def estimate(p: Placed) -> ObstacleEstimate:
    """The package's record of a placed reference record: what fuse gives and steering takes."""
    s = p.seen
    return ObstacleEstimate(s.id, s.reported_class, s.true_class, p.d0, p.position, p.gap)


def reference_outcome(spec, ticks) -> Optional[str]:
    """The termination conditions at the newest of the recorded ticks, tick n at time n * dt."""
    now = ticks[-1]
    goal_dist = _dist(now.position, spec.goal)
    if goal_dist <= spec.goal_radius:
        return OUTCOME_GOAL
    if now.min_clearance <= spec.robot.collision_radius:
        return OUTCOME_COLLISION
    if now.time >= spec.time_limit:
        return OUTCOME_TIMEOUT
    if now.time >= STUCK_WINDOW_S:
        window_start = ticks[round((now.time - STUCK_WINDOW_S) / spec.robot.dt)]
        if _dist(now.position, window_start.position) < STUCK_EPSILON_M:
            return OUTCOME_STUCK
    if goal_dist > WRONG_DIR_FACTOR * _dist(ticks[0].position, spec.goal):
        return OUTCOME_WRONG_DIRECTION
    return None


def reference_trial(spec, mode: str, seed: int) -> RefTrial:
    """run_trial written out tick by tick from the reference stages."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))  # perception noise
    gust_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    policy = spec.policy if mode == MODE_SOAR else ClearancePolicy({}, spec.uniform_d0)
    obstacles, dt = spec.obstacles, spec.robot.dt
    avoidable = [spec.policy.entries.get(o.class_label, spec.policy.default_d0) > 0.0 for o in obstacles]
    gaps_per_tick = []

    def record(t: float, pos: Vec2, heading: float, speed: float, decision, positions) -> RefTick:
        gaps = [max(0.0, _dist(pos, c) - o.radius) for o, c in zip(obstacles, positions)]
        gaps_per_tick.append(gaps)
        nearest = min((g for g, avoid in zip(gaps, avoidable) if avoid), default=math.inf)
        return RefTick(t, pos, heading, speed, decision, nearest)

    pos, heading = spec.start_pose
    ticks = [record(0.0, pos, heading, 0.0, None, [o.position_at(0.0) for o in obstacles])]
    n = 0
    while (outcome := reference_outcome(spec, ticks)) is None:
        n += 1
        t = n * dt
        positions = [o.position_at(t) for o in obstacles]
        pose = (pos, heading)
        placed, _ = reference_fuse(reference_sense(obstacles, pose, spec.rig, rng, positions),
                                   pose, spec.rig, policy)
        best = reference_select(placed)
        decision = steering_direction(pos, spec.goal, None if best is None else estimate(best))
        if decision.tie_break_applied:  # the paper's tie-break: the left perpendicular of r_hat
            rx, ry = best.position.x - pos.x, best.position.y - pos.y
            rn = math.sqrt(rx * rx + ry * ry)  # as steering_direction normalizes r
            decision = decision._replace(v_hat=Vec2(-ry / rn, rx / rn))
        gx, gy = 0.0, 0.0
        if spec.disturbance.gust_std > 0.0:
            gx, gy = gust_rng.normal(0.0, spec.disturbance.gust_std, 2).tolist()
        disturbance = Vec2(spec.disturbance.drift_x + gx, spec.disturbance.drift_y + gy)
        pos, heading, speed = step(pos, heading, decision.v_hat, spec.robot, spec.goal, disturbance)
        ticks.append(record(t, pos, heading, speed, decision, positions))

    path_length = 0.0
    for a, b in zip(ticks, ticks[1:]):  # left to right, as run_trial adds; 3.12's sum() compensates
        path_length += _dist(a.position, b.position)
    by_class = {}
    for gaps in gaps_per_tick:
        for o, g in zip(obstacles, gaps):
            by_class[o.class_label] = min(g, by_class.get(o.class_label, math.inf))
    return RefTrial(outcome, path_length, by_class, ticks)

from __future__ import annotations

import math

import numpy as np

from soar_sim.world import (
    ClearancePolicy,
    ObstacleEstimate,
    ObstacleInstance,
    Vec2,
    effective_d0,
    nearest_effective_obstacle,
    wrap_angle,
)


def est(label: str, dist: float, policy: ClearancePolicy, source: int = 1) -> ObstacleEstimate:
    """An estimate carrying its label's d0 under policy, as sense looks it up."""
    return ObstacleEstimate(id=source, reported_class=label, true_class=label, d0=effective_d0(policy, label),
                            position=Vec2(0.0, 0.0), gap=dist)


class TestVec2:
    def test_arithmetic(self):
        assert Vec2(1.0, 2.0) + Vec2(3.0, -1.0) == Vec2(4.0, 1.0)

    def test_sum_is_a_vector_not_a_concatenation(self):
        total = Vec2(0.5, -0.0) + Vec2(0.0, 0.0)
        assert type(total) is Vec2  # tuple concatenation would give a plain 4-tuple
        assert total == Vec2(0.5, 0.0)
        assert math.copysign(1.0, total.y) == 1.0  # -0.0 + 0.0 is 0.0, as the disturbance sum relies on


class TestEffectiveD0:
    def test_ignorable_ball(self):
        policy = ClearancePolicy({"sports_ball": 0.0}, default_d0=1.0)
        assert effective_d0(policy, "sports_ball") == 0.0

    def test_ignorable_fish(self):
        policy = ClearancePolicy({"fish": 0.0}, default_d0=1.0)
        assert effective_d0(policy, "fish") == 0.0

    def test_unseen_class_falls_back(self):
        policy = ClearancePolicy({}, default_d0=1.0)
        assert effective_d0(policy, "unseen_class") == 1.0


class TestWrapAngle:
    def test_lands_in_half_open_range(self):
        rng = np.random.default_rng(99)
        for a in rng.uniform(-12.0, 12.0, 5000).tolist():
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi


class TestNearestEffectiveObstacle:
    # a ranking only: the clearance rule is fuse's, and its cases are in tests/test_perception.py
    def test_zero_d0_class_never_qualifies(self):
        policy = ClearancePolicy({"sports_ball": 0.0, "car": 1.0}, default_d0=1.0)
        chosen = nearest_effective_obstacle(
            [est("sports_ball", 0.1, policy, source=1), est("car", 0.8, policy, source=2)]
        )
        assert chosen is not None
        assert chosen.reported_class == "car"
        assert chosen.d0 == 1.0

    def test_nothing_to_rank(self):
        assert nearest_effective_obstacle([]) is None

    def test_max_intrusion_wins(self):
        # two cars with d0=1 at 0.9 m and 0.5 m: intrusions 0.1 vs 0.5
        policy = ClearancePolicy({"car": 1.0}, default_d0=1.0)
        picked = nearest_effective_obstacle([est("car", 0.9, policy, source=1), est("car", 0.5, policy, source=2)])
        assert picked is not None
        assert picked.id == 2

    def test_intrusion_tie_breaks_by_distance(self):
        # equal intrusion 0.5: car at 0.5 (d0 1.0) vs bus at 0.7 (d0 1.2)
        policy = ClearancePolicy({"car": 1.0, "bus": 1.2}, default_d0=1.0)
        picked = nearest_effective_obstacle([est("bus", 0.7, policy, source=1), est("car", 0.5, policy, source=2)])
        assert picked is not None
        assert picked.reported_class == "car"

    def test_full_tie_breaks_by_id(self):
        policy = ClearancePolicy({"car": 1.0}, default_d0=1.0)
        picked = nearest_effective_obstacle([est("car", 0.5, policy, source=7), est("car", 0.5, policy, source=3)])
        assert picked is not None
        assert picked.id == 3

    def test_selection_is_order_independent(self):
        policy = ClearancePolicy({"car": 1.0}, default_d0=1.0)
        estimates = [est("car", 0.9, policy, source=1), est("car", 0.5, policy, source=2),
                     est("car", 0.7, policy, source=3)]
        forward = nearest_effective_obstacle(estimates)
        backward = nearest_effective_obstacle(list(reversed(estimates)))
        assert forward == backward


class TestObstacleMotion:
    def test_static_never_moves(self):
        obs = ObstacleInstance(1, "rock", Vec2(2.0, 3.0), 0.5)
        for t in (0.0, 1.0, 100.0):
            assert obs.position_at(t) == Vec2(2.0, 3.0)

    def test_waypoint_loop_positions(self):
        # loop (0,0) -> (2,0) -> (0,0), total length 4, speed 1
        obs = ObstacleInstance(1, "fish", Vec2(0.0, 0.0), 0.1, waypoints=(Vec2(2.0, 0.0),), speed=1.0)
        assert obs.position_at(0.0) == Vec2(0.0, 0.0)
        assert obs.position_at(1.0) == Vec2(1.0, 0.0)
        assert obs.position_at(2.0) == Vec2(2.0, 0.0)
        assert obs.position_at(2.5) == Vec2(1.5, 0.0)
        assert obs.position_at(4.0) == Vec2(0.0, 0.0)
        assert obs.position_at(5.0) == Vec2(1.0, 0.0)

    def test_zero_speed_stays_at_center(self):
        obs = ObstacleInstance(1, "fish", Vec2(1.0, 1.0), 0.1, waypoints=(Vec2(5.0, 5.0),), speed=0.0)
        assert obs.position_at(10.0) == Vec2(1.0, 1.0)

    def test_is_moving_only_when_position_depends_on_time(self):
        def loop(waypoints, speed):
            return ObstacleInstance(1, "fish", Vec2(1.0, 1.0), 0.1, waypoints=waypoints, speed=speed)

        assert loop((Vec2(5.0, 5.0),), 1.0).is_moving()
        assert not ObstacleInstance(1, "rock", Vec2(2.0, 3.0), 0.5).is_moving()
        assert not loop((Vec2(5.0, 5.0),), 0.0).is_moving()  # waypoints but no speed
        assert not loop((Vec2(1.0, 1.0),), 1.0).is_moving()  # zero-length loop
        for obs in (loop((Vec2(5.0, 5.0),), 0.0), loop((Vec2(1.0, 1.0),), 1.0)):
            assert obs.position_at(3.7) == obs.center

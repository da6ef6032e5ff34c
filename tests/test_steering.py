from __future__ import annotations

import math

import numpy as np
import pytest

from soar_sim.steering import (
    B_MAX,
    c1,
    c2,
    repulsive_potential,
    steering_direction,
)
from soar_sim.world import ObstacleEstimate, Vec2

SQ2 = math.sqrt(2.0) / 2.0


def estimate(position: Vec2, gap: float, d0: float, obstacle_id: int = 1) -> ObstacleEstimate:
    """A rock estimated at position, gap from the robot, with clearance d0."""
    return ObstacleEstimate(obstacle_id, "rock", "rock", d0, position, gap)


def unit(a: Vec2, b: Vec2) -> Vec2:
    """The unit vector from a toward b: a_hat from the robot to the goal, r_hat to active.position."""
    n = math.hypot(b.x - a.x, b.y - a.y)
    return Vec2((b.x - a.x) / n, (b.y - a.y) / n)


class TestRepulsivePotential:
    def test_zero_at_boundary(self):
        assert repulsive_potential(2.0, 2.0, 1.0) == 0.0

    def test_zero_outside(self):
        assert repulsive_potential(3.0, 2.0, 1.0) == 0.0

    def test_hand_value(self):
        assert repulsive_potential(1.0, 2.0, 1.0) == 0.25

    def test_zero_d0_means_no_influence(self):
        assert repulsive_potential(0.5, 0.0, 1.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            repulsive_potential(0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            repulsive_potential(-1.0, 2.0, 1.0)

    def test_locality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d0 = float(rng.uniform(0.1, 5.0))
            p = d0 + float(rng.uniform(1e-9, 10.0))
            assert repulsive_potential(p, d0, 2.0) == 0.0


class TestC1:
    def test_head_on(self):
        assert c1(Vec2(1.0, 0.0), Vec2(1.0, 0.0)) == -1.0

    def test_orthogonal(self):
        assert c1(Vec2(1.0, 0.0), Vec2(0.0, 1.0)) == 0.0

    def test_hand_value(self):
        assert c1(Vec2(1.0, 0.0), Vec2(SQ2, SQ2)) == pytest.approx(-SQ2, abs=1e-12)


class TestC2:
    def test_boundary_is_exactly_one(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            d0 = float(rng.uniform(0.01, 10.0))
            b = float(rng.uniform(1.0 + 1e-9, 10.0))
            assert c2(d0, d0, b) == 1.0

    def test_contact_is_exactly_b(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            d0 = float(rng.uniform(0.01, 10.0))
            b = float(rng.uniform(1.0 + 1e-9, 10.0))
            assert c2(0.0, d0, b) == b

    def test_midpoint_hand_value(self):
        assert c2(1.0, 2.0, 3.0) == 2.0

    def test_monotone_decreasing_within_range(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d0 = float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(1.01, 10.0))
            dists = sorted(float(rng.uniform(0.0, d0)) for _ in range(10))
            values = [c2(d, d0, b) for d in dists]
            for lo, hi in zip(values, values[1:]):
                assert lo >= hi
            assert all(1.0 <= v <= b for v in values)

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            c2(1.5, 1.0, 3.0)
        with pytest.raises(ValueError):
            c2(0.5, 0.0, 3.0)
        with pytest.raises(ValueError):
            c2(-0.1, 1.0, 3.0)


class TestSteeringDirection:
    def test_pure_attraction(self):
        decision = steering_direction(Vec2(0.0, 0.0), Vec2(0.0, 5.0), None)
        assert decision.v_hat == Vec2(0.0, 1.0)
        assert (decision.c1, decision.c2) == (0.0, 0.0)
        assert decision.active is None
        assert not decision.tie_break_applied

    def test_perpendicular_at_boundary(self):
        # a_hat=(1,0), r_hat=(sqrt2/2, sqrt2/2), dist=d0 so c2=1:
        # unnormalized sum (0.5, -0.5), v_hat (sqrt2/2, -sqrt2/2), v.r == 0
        active = estimate(position=Vec2(SQ2, SQ2), gap=1.0, d0=1.0, obstacle_id=4)
        decision = steering_direction(Vec2(0.0, 0.0), Vec2(10.0, 0.0), active)
        assert decision.c2 == 1.0
        assert decision.v_hat.x == pytest.approx(SQ2, abs=1e-12)
        assert decision.v_hat.y == pytest.approx(-SQ2, abs=1e-12)
        r_hat = unit(Vec2(0.0, 0.0), active.position)
        dot = decision.v_hat.x * r_hat.x + decision.v_hat.y * r_hat.y
        assert abs(dot) <= 1e-9
        assert decision.active == active

    def test_head_on_tie_break(self):
        active = estimate(position=Vec2(2.0, 0.0), gap=1.0, d0=1.0, obstacle_id=9)
        decision = steering_direction(Vec2(0.0, 0.0), Vec2(10.0, 0.0), active)
        assert decision.tie_break_applied
        assert decision.v_hat == Vec2(0.0, 1.0)  # left perpendicular of r_hat=(1,0)

    def test_c1_matches_decision_vectors(self):
        active = estimate(position=Vec2(1.0, 2.0), gap=0.4, d0=1.0, obstacle_id=1)
        decision = steering_direction(Vec2(0.0, 0.0), Vec2(5.0, -1.0), active)
        a_hat, r_hat = unit(Vec2(0.0, 0.0), Vec2(5.0, -1.0)), unit(Vec2(0.0, 0.0), active.position)
        assert decision.c1 == pytest.approx(c1(a_hat, r_hat), abs=1e-12)
        assert 1.0 <= decision.c2 <= B_MAX

    def test_unit_outputs(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            robot = Vec2(float(rng.normal()), float(rng.normal()))
            goal = Vec2(float(rng.normal() * 5), float(rng.normal() * 5))
            if robot.dist(goal) == 0.0:
                continue
            d0 = float(rng.uniform(0.2, 3.0))
            direction = rng.uniform(0, 2 * math.pi)
            dist = float(rng.uniform(0.0, d0))
            center_range = dist + 0.1
            obstacle = Vec2(robot.x + center_range * math.cos(direction),
                            robot.y + center_range * math.sin(direction))
            active = estimate(obstacle, dist, d0, obstacle_id=1)
            decision = steering_direction(robot, goal, active)
            assert math.hypot(decision.v_hat.x, decision.v_hat.y) == pytest.approx(1.0, abs=1e-9)

    def test_v_hat_parallel_to_unnormalized_sum(self):
        # normalization property: v_hat is the unit vector of a + c1*c2*r
        rng = np.random.default_rng(6)
        for _ in range(300):
            ta, tr = rng.uniform(0, 2 * math.pi, 2)
            d0 = float(rng.uniform(0.5, 2.0))
            dist = float(rng.uniform(0.0, d0))
            robot = Vec2(0.0, 0.0)
            goal = Vec2(10.0 * math.cos(ta), 10.0 * math.sin(ta))
            obstacle = Vec2((dist + 0.2) * math.cos(tr), (dist + 0.2) * math.sin(tr))
            decision = steering_direction(robot, goal, estimate(obstacle, dist, d0, 1))
            if decision.tie_break_applied:
                continue
            a_hat, r_hat = unit(robot, goal), unit(robot, obstacle)
            sx = a_hat.x + decision.c1 * decision.c2 * r_hat.x
            sy = a_hat.y + decision.c1 * decision.c2 * r_hat.y
            cross = sx * decision.v_hat.y - sy * decision.v_hat.x
            assert abs(cross) <= 1e-9
            assert sx * decision.v_hat.x + sy * decision.v_hat.y >= 0.0

    def test_deeper_intrusion_steers_harder(self):
        # angle between v_hat and a_hat grows monotonically as dist shrinks
        robot, goal = Vec2(0.0, 0.0), Vec2(10.0, 0.0)
        obstacle_dir = Vec2(math.cos(0.4), math.sin(0.4))
        d0 = 1.0
        angles = []
        for dist in np.linspace(d0, 0.0, 40):
            center_range = float(dist) + 0.3
            center = Vec2(obstacle_dir.x * center_range, obstacle_dir.y * center_range)
            decision = steering_direction(robot, goal, estimate(center, float(dist), d0, 1))
            a_hat = unit(robot, goal)
            angles.append(math.acos(max(-1.0, min(1.0,
                decision.v_hat.x * a_hat.x + decision.v_hat.y * a_hat.y))))
        for earlier, later in zip(angles, angles[1:]):
            assert later >= earlier - 1e-12

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            steering_direction(Vec2(1.0, 1.0), Vec2(1.0, 1.0), None)
        bad = estimate(Vec2(1.0, 0.0), gap=2.0, d0=1.0, obstacle_id=1)
        with pytest.raises(ValueError):
            steering_direction(Vec2(0.0, 0.0), Vec2(5.0, 0.0), bad)
        zero_d0 = estimate(Vec2(1.0, 0.0), gap=0.0, d0=0.0, obstacle_id=1)
        with pytest.raises(ValueError):
            steering_direction(Vec2(0.0, 0.0), Vec2(5.0, 0.0), zero_d0)

    def test_obstacle_at_robot_position_is_ignored(self):
        # fuse places an obstacle a subnormal range away exactly on the camera
        robot, goal = Vec2(5.0, 5.0), Vec2(9.0, 5.0)
        on_robot = estimate(robot, gap=0.0, d0=1.0, obstacle_id=1)
        assert steering_direction(robot, goal, on_robot) == steering_direction(robot, goal, None)

    def test_perpendicularity_identity_includes_head_on(self):
        # (a + c1 r) . r == 0 even when the sum itself is the zero vector
        a = Vec2(1.0, 0.0)
        r = Vec2(1.0, 0.0)
        k = c1(a, r)
        sx, sy = a.x + k * r.x, a.y + k * r.y
        assert abs(sx * r.x + sy * r.y) <= 1e-9

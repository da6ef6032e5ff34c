"""Steering law: a unit goal direction plus a gained obstacle term.

The commanded direction is the goal unit vector while no obstacle is
within its clearance distance. Once one is, a repulsive unit vector toward
the obstacle is added, scaled by c1 (removes the goal component parallel
to the obstacle direction, leaving motion tangent at the clearance
boundary) and c2 (a linear intrusion gain in [1, B_MAX] that pushes harder
the deeper the robot sits inside the clearance ring). The classic repulsive
potential is kept only for acceptance criterion 03; it does not drive
motion.
"""

from __future__ import annotations

from math import sqrt
from typing import NamedTuple, Optional

from soar_sim.world import ObstacleEstimate, Vec2, new_record

# c2 at contact: the largest repulsive gain b of the steering law (> 1)
B_MAX = 3.0
# below this norm the gained sum counts as the head-on singularity
TIE_EPS = 1e-9


class SteeringDecision(NamedTuple):
    c1: float
    c2: float
    v_hat: Vec2
    active: Optional[ObstacleEstimate]  # the obstacle the law reacted to
    tie_break_applied: bool


def repulsive_potential(p: float, d0: float, eta: float) -> float:
    """Inverse-distance push active only within d0 of the obstacle."""
    if p <= 0.0:
        raise ValueError(f"obstacle distance must be > 0, got {p}")
    if p > d0:
        return 0.0
    term = 1.0 / p - 1.0 / d0
    return eta * term * term


def c1(a_hat: Vec2, r_hat: Vec2) -> float:
    """Negated dot product of the goal and obstacle unit vectors."""
    return -(a_hat.x * r_hat.x + a_hat.y * r_hat.y)


def c2(dist: float, d0: float, b: float) -> float:
    """Linear intrusion gain: b at contact, 1 at the clearance boundary."""
    if d0 <= 0.0:
        raise ValueError(f"d0 must be > 0, got {d0}")
    if dist < 0.0 or dist > d0:
        raise ValueError(f"dist must be in [0, d0], got {dist} with d0={d0}")
    # exact at both endpoints
    return b + (1.0 - b) * (dist / d0)


def steering_direction(
    robot_pos: Vec2,
    goal: Vec2,
    active: Optional[ObstacleEstimate],
) -> SteeringDecision:
    """Commanded unit direction for one tick.

    With no active obstacle this is the goal direction. With one, the gained
    obstacle term is added and the sum normalized; if the sum degenerates to
    zero (exact head-on at the clearance boundary) the deterministic
    tie-break picks the left perpendicular of the obstacle direction. A sum
    exactly opposite the heading (head-on with c1 = -1, c2 > 1) is no tie:
    step turns it left, as wrap_angle maps that +-pi error to +pi. An
    obstacle estimated at the robot's own position gives no direction to
    steer away from, so it is treated as no active obstacle. An active
    obstacle outside 0 < d0 and 0 <= gap <= d0 is rejected by c2.
    """
    # sqrt(dx*dx + dy*dy), not hypot: the golden digests pin these floats
    dxg = goal.x - robot_pos.x
    dyg = goal.y - robot_pos.y
    an = sqrt(dxg * dxg + dyg * dyg)
    if an == 0.0:
        raise ValueError("robot position coincides with the goal; direction undefined")
    a_hat = new_record(Vec2, (dxg / an, dyg / an))
    if active is None:
        return new_record(SteeringDecision, (0.0, 0.0, a_hat, None, False))
    dxo = active.position.x - robot_pos.x
    dyo = active.position.y - robot_pos.y
    rn = sqrt(dxo * dxo + dyo * dyo)
    if rn == 0.0:
        return new_record(SteeringDecision, (0.0, 0.0, a_hat, None, False))
    r_hat = new_record(Vec2, (dxo / rn, dyo / rn))
    k1 = c1(a_hat, r_hat)
    k2 = c2(active.gap, active.d0, B_MAX)
    sx = a_hat.x + k1 * k2 * r_hat.x
    sy = a_hat.y + k1 * k2 * r_hat.y
    sn = sqrt(sx * sx + sy * sy)
    if sn < TIE_EPS:
        return new_record(SteeringDecision, (k1, k2, new_record(Vec2, (-r_hat.y, r_hat.x)), active, True))
    return new_record(SteeringDecision, (k1, k2, new_record(Vec2, (sx / sn, sy / sn)), active, False))

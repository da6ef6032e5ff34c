"""World-model domain types: vectors, obstacles, clearance policies, robot
and disturbance parameters, plus the nearest-effective-obstacle ranking
used by the steering loop. perception.sense owns the range and
perception.fuse the clearance rule; the ranking only orders what fuse admitted.

All values here are immutable after construction and safe to share between
concurrently running trials. The loop reads the obstacle, policy and parameter types every
tick: they are frozen slotted dataclasses, whose slot reads CPython 3.11 specializes. It builds
Vec2 and ObstacleEstimate every tick: they are NamedTuples, built through new_record, not their
constructors, and ~12 ns slower per field read, so the loop takes distances with math.dist.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional, Sequence


class Vec2(NamedTuple):
    x: float
    y: float

    def __add__(self, other: Vec2) -> Vec2:  # vector sum, not tuple concatenation
        return Vec2(self.x + other.x, self.y + other.y)

    def dist(self, other: Vec2) -> float:
        return math.dist(self, other)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


# new_record(Vec2, (x, y)) builds Vec2(x, y) without the Python frame of a NamedTuple's own __new__,
# which C code enters and CPython cannot inline; it checks no field count, so only the tick loop uses it
new_record = tuple.__new__


@dataclass(frozen=True, slots=True)
class ObstacleInstance:
    """An obstacle at center, or on a closed waypoint loop at a constant speed.

    The loop path is center -> waypoints[0] -> ... -> waypoints[-1] -> center.
    With no waypoints, or speed 0, the obstacle stays at center.
    """

    id: int
    class_label: str
    center: Vec2
    radius: float
    waypoints: tuple[Vec2, ...] = ()
    speed: float = 0.0
    # (path points, segment lengths, loop length), or None if the obstacle stays at center
    _loop: Optional[tuple] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        pts = self.path_points()
        seg_lengths = tuple(pts[i].dist(pts[i + 1]) for i in range(len(pts) - 1))
        total = reduce(operator.add, seg_lengths, 0.0)  # a left fold, not 3.12+ sum(); 0 for a one-point path
        loop = None if self.speed <= 0.0 or total <= 0.0 else (pts, seg_lengths, total)
        object.__setattr__(self, "_loop", loop)

    def path_points(self) -> tuple[Vec2, ...]:
        """Closed loop the obstacle travels, starting and ending at center."""
        return (self.center, *self.waypoints, self.center) if self.waypoints else (self.center,)

    def is_moving(self) -> bool:
        """Whether position_at depends on t; if not, it always returns center."""
        return self._loop is not None

    def position_at(self, t: float) -> Vec2:
        """Obstacle center at time t; a pure function so trials stay replayable."""
        loop = self._loop
        if loop is None:
            return self.center
        pts, seg_lengths, total = loop
        s = math.fmod(self.speed * t, total)
        for i, seg in enumerate(seg_lengths):
            if s <= seg:
                if seg == 0.0:
                    return pts[i]
                f = s / seg
                a, b = pts[i], pts[i + 1]
                return new_record(Vec2, (a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f))
            s -= seg
        return pts[-1]


@dataclass(frozen=True, slots=True)
class ClearancePolicy:
    """Per-class clearance distances; lookups fall back to default_d0."""

    entries: dict[str, float] = field(default_factory=dict)
    default_d0: float = 1.0


def effective_d0(policy: ClearancePolicy, class_label: str) -> float:
    """Clearance distance for a class label; never fails."""
    return policy.entries.get(class_label, policy.default_d0)


@dataclass(frozen=True, slots=True)
class RobotParams:
    cruise_speed: float = 1.0
    max_turn_rate: float = 2.5
    slowdown_radius: float = 1.0
    collision_radius: float = 0.25
    dt: float = 0.05


@dataclass(frozen=True, slots=True)
class DisturbanceSpec:
    drift_x: float = 0.0
    drift_y: float = 0.0
    gust_std: float = 0.0


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    while a > math.pi:
        a -= 2.0 * math.pi
    while a <= -math.pi:
        a += 2.0 * math.pi
    return a


class ObstacleEstimate(NamedTuple):
    """One obstacle as perception reports it, the record that selection and steering act on.

    sense ranged the gap (the surface distance, clamped at 0); fuse looked
    d0 up by the reported class and placed the position at the range sense
    measured. true_class is the ground truth, kept for the record.
    """

    id: int
    reported_class: str
    true_class: str
    d0: float
    position: Vec2
    gap: float


def nearest_effective_obstacle(estimates: Sequence[ObstacleEstimate]) -> Optional[ObstacleEstimate]:
    """The estimate the steering law should react to, or None when there is none.

    The deepest intrusion d0 - gap wins; ties break by smaller gap, then by smaller
    obstacle id, then the first of equal keys. It only ranks: fuse applied the clearance rule.
    """
    best = best_key = None
    for est in estimates:
        key = (-(est.d0 - est.gap), est.gap, est.id)
        if best is None or key < best_key:
            best, best_key = est, key
    return best

"""Synthetic labeled-stereo sensing.

An ideal rectified rig (zero distortion, identity rotation between
cameras) observes disc obstacles. Disparities are synthesized analytically
from ground-truth distance plus seeded Gaussian pixel noise, then run back
through the rig's 4x4 disparity-to-depth matrix Q (in closed form) when
fused, so the geometric data path matches a real stereo pipeline. An
oracle segmenter provides instance labels, optionally corrupted by one
seeded misclassification draw per obstacle per frame.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from soar_sim.world import ObstacleInstance, Vec2, surface_distance, wrap_angle

# samples drawn per detection; odd so the median is a single sample
SAMPLES_PER_DETECTION = 9


@dataclass(frozen=True, slots=True)
class StereoRig:
    """Ideal rectified stereo rig; Q is fixed by (f, B, cx, cy)."""

    focal_px: float = 400.0
    baseline_m: float = 0.12
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    @property
    def Q(self) -> np.ndarray:
        """Disparity-to-depth mapping matrix of the ideal rig.

        Reprojecting (u, v, d, 1) yields W = d/B and Z = f*B/d.
        """
        return np.array(
            [
                [1.0, 0.0, 0.0, -self.cx],
                [0.0, 1.0, 0.0, -self.cy],
                [0.0, 0.0, 0.0, self.focal_px],
                [0.0, 0.0, 1.0 / self.baseline_m, 0.0],
            ]
        )


@dataclass(frozen=True, slots=True)
class SensorNoiseSpec:
    disparity_std: float = 0.0
    misclassify_prob: float = 0.0
    confusion: dict[str, str] = field(default_factory=dict)
    fov_rad: float = 2.0 * math.pi
    max_range_m: float = 15.0


@dataclass(frozen=True, slots=True)
class Detection:
    """One segmented instance: label pair, mask size and disparity samples.

    bearing_rad is the azimuth of the mask centroid ray in the camera frame;
    known_radius_m is the oracle segmenter's instance radius, used by fusion
    to convert range to surface distance.
    """

    instance_id: int
    reported_class: str
    true_class: str
    pixel_count: int
    disparity_samples: tuple[float, ...]
    bearing_rad: float
    known_radius_m: float


@dataclass(frozen=True, slots=True)
class PerceptionFrame:
    detections: tuple[Detection, ...]
    camera_pose: tuple[Vec2, float]


@dataclass(frozen=True, slots=True)
class LabeledObstacleEstimate:
    class_label: str
    position: Vec2
    surface_distance: float
    source_instance: int


def depth_from_disparity(disparity: float, rig: StereoRig) -> float:
    """Recover distance from one disparity: Z/W of Q @ (u, v, d, 1) is f / (d/B) for any pixel."""
    if disparity <= 0.0:
        raise ValueError(f"disparity must be > 0, got {disparity}")
    return rig.focal_px / (disparity * (1.0 / rig.baseline_m))


def sense(
    obstacles: Sequence[ObstacleInstance],
    pose: tuple[Vec2, float],
    rig: StereoRig,
    noise: SensorNoiseSpec,
    rng: np.random.Generator,
    positions: Optional[Sequence[Vec2]] = None,
) -> PerceptionFrame:
    """Observe the world from pose, emitting one detection per visible obstacle.

    Visible means within the field of view and max range and not occluded by
    a nearer obstacle along the center ray. Obstacles are processed in id
    order; per obstacle the misclassification draw happens before the
    disparity draws, and no draw is consumed when the corresponding noise
    parameter is zero, so noise-free sensing leaves the rng untouched.
    Non-positive disparity draws are discarded.
    """
    cam_pos, heading = pose
    cx, cy = cam_pos.x, cam_pos.y
    if positions is None:
        positions = [obs.center for obs in obstacles]

    geo = []  # (range, id, x, y, radius) of every obstacle, occluders included
    candidates = []  # (obstacle, position, range, bearing) inside fov and range
    for obs, obs_pos in sorted(zip(obstacles, positions, strict=True), key=lambda op: op[0].id):
        rng_m = math.hypot(cx - obs_pos.x, cy - obs_pos.y)
        if rng_m <= 0.0:
            continue
        geo.append((rng_m, obs.id, obs_pos.x, obs_pos.y, obs.radius))
        if rng_m > noise.max_range_m:
            continue
        bearing = wrap_angle(math.atan2(obs_pos.y - cy, obs_pos.x - cx) - heading)
        if abs(bearing) > noise.fov_rad / 2.0:
            continue
        candidates.append((obs, obs_pos, rng_m, bearing))
    geo.sort()

    detections = []
    for obs, obs_pos, rng_m, bearing in candidates:
        # center ray cam_pos -> obs_pos against every strictly nearer disc
        abx, aby = obs_pos.x - cx, obs_pos.y - cy
        seg_len2 = abx * abx + aby * aby
        occluded = False
        for other_rng, _, ox, oy, radius in geo:
            if other_rng >= rng_m:
                break
            if seg_len2 == 0.0:
                occluded = math.hypot(cx - ox, cy - oy) <= radius
            else:
                t = ((ox - cx) * abx + (oy - cy) * aby) / seg_len2
                t = t if t > 0.0 else 0.0  # max(0.0, t) and min(1.0, t), NaN included, without the calls
                t = t if t < 1.0 else 1.0
                occluded = math.hypot(cx + abx * t - ox, cy + aby * t - oy) <= radius
            if occluded:
                break
        if occluded:
            continue

        reported = obs.class_label
        if noise.misclassify_prob > 0.0 and rng.random() < noise.misclassify_prob:
            reported = noise.confusion.get(obs.class_label, obs.class_label)

        true_disparity = rig.focal_px * rig.baseline_m / rng_m
        if noise.disparity_std > 0.0:
            draws = true_disparity + rng.normal(0.0, noise.disparity_std, SAMPLES_PER_DETECTION)
            samples = tuple([d for d in draws.tolist() if d > 0.0])
        else:
            samples = (true_disparity,) * SAMPLES_PER_DETECTION

        apparent_radius_px = rig.focal_px * obs.radius / rng_m
        # a mask covers at most the whole frame; the cap also keeps a tiny range's area finite
        area_px = math.pi * apparent_radius_px * apparent_radius_px
        pixel_count = max(1, round(min(area_px, rig.width * rig.height)))
        detections.append(
            Detection(
                instance_id=obs.id,
                reported_class=reported,
                true_class=obs.class_label,
                pixel_count=pixel_count,
                disparity_samples=samples,
                bearing_rad=bearing,
                known_radius_m=obs.radius,
            )
        )
    return PerceptionFrame(detections=tuple(detections), camera_pose=(cam_pos, heading))


class ObstacleMemory:
    """Optional last-seen estimate cache (off by default in trials).

    Sensing is memoryless; with a positive ttl this keeps each instance's
    last estimate alive for ttl seconds after it drops out of view, pinned
    at its last seen position with the surface distance recomputed from the
    robot's current position. update() returns the current estimates merged
    with the still-fresh remembered ones.
    """

    def __init__(self, ttl: float):
        if ttl < 0.0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        self.ttl = ttl
        # instance id -> (t_seen, estimate, inferred obstacle radius)
        self._seen: dict[int, tuple[float, LabeledObstacleEstimate, float]] = {}

    def update(
        self,
        estimates: Sequence[LabeledObstacleEstimate],
        now: float,
        robot_pos: Vec2,
    ) -> list[LabeledObstacleEstimate]:
        for estimate in estimates:
            radius = max(0.0, robot_pos.dist(estimate.position) - estimate.surface_distance)
            self._seen[estimate.source_instance] = (now, estimate, radius)
        if self.ttl == 0.0:
            return list(estimates)
        merged = list(estimates)
        current = {e.source_instance for e in estimates}
        expired = []
        for instance, (t_seen, estimate, radius) in self._seen.items():
            if instance in current:
                continue
            if now - t_seen <= self.ttl:
                merged.append(
                    LabeledObstacleEstimate(
                        class_label=estimate.class_label,
                        position=estimate.position,
                        surface_distance=surface_distance(robot_pos, estimate.position, radius),
                        source_instance=estimate.source_instance,
                    )
                )
            else:
                expired.append(instance)
        for instance in expired:
            del self._seen[instance]
        return merged


def fuse(frame: PerceptionFrame, rig: StereoRig) -> tuple[list[LabeledObstacleEstimate], int]:
    """Fuse labels and depth into world-frame obstacle estimates.

    Per detection the range is recovered from the median disparity sample
    through the Q reprojection and placed along the centroid bearing ray.
    Returns (estimates, dropped) where dropped counts detections left with
    no positive disparity sample.
    """
    cam_pos, heading = frame.camera_pose
    estimates = []
    dropped = 0
    for det in frame.detections:
        if not det.disparity_samples:
            dropped += 1
            continue
        rng_m = depth_from_disparity(statistics.median(det.disparity_samples), rig)
        ray = heading + det.bearing_rad
        position = Vec2(cam_pos.x + rng_m * math.cos(ray), cam_pos.y + rng_m * math.sin(ray))
        estimates.append(
            LabeledObstacleEstimate(
                class_label=det.reported_class,
                position=position,
                surface_distance=max(0.0, rng_m - det.known_radius_m),
                source_instance=det.instance_id,
            )
        )
    return estimates, dropped

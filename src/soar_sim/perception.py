"""Synthetic labeled-stereo sensing.

An ideal rectified rig (zero distortion, identity rotation between
cameras) observes disc obstacles. Disparities are synthesized analytically
from ground-truth distance plus seeded Gaussian pixel noise, then ranged
back by depth_from_disparity, the closed form of the ideal rig's
reprojection, so the geometric data path matches a real stereo pipeline.
An oracle segmenter provides instance labels, optionally corrupted by one
seeded misclassification draw per obstacle per frame. sense classifies and
ranges each detection once, and cuts at one distance; fuse owns the
clearance rule: it admits a frame's detections under one mode's policy and
places them, from the pose the loop sensed from, which the frame does not
copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

from soar_sim.world import (ClearancePolicy, ObstacleEstimate, ObstacleInstance, Vec2, effective_d0, new_record,
                            wrap_angle)

# samples drawn per detection; odd so the median is a single sample when all are positive
SAMPLES_PER_DETECTION = 9


class Draws:
    """take(n) gives the next n items of a random stream on rng, as one draw(rng, n) per take would.

    draw(rng, m) must continue the stream, draw(rng, a) + draw(rng, b) == draw(rng, a + b). A refill
    draws max(n, block) items after the leftover ones, so with block 0 each take is one draw.
    """

    def __init__(self, rng: np.random.Generator, draw: Callable[..., list], block: int) -> None:
        self._rng, self._draw, self._block, self._items, self._next = rng, draw, block, [], 0

    def take(self, n: int) -> list:
        start, end = self._next, self._next + n
        if end > len(self._items):
            self._items = self._items[start:] + self._draw(self._rng, max(n, self._block))
            start, end = 0, n
        self._next = end
        return self._items[start:end]

    def __deepcopy__(self, memo: dict) -> Draws:
        """The rest of this stream, on a copy of rng: Draws sharing a generator share its copy within one deepcopy."""
        from copy import deepcopy
        twin = Draws(deepcopy(self._rng, memo), self._draw, self._block)
        twin._items = self._items[self._next:]  # no take changes an item list in place
        return twin


@dataclass(frozen=True, slots=True)
class StereoRig:
    """The scenario's sensor section: the rig, its view, its disparity noise and its segmenter's label confusion.

    An ideal rectified rig, named and in units as in the document (fov_deg in
    degrees). No code reads cx, cy, width or height: they stay for the
    format_version 1 document, and acceptance criterion 04 builds rigs with them.
    """

    focal_px: float = 400.0
    baseline_m: float = 0.12
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480
    fov_deg: float = 360.0
    max_range_m: float = 15.0
    disparity_std: float = 0.0
    misclassify_prob: float = 0.0
    confusion: dict[str, str] = field(default_factory=dict)


class Detection(NamedTuple):
    """One segmented instance: label pair and the range of its median positive disparity sample.

    range_m is that median ranged by depth_from_disparity, and
    bearing_rad the azimuth of the mask centroid ray in the camera frame.
    gap is range_m less the oracle segmenter's instance radius, clamped at 0.
    """

    instance_id: int
    reported_class: str
    true_class: str
    range_m: float
    bearing_rad: float
    gap: float


class PerceptionFrame(NamedTuple):
    """What sense emits: the selectable detections, and the count of visible obstacles dropped."""

    detections: tuple[Detection, ...]
    dropped: int


def depth_from_disparity(disparity: float, rig: StereoRig) -> float:
    """Recover distance from one disparity: the ideal rig's reprojection gives Z/W = f / (d/B) at any pixel.

    A positive disparity whose d/B underflows to 0 is ranged at inf, past every d0.
    """
    if disparity <= 0.0:
        raise ValueError(f"disparity must be > 0, got {disparity}")
    w = disparity * (1.0 / rig.baseline_m)
    return rig.focal_px / w if w != 0.0 else math.inf


def noise_draws(rng: np.random.Generator, rig: StereoRig, block: int) -> tuple[Draws, Draws]:
    """sense's (label flips, row-sorted disparity offsets), drawn from rng at least block items at a time.

    Whatever the block, a frame's takes are the stream of rng.random(k), then rng.normal(0,
    disparity_std, (k, 9)). With both sources on they share rng, so each take is one draw (block 0).
    """
    std = rig.disparity_std
    block = 0 if rig.misclassify_prob > 0.0 and std > 0.0 else block

    def sorted_rows(gen: np.random.Generator, n: int) -> list:
        rows = gen.normal(0.0, std, (n, SAMPLES_PER_DETECTION))
        rows.sort(axis=1)
        return rows.tolist()
    return Draws(rng, lambda gen, n: gen.random(n).tolist(), block), Draws(rng, sorted_rows, block)


def sense(
    obstacles: Sequence[ObstacleInstance],
    pose: tuple[Vec2, float],
    rig: StereoRig,
    max_gap: float,
    draws: tuple[Draws, Draws],
    positions: Sequence[Vec2],
) -> PerceptionFrame:
    """Observe the obstacles, each at its entry of positions, from pose, emitting the detections within max_gap.

    Visible means within the field of view and max range and not occluded by
    a nearer obstacle along the center ray; one out of view still occludes.
    Noise is taken after occlusion from draws = noise_draws(rng, rig, block)
    for the k visible obstacles in id order, equal ids in list order:
    flips.take(k) when misclassify_prob > 0 (element j decides visible
    obstacle j's label), then rows.take(k), the 9 sorted offsets of each,
    when disparity_std > 0. Nothing is taken when a noise parameter is zero.
    Non-positive samples are discarded and the rest's median kept; a visible
    obstacle with no positive sample is counted in frame.dropped.

    Then the cut: a detection whose clamped surface distance, ranged by
    depth_from_disparity, exceeds max_gap is skipped, whatever its class.
    Only the rest get a bearing and a Detection, in id order, which carries
    that range and gap. Nothing before the cut depends on max_gap, so a
    frame cut at a larger max_gap holds this one's detections, in the same
    order and with the same floats; cut at largest_d0 of some policies, it
    holds every detection fuse admits under each.
    """
    cam_pos, heading = pose
    cx, cy = cam_pos.x, cam_pos.y
    max_range = rig.max_range_m
    half_fov = math.radians(rig.fov_deg) / 2.0
    full_view = half_fov >= math.pi  # |wrap_angle(...)| <= pi passes the view test
    coord_size = 2.0 * (abs(cx) + abs(cy))

    # (range, gx, gy, prefilter bound, x, y, radius, index) of every obstacle within max range, nearest
    # first; one out of view is no target but still an occluder, and a farther one never occludes
    geo = []
    for index, (obs, obs_pos) in enumerate(zip(obstacles, positions, strict=True)):
        ox, oy = obs_pos.x, obs_pos.y
        gx, gy = ox - cx, oy - cy
        rng_m = math.hypot(gx, gy)
        if rng_m <= 0.0 or rng_m > max_range:
            continue
        radius = obs.radius
        reach = radius + 1e-12 * (coord_size + 2.0 * rng_m)
        bound = reach * reach * (1.0 + 1e-12)
        geo.append((rng_m, gx, gy, bound if bound > 1e-300 else 1e-300, ox, oy, radius, index))
    geo.sort()

    visible = []  # (id, index, gx, gy, range); sorted, ids tie in list order
    for rng_m, abx, aby, _, _, _, _, index in geo:
        if not full_view and abs(wrap_angle(math.atan2(aby, abx) - heading)) > half_fov:
            continue
        # center ray cam_pos -> obstacle against every strictly nearer disc
        seg_len2 = abx * abx + aby * aby
        # Prefilter: skip a disc whose center is farther than reach from the
        # infinite center line, i.e. cr^2 > bound * seg_len2 with cr the cross
        # product. Error bound: with eps = 2^-53 and R the nearer disc's range
        # (|ab| * t <= R), the exact test below rounds each coordinate by at
        # most ~10 eps (|cx| + |cy| + R), and |cr| / |ab| is within ~4 eps R of
        # the true line distance. reach adds 1e-12 (2 (|cx| + |cy|) + 2 R), over
        # 4000x both, and the (1 + 1e-12) factor covers the relative rounding
        # of the squares, so a skipped disc can never pass the exact test.
        # Rounding is monotonic, overflow to inf and underflow to 0 included,
        # so the final products cannot flip the comparison and need no guard:
        # if seg_len2 <= 1e-200 then |cr| <= 2 |ab| R < 2e-200, cr * cr
        # underflows to 0 and nothing is skipped; a finite cr whose square
        # overflows (|cr| > 1.3e154) still has the error bound above, and a
        # finite bound * seg_len2 then puts the line distance past reach.
        # bound >= 1e-300 keeps a skip's line distance above 1e-150.
        occluded = False
        for other_rng, gx, gy, bound, ox, oy, radius, _ in geo:
            if other_rng >= rng_m:
                break
            cr = abx * gy - aby * gx
            if bound * seg_len2 < cr * cr:
                continue
            if seg_len2 == 0.0:
                occluded = other_rng <= radius  # other_rng is hypot(cx - ox, cy - oy)
            else:
                t = (gx * abx + gy * aby) / seg_len2
                t = t if t > 0.0 else 0.0  # max(0.0, t) and min(1.0, t), NaN included, without the calls
                t = t if t < 1.0 else 1.0
                occluded = math.hypot(cx + abx * t - ox, cy + aby * t - oy) <= radius
            if occluded:
                break
        if not occluded:
            visible.append((obstacles[index].id, index, abx, aby, rng_m))
    visible.sort()

    k = len(visible)
    flips = draws[0].take(k) if rig.misclassify_prob > 0.0 else None
    rows = draws[1].take(k) if rig.disparity_std > 0.0 else None
    no_noise = (0.0,) * SAMPLES_PER_DETECTION
    focal_baseline = rig.focal_px * rig.baseline_m
    detections = []
    dropped = 0
    for j, (_, index, abx, aby, rng_m) in enumerate(visible):
        obs = obstacles[index]
        reported = obs.class_label
        if flips is not None and flips[j] < rig.misclassify_prob:
            reported = rig.confusion.get(obs.class_label, obs.class_label)
        true_disparity = focal_baseline / rng_m
        # fl(t + d) is monotone in d: a sorted row gives the samples sorted, positive ones last
        row = rows[j] if rows is not None else no_noise
        if not true_disparity + row[-1] > 0.0:  # no positive sample; inf + -inf included
            dropped += 1
            continue
        if true_disparity + row[0] > 0.0:
            disparity = true_disparity + row[SAMPLES_PER_DETECTION // 2]
        else:
            kept = [s for d in row if (s := true_disparity + d) > 0.0]
            half = len(kept) // 2
            # the middle sample, or the mean of the middle two: the standard library median's arithmetic
            disparity = kept[half] if len(kept) % 2 else (kept[half - 1] + kept[half]) / 2
        range_m = depth_from_disparity(disparity, rig)
        gap = range_m - obs.radius
        gap = gap if gap > 0.0 else 0.0  # max(0.0, gap), NaN and -0.0 included
        if gap > max_gap:
            continue
        bearing = wrap_angle(math.atan2(aby, abx) - heading)
        detections.append(new_record(Detection, (obs.id, reported, obs.class_label, range_m, bearing, gap)))
    return new_record(PerceptionFrame, (tuple(detections), dropped))


def largest_d0(policies: Iterable[ClearancePolicy]) -> float:
    """The largest default_d0 or class entry of policies: fuse admits no gap above it under any of them.

    Expects no NaN d0, which validate_scenario rejects.
    """
    return max(d0 for policy in policies for d0 in (policy.default_d0, *policy.entries.values()))


def fuse(frame: PerceptionFrame, pose: tuple[Vec2, float],
         policy: ClearancePolicy) -> tuple[list[ObstacleEstimate], int]:
    """Admit frame's detections by the clearance rule under policy, and place them in the world frame.

    The rule, whose one owner this is: d0 is looked up by the reported
    class, a class with d0 <= 0 is skipped, and so is a detection whose gap
    exceeds d0. pose is the one frame was sensed from; each admitted
    detection goes at the range sense measured along its centroid bearing
    ray, with its d0 and gap, in frame order. Returns (estimates, frame.dropped).
    """
    cam_pos, heading = pose
    estimates = []
    for det in frame.detections:
        d0 = effective_d0(policy, det.reported_class)
        if d0 <= 0.0 or det.gap > d0:
            continue
        rng_m, ray = det.range_m, heading + det.bearing_rad
        position = new_record(Vec2, (cam_pos.x + rng_m * math.cos(ray), cam_pos.y + rng_m * math.sin(ray)))
        estimates.append(new_record(ObstacleEstimate, (det.instance_id, det.reported_class, det.true_class, d0,
                                                       position, det.gap)))
    return estimates, frame.dropped

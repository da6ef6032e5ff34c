"""fuse against a reference that places every detection, on random frames.

sense emits only the detections that pass its clearance rule, each with
its measured range, its reported class's d0 and its clamped gap; fuse then
places each one at its range, carries d0 and gap over, and passes
frame.dropped on. The reference places every detection of a raw frame,
whatever its d0. On the raw frame fuse must give the reference's estimates;
on the frame filtered by the rule, as sense emits it, fuse must keep
exactly the reference estimates the rule admits, and the ranking must pick
one that no other admitted estimate outranks.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from soar_sim.perception import (  # noqa: E402
    Detection,
    PerceptionFrame,
    StereoRig,
    depth_from_disparity,
    fuse,
)
from soar_sim.world import ObstacleEstimate, Vec2, nearest_effective_obstacle  # noqa: E402

RIG = StereoRig(focal_px=400.0, baseline_m=0.12, cx=320.0, cy=240.0, width=640, height=480)
CLASSES = ("rock", "fish", "car", "ball")
POSE = (Vec2(1.5, -2.0), 0.4)


def reference_fuse(frame):
    """fuse written out per detection: every detection is placed at its range."""
    cam_pos, heading = frame.camera_pose
    estimates = []
    for det in frame.detections:
        ray = heading + det.bearing_rad
        position = Vec2(cam_pos.x + det.range_m * math.cos(ray), cam_pos.y + det.range_m * math.sin(ray))
        estimates.append(ObstacleEstimate(det.instance_id, det.reported_class, det.true_class, det.d0, position,
                                          det.gap))
    return estimates


def sensed(disparity, radius):
    """The (range, gap) sense measures from a disparity: the gap is the surface distance, clamped at 0."""
    rng_m = depth_from_disparity(disparity, RIG)
    return rng_m, max(0.0, rng_m - radius)


def admits(est):
    """sense's clearance rule: a positive d0, and a gap within it."""
    return est.d0 > 0.0 and est.gap <= est.d0


def outranks(a, b):
    """Whether a wins the ranking over b: a deeper intrusion d0 - gap, then a smaller gap, then a smaller id."""
    return a.d0 - a.gap > b.d0 - b.gap or (a.d0 - a.gap == b.d0 - b.gap and (a.gap, a.id) < (b.gap, b.id))


@st.composite
def frames(draw):
    """0-12 detections with unique ids, labels confused at random, and a dropped count.

    Each d0 is drawn from 0, the detection's own gap, its float neighbours and random values.
    """
    fields = draw(st.lists(
        st.tuples(
            st.sampled_from(CLASSES),  # reported
            st.sampled_from(CLASSES),  # true
            st.floats(0.01, 500.0),  # range 0.096 to 4800 m
            st.floats(-math.pi, math.pi),
            st.floats(0.0, 3.0),
        ),
        max_size=12,
    ))
    ids = draw(st.lists(st.integers(0, 99), min_size=len(fields), max_size=len(fields), unique=True))
    detections = []
    for i, (reported, true, disparity, bearing, radius) in zip(sorted(ids), fields):
        rng_m, gap = sensed(disparity, radius)
        edges = [0.0, gap, math.nextafter(gap, math.inf), math.nextafter(gap, 0.0)]
        d0 = draw(st.one_of(st.sampled_from(edges), st.floats(0.0, 10.0)))
        detections.append(Detection(i, reported, true, rng_m, bearing, d0, gap))
    position = Vec2(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    return PerceptionFrame(tuple(detections), (position, draw(st.floats(-math.pi, math.pi))),
                           draw(st.integers(0, 5)))


def one(det):
    return PerceptionFrame((det,), POSE, 0)


ROCK_RANGE, ROCK_GAP = sensed(10.0, 0.5)  # range 4.8, gap 4.3
ROCK = Detection(1, "rock", "rock", ROCK_RANGE, 0.3, 1.0, ROCK_GAP)
BALL_RANGE, BALL_GAP = sensed(400.0, 1.0)  # range 0.12, gap 0
BALL_AT_CONTACT = Detection(2, "ball", "ball", BALL_RANGE, 0.0, 0.0, BALL_GAP)
ROCK_SEEN_AS_FISH = Detection(3, "fish", "rock", ROCK_RANGE, -0.2, 5.0, ROCK_GAP)


@settings(max_examples=200, deadline=None)
@given(frame=frames())
# gap == d0 exactly: the estimate qualifies, with zero intrusion
@example(frame=one(ROCK._replace(d0=ROCK_GAP)))
# a d0 = 0 class is never an estimate, not even at contact
@example(frame=one(BALL_AT_CONTACT))
# the reported class's d0 decides; the true class passes through
@example(frame=one(ROCK_SEEN_AS_FISH))
def test_fuse_keeps_what_the_selection_rule_admits(frame):
    every = reference_fuse(frame)
    assert fuse(frame) == (every, frame.dropped)
    # the frame sense would emit: only the detections whose estimate the rule admits
    admitted = [admits(est) for est in every]
    emitted = frame._replace(detections=tuple(det for det, ok in zip(frame.detections, admitted) if ok))
    estimates, dropped = fuse(emitted)
    assert dropped == frame.dropped
    assert estimates == [est for est, ok in zip(every, admitted) if ok]
    # selection on the filtered frame: the pick is an admitted estimate that none outranks
    best = nearest_effective_obstacle(estimates)
    assert (best is None) == (not estimates)
    assert best is None or not any(outranks(est, best) for est in estimates)

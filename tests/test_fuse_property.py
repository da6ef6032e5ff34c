"""fuse against a reference that places every detection, on random frames.

sense emits only the detections that pass the rule nearest_effective_obstacle
applies; fuse then ranges and places each one, and passes frame.dropped on.
The reference places every detection of a raw frame, whatever its class.
On the raw frame fuse must give the reference's estimates; on the frame
filtered by the rule, as sense emits it, fuse must keep exactly the
reference estimates the rule admits, each of which qualifies, and steering
must pick the same estimate as from everything.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from soar_sim.perception import (  # noqa: E402
    Detection,
    LabeledObstacleEstimate,
    PerceptionFrame,
    StereoRig,
    depth_from_disparity,
    fuse,
)
from soar_sim.world import ClearancePolicy, Vec2, nearest_effective_obstacle  # noqa: E402

RIG = StereoRig(focal_px=400.0, baseline_m=0.12, cx=320.0, cy=240.0, width=640, height=480)
CLASSES = ("rock", "fish", "car", "ball")
POSE = (Vec2(1.5, -2.0), 0.4)


def reference_fuse(frame, rig):
    """fuse written out per detection: every detection is ranged and placed."""
    cam_pos, heading = frame.camera_pose
    estimates = []
    for det in frame.detections:
        rng_m = depth_from_disparity(det.disparity, rig)
        ray = heading + det.bearing_rad
        position = Vec2(cam_pos.x + rng_m * math.cos(ray), cam_pos.y + rng_m * math.sin(ray))
        gap = rng_m - det.known_radius_m
        gap = gap if gap > 0.0 else 0.0
        estimates.append(LabeledObstacleEstimate(det.reported_class, position, gap, det.instance_id))
    return estimates


@st.composite
def frames(draw):
    """0-12 detections with unique ids, labels confused at random, and a dropped count."""
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
    detections = tuple(Detection(i, *f) for i, f in zip(sorted(ids), fields))
    position = Vec2(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)))
    return PerceptionFrame(detections, (position, draw(st.floats(-math.pi, math.pi))),
                           draw(st.integers(0, 5)))


@st.composite
def frames_and_policies(draw):
    """A frame, and d0s drawn from 0, the frame's own gaps, their float neighbours and random values."""
    frame = draw(frames())
    gaps = [est.surface_distance for est in reference_fuse(frame, RIG)]
    edges = [0.0, *gaps, *(math.nextafter(g, math.inf) for g in gaps),
             *(math.nextafter(g, 0.0) for g in gaps)]
    d0s = st.one_of(st.sampled_from(edges), st.floats(0.0, 10.0))
    entries = draw(st.dictionaries(st.sampled_from(CLASSES), d0s))
    return frame, ClearancePolicy(entries, default_d0=draw(d0s))


def one(det):
    return PerceptionFrame((det,), POSE, 0)


ROCK = Detection(1, "rock", "rock", 10.0, 0.3, 0.5)  # range 4.8, gap 4.3
ROCK_GAP = reference_fuse(one(ROCK), RIG)[0].surface_distance
BALL_AT_CONTACT = Detection(2, "ball", "ball", 400.0, 0.0, 1.0)  # range 0.12, gap 0
ROCK_SEEN_AS_FISH = Detection(3, "fish", "rock", 10.0, -0.2, 0.5)


@settings(max_examples=200, deadline=None)
@given(case=frames_and_policies())
# gap == d0 exactly: the estimate qualifies, with zero intrusion
@example(case=(one(ROCK), ClearancePolicy({"rock": ROCK_GAP}, default_d0=0.0)))
# a d0 = 0 class is never an estimate, not even at contact
@example(case=(one(BALL_AT_CONTACT), ClearancePolicy({"ball": 0.0}, default_d0=1.0)))
# the reported class decides, not the true one
@example(case=(one(ROCK_SEEN_AS_FISH), ClearancePolicy({"fish": 5.0, "rock": 0.0})))
def test_fuse_keeps_what_the_selection_rule_admits(case):
    frame, policy = case
    every = reference_fuse(frame, RIG)
    assert fuse(frame, RIG) == (every, frame.dropped)
    # the frame sense would emit: only the detections whose estimate the rule admits
    admitted = [nearest_effective_obstacle([est], policy) is not None for est in every]
    emitted = frame._replace(detections=tuple(det for det, ok in zip(frame.detections, admitted) if ok))
    estimates, dropped = fuse(emitted, RIG)
    assert dropped == frame.dropped
    assert estimates == [est for est, ok in zip(every, admitted) if ok]
    assert all(nearest_effective_obstacle([est], policy) is not None for est in estimates)
    assert nearest_effective_obstacle(estimates, policy) == nearest_effective_obstacle(every, policy)

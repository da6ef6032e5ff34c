"""sense() against a per-pair reference sense and a place-everything fuse, on random obstacle fields.

The reference (tests/reference.py) tests every pair exactly, draws noise
per detection in sense's documented order, takes statistics.median of each
detection's positive samples and keeps every visible obstacle, with
disparity None when no sample is positive. A reference fuse then ranges
and places every detection that has a positive sample, with its reported
class's d0. Cut at the policy's largest_d0, that must give exactly what
sense emits, and filtered by the clearance rule, what fuse places, with
the dropped count, and with the rng left in the same state when sense
takes its noise through noise_draws(rng, rig, 0); nearest_effective_obstacle
must pick what the reference selection picks from everything. So this
checks sense's occlusion prefilter, its per-frame draws, its median from
sorted rows and its cut, and the clearance rule fuse applies. A second
property checks the paired trial loop's prefix: cut at largest_d0 of two
policies, a frame fuses under either to what that policy's own frame
fuses to.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from reference import depth, estimate, qualifies, reference_fuse, reference_select, reference_sense  # noqa: E402
from soar_sim.perception import (  # noqa: E402
    Detection,
    StereoRig,
    fuse,
    largest_d0,
    noise_draws,
    sense,
)
from soar_sim.world import ClearancePolicy, ObstacleInstance, Vec2, nearest_effective_obstacle  # noqa: E402

RIG = StereoRig(focal_px=400.0, baseline_m=0.12, cx=320.0, cy=240.0, width=640, height=480)
KEEP_ALL = ClearancePolicy({}, default_d0=math.inf)
CLASSES = ("rock", "fish")


def detection(p):
    """The Detection sense emits for a reference record within its cut."""
    s = p.seen
    return Detection(s.id, s.reported_class, s.true_class, depth(s.disparity, RIG), s.bearing, p.gap)


def reference(world, seed, policy):
    """The reference pipeline's (placed, dropped, rng) for one world, seed and policy."""
    obstacles, positions, pose, rig = world
    rng = np.random.default_rng(seed)
    placed, dropped = reference_fuse(reference_sense(obstacles, pose, rig, rng, positions), pose, rig, policy)
    return placed, dropped, rng


# Grid values make equal ranges and exactly tangent center rays likely; the
# tiny ones put obstacles at (or a subnormal step from) a camera at the
# origin, where a range is positive but its square underflows to 0.0.
COORD = st.one_of(
    st.integers(-8, 8).map(lambda k: k * 0.5),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([0.0, 1e-170, -1e-170, 5e-324]),
)
RADIUS = st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.01, 3.0))
# just below 360 degrees, a view still cuts out the bearing pi straight behind
FOV = st.sampled_from([360.0, math.nextafter(360.0, 0.0), 180.0, 50.0])


@st.composite
def rigs(draw):
    return StereoRig(
        disparity_std=draw(st.sampled_from([0.0, 0.3, 40.0])),
        misclassify_prob=draw(st.sampled_from([0.0, 0.5])),
        confusion={"rock": "fish"},
        fov_deg=draw(FOV),
        max_range_m=draw(st.sampled_from([15.0, 4.0])),
    )


@st.composite
def obstacle_fields(draw):
    n = draw(st.integers(0, 12))
    ids = draw(st.permutations(range(1, n + 1)))
    obstacles, positions = [], []
    for obstacle_id in ids:
        center = Vec2(draw(COORD), draw(COORD))
        obstacles.append(ObstacleInstance(obstacle_id, draw(st.sampled_from(["rock", "fish"])),
                                          center, draw(RADIUS)))
        # half the time sense gets supplied positions that differ from center
        positions.append(draw(st.sampled_from([center, Vec2(draw(COORD), draw(COORD))])))
    cam = draw(st.sampled_from([Vec2(0.0, 0.0), Vec2(0.5, -1.0), Vec2(draw(COORD), draw(COORD))]))
    heading = draw(st.sampled_from([0.0, math.pi / 2, math.pi])) if draw(st.booleans()) \
        else draw(st.floats(-math.pi, math.pi))
    return obstacles, positions, (cam, heading), draw(rigs())


OFFSET = st.one_of(st.sampled_from([0.0, 1e3, -1e6, 1e9, -1e9]), st.floats(-1e9, 1e9))
TANGENT_RADIUS = st.one_of(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.5]), st.floats(1e-12, 2.0))


@st.composite
def near_tangent_fields(draw):
    """Discs within 1e-12 relative of tangency to a center ray, seen from up to 1e9 off the origin.

    Here rounding alone decides whether a disc occludes, which is where a
    prefilter without its rounding margin skips discs the exact test hits.
    """
    cam = Vec2(draw(OFFSET), draw(OFFSET))
    obstacles = []
    for _ in range(draw(st.integers(1, 3))):
        theta, reach = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.5, 14.0))
        dx, dy = math.cos(theta), math.sin(theta)
        target = Vec2(cam.x + reach * dx, cam.y + reach * dy)
        obstacles.append(ObstacleInstance(len(obstacles) + 1, "rock", target,
                                          draw(st.sampled_from([0.1, 1e-12]))))
        for _ in range(draw(st.integers(1, 3))):
            along, side = draw(st.floats(0.05, 0.95)), draw(st.sampled_from([-1.0, 1.0]))
            radius = draw(TANGENT_RADIUS)
            off = side * radius * (1.0 + draw(st.floats(-1e-12, 1e-12)))
            center = Vec2(cam.x + along * reach * dx - off * dy, cam.y + along * reach * dy + off * dx)
            obstacles.append(ObstacleInstance(len(obstacles) + 1, "fish", center, radius))
    heading = draw(st.floats(-math.pi, math.pi))
    return obstacles, [obs.center for obs in obstacles], (cam, heading), draw(rigs())


@st.composite
def policies(draw, world, seed):
    """d0s drawn from 0, inf, the reference's own gaps, their float neighbours and random values."""
    gaps = [p.gap for p in reference(world, seed, KEEP_ALL)[0]]
    edges = [0.0, math.inf, *gaps, *(math.nextafter(g, math.inf) for g in gaps),
             *(math.nextafter(g, 0.0) for g in gaps)]
    d0s = st.one_of(st.sampled_from(edges), st.floats(0.0, 20.0))
    return ClearancePolicy(draw(st.dictionaries(st.sampled_from(CLASSES), d0s)), default_d0=draw(d0s))


@st.composite
def cases(draw):
    """(world, seed, policy); a third of the policies keep every detection, to check sensing alone."""
    world = draw(st.one_of(obstacle_fields(), near_tangent_fields()))
    seed = draw(st.integers(0, 2**32 - 1))
    return world, seed, draw(st.one_of(st.just(KEEP_ALL), policies(world, seed), policies(world, seed)))


@st.composite
def policy_pairs(draw):
    """(world, seed, p, q), both policies drawn from the world's own gaps and their neighbours."""
    world = draw(st.one_of(obstacle_fields(), near_tangent_fields()))
    seed = draw(st.integers(0, 2**32 - 1))
    return world, seed, draw(policies(world, seed)), draw(policies(world, seed))


FAR_ROCK = ObstacleInstance(1, "rock", Vec2(14.0, 0.0), 0.3)
WIDE_NOISE = StereoRig(disparity_std=40.0)
ORIGIN = Vec2(0.0, 0.0)


def world_of(obstacles, cam=ORIGIN, heading=0.0, rig=RIG):
    return obstacles, [obs.center for obs in obstacles], (cam, heading), rig


ROCK_AHEAD = world_of([ObstacleInstance(1, "rock", Vec2(5.0, 0.3), 0.5)])
ROCK_GAP = reference(ROCK_AHEAD, 0, KEEP_ALL)[0][0].gap


class TestSenseMatchesPerPairReference:
    @settings(max_examples=400, deadline=None)
    @given(case=cases())
    # an obstacle exactly at max_range is still seen
    @example(case=(world_of([ObstacleInstance(1, "rock", Vec2(4.0, 0.0), 0.5)],
                            rig=StereoRig(max_range_m=4.0)), 0, KEEP_ALL))
    # a disc tangent to the ray within rounding, 1e9 off the origin: it
    # occludes only through rounding that a margin-free prefilter misses
    @example(case=(
        world_of(
            [ObstacleInstance(1, "rock", Vec2(1000000005.403023, -8.414709848078965), 0.1),
             ObstacleInstance(2, "fish", Vec2(1000000004.4730028, -6.040881233125154), 0.5)],
            Vec2(1e9, 0.0),
        ),
        0, KEEP_ALL,
    ))
    # a disc of radius 1e-300 touching the camera occludes a target 1e150
    # away; its squared prefilter bound underflows to 0 without the floor
    @example(case=(
        world_of(
            [ObstacleInstance(1, "rock", Vec2(1e150, 0.0), 1.0),
             ObstacleInstance(2, "fish", Vec2(0.0, 1e-300), 1e-300)],
            rig=StereoRig(max_range_m=1e200),
        ),
        0, KEEP_ALL,
    ))
    # a target 1e-101 away behind a disc 1e-110 off its center ray: the cross
    # product's square underflows to 0, so the prefilter must not skip
    @example(case=(
        world_of(
            [ObstacleInstance(1, "rock", Vec2(1e-101, 0.0), 1e-300),
             ObstacleInstance(2, "fish", Vec2(5e-102, 1e-110), 1e-105)],
        ),
        0, KEEP_ALL,
    ))
    # a target 1e85 away and a disc 1e75 off its center ray: the cross
    # product's square overflows to inf while bound * seg_len2 stays finite
    @example(case=(
        world_of(
            [ObstacleInstance(1, "rock", Vec2(1e85, 0.0), 1.0),
             ObstacleInstance(2, "fish", Vec2(1e79, 1e75), 1.0)],
            rig=StereoRig(max_range_m=1e90),
        ),
        0, KEEP_ALL,
    ))
    # straight behind is bearing pi, just outside a view of nextafter(360, 0) degrees
    @example(case=(
        world_of([ObstacleInstance(1, "rock", Vec2(2.0, 0.0), 0.5)], heading=math.pi,
                 rig=StereoRig(fov_deg=math.nextafter(360.0, 0.0))),
        0, KEEP_ALL,
    ))
    # both noise sources on: all label draws come before the disparity draws
    @example(case=(
        world_of(
            [ObstacleInstance(1, "rock", Vec2(3.0, 0.0), 0.5),
             ObstacleInstance(2, "rock", Vec2(0.0, 3.0), 0.5)],
            rig=StereoRig(disparity_std=0.3, misclassify_prob=0.5, confusion={"rock": "fish"}),
        ),
        1, KEEP_ALL,
    ))
    # the median of the positive samples, seen 14 m away with disparity std 40
    # (true disparity 3.43): all 9 positive, 3 survive (odd), 4 survive (even)
    @example(case=(world_of([FAR_ROCK], rig=WIDE_NOISE), 372, KEEP_ALL))
    @example(case=(world_of([FAR_ROCK], rig=WIDE_NOISE), 17, KEEP_ALL))
    @example(case=(world_of([FAR_ROCK], rig=WIDE_NOISE), 4, KEEP_ALL))
    # an all-negative row: no sample survives, so the obstacle is dropped and
    # counted, before and whatever its class's d0 (here 0)
    @example(case=(world_of([FAR_ROCK], rig=WIDE_NOISE), 62, ClearancePolicy({"rock": 0.0})))
    # zero-length center ray: obstacle 1's squared range underflows, and
    # obstacle 2, nearer still, covers the camera
    @example(case=(
        (
            [ObstacleInstance(1, "rock", Vec2(0.0, 1e-170), 1e-300),
             ObstacleInstance(2, "fish", Vec2(0.0, 5e-324), 1e-300)],
            [Vec2(0.0, 1e-170), Vec2(0.0, 5e-324)],
            (ORIGIN, 0.0),
            RIG,
        ),
        0, KEEP_ALL,
    ))
    # the same, but the nearer disc's edge passes exactly through the camera
    @example(case=(
        world_of(
            [ObstacleInstance(1, "rock", Vec2(0.0, 1e-170), 1e-300),
             ObstacleInstance(2, "fish", Vec2(0.0, 5e-324), 5e-324)],
        ),
        0, KEEP_ALL,
    ))
    # a gap exactly equal to d0 still qualifies, with zero intrusion
    @example(case=(ROCK_AHEAD, 0, ClearancePolicy({"rock": ROCK_GAP}, default_d0=0.0)))
    # a d0 = 0 class at contact is emitted within the cut, but never placed; the nearer rock beside it is
    @example(case=(
        world_of([ObstacleInstance(1, "fish", Vec2(0.5, 0.0), 1.0),
                  ObstacleInstance(2, "rock", Vec2(0.0, -0.4), 0.1)]),
        0, ClearancePolicy({"fish": 0.0}, default_d0=1.0),
    ))
    # listed neither in id order nor in range order, three visible obstacles take their disparity
    # rows in id order
    @example(case=(
        world_of([ObstacleInstance(2, "rock", Vec2(0.0, 4.0), 0.5),
                  ObstacleInstance(3, "rock", Vec2(2.0, 0.0), 0.5),
                  ObstacleInstance(1, "rock", Vec2(-3.0, 0.0), 0.5)],
                 rig=StereoRig(disparity_std=0.3)),
        0, KEEP_ALL,
    ))
    # the reported class decides, not the true one
    @example(case=(
        world_of([ObstacleInstance(1, "rock", Vec2(3.0, 0.0), 0.5)],
                 rig=StereoRig(misclassify_prob=1.0, confusion={"rock": "fish"})),
        0, ClearancePolicy({"fish": 5.0, "rock": 0.0}),
    ))
    def test_same_detections_and_rng_state(self, case):
        world, seed, policy = case
        obstacles, positions, pose, rig = world
        rng = np.random.default_rng(seed)
        max_gap = largest_d0([policy])
        frame = sense(obstacles, pose, rig, max_gap, noise_draws(rng, rig, 0), positions=positions)
        placed, dropped, rng_ref = reference(world, seed, policy)
        kept = [p for p in placed if qualifies(p)]
        assert frame.detections == tuple(detection(p) for p in placed if p.gap <= max_gap)
        assert frame.dropped == dropped
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        # fuse places every detection the rule admits, and steering picks what the rule picks from everything
        estimates, fused_dropped = fuse(frame, pose, policy)
        assert estimates == [estimate(p) for p in kept]
        assert fused_dropped == dropped
        best = reference_select(placed)
        assert nearest_effective_obstacle(estimates) == (None if best is None else estimate(best))


class TestWidestFrameFusesAsOwn:
    @settings(max_examples=200, deadline=None)
    @given(case=policy_pairs())
    # a class p ignores (d0 0) at contact, which q avoids: both frames hold it, and fuse must skip it
    @example(case=(world_of([ObstacleInstance(1, "fish", Vec2(0.5, 0.0), 1.0)]), 0,
                   ClearancePolicy({"fish": 0.0}), ClearancePolicy({"fish": 1.0})))
    # a gap past p's d0 but within q's
    @example(case=(ROCK_AHEAD, 0, ClearancePolicy({"rock": math.nextafter(ROCK_GAP, 0.0)}),
                   ClearancePolicy({"rock": ROCK_GAP})))
    def test_fuse_under_p_of_widest_frame_is_fuse_of_own_frame(self, case):
        world, seed, p, q = case
        obstacles, positions, pose, rig = world
        fused, states = [], []
        for max_gap in (largest_d0([p, q]), largest_d0([p])):
            rng = np.random.default_rng(seed)
            frame = sense(obstacles, pose, rig, max_gap, noise_draws(rng, rig, 0), positions=positions)
            fused.append(fuse(frame, pose, p))
            states.append(rng.bit_generator.state)
        assert fused[0] == fused[1]
        assert states[0] == states[1]

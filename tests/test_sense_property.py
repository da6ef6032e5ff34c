"""sense() against a per-pair occlusion reference on random obstacle fields.

The reference tests every pair exactly, draws noise per detection in
sense's documented order and takes statistics.median of each detection's
positive samples, so it checks sense's occlusion prefilter, its block draws
and its median from sorted rows.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from soar_sim.perception import (  # noqa: E402
    SAMPLES_PER_DETECTION,
    Detection,
    PerceptionFrame,
    SensorNoiseSpec,
    StereoRig,
    fuse,
    sense,
)
from soar_sim.world import ClearancePolicy, ObstacleInstance, Vec2, wrap_angle  # noqa: E402

RIG = StereoRig(focal_px=400.0, baseline_m=0.12, cx=320.0, cy=240.0, width=640, height=480)
QUIET = SensorNoiseSpec(max_range_m=15.0)

def segment_hits_disc(a: Vec2, b: Vec2, center: Vec2, radius: float) -> bool:
    """Whether segment a-b passes within radius of center (per-pair oracle)."""
    abx, aby = b.x - a.x, b.y - a.y
    seg_len2 = abx * abx + aby * aby
    if seg_len2 == 0.0:
        return a.dist(center) <= radius
    t = ((center.x - a.x) * abx + (center.y - a.y) * aby) / seg_len2
    t = min(1.0, max(0.0, t))
    closest = Vec2(a.x + abx * t, a.y + aby * t)
    return closest.dist(center) <= radius


def reference_sense(obstacles, pose, rig, noise, rng, positions):
    """sense() as a per-pair loop: every obstacle tests every other one exactly."""
    cam_pos, heading = pose
    ordered = sorted(range(len(obstacles)), key=lambda i: obstacles[i].id)
    geo, candidates = [], []
    for i in ordered:
        obs, obs_pos = obstacles[i], positions[i]
        rng_m = cam_pos.dist(obs_pos)
        if rng_m <= 0.0:
            continue
        geo.append((obs, obs_pos, rng_m))
        if rng_m > noise.max_range_m:
            continue
        bearing = wrap_angle(math.atan2(obs_pos.y - cam_pos.y, obs_pos.x - cam_pos.x) - heading)
        if abs(bearing) > noise.fov_rad / 2.0:
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
    # one label draw per visible obstacle, all before the disparity draws
    labels = []
    for obs, _, _, _ in visible:
        reported = obs.class_label
        if noise.misclassify_prob > 0.0 and rng.random() < noise.misclassify_prob:
            reported = noise.confusion.get(obs.class_label, obs.class_label)
        labels.append(reported)
    detections = []
    for (obs, obs_pos, rng_m, bearing), reported in zip(visible, labels):
        true_disparity = rig.focal_px * rig.baseline_m / rng_m
        if noise.disparity_std > 0.0:
            draws = true_disparity + rng.normal(0.0, noise.disparity_std, SAMPLES_PER_DETECTION)
            positive = [float(d) for d in draws if d > 0.0]
            disparity = statistics.median(positive) if positive else None
        else:
            disparity = true_disparity
        detections.append(
            Detection(
                instance_id=obs.id,
                reported_class=reported,
                true_class=obs.class_label,
                disparity=disparity,
                bearing_rad=bearing,
                known_radius_m=obs.radius,
            )
        )
    return PerceptionFrame(detections=tuple(detections), camera_pose=(cam_pos, heading))


# Grid values make equal ranges and exactly tangent center rays likely; the
# tiny ones put obstacles at (or a subnormal step from) a camera at the
# origin, where a range is positive but its square underflows to 0.0.
COORD = st.one_of(
    st.integers(-8, 8).map(lambda k: k * 0.5),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([0.0, 1e-170, -1e-170, 5e-324]),
)
RADIUS = st.one_of(st.sampled_from([0.5, 1.0, 1.5]), st.floats(0.01, 3.0))
# just below 2 pi, a view still cuts out the bearing pi straight behind
FOV = st.sampled_from([2.0 * math.pi, math.nextafter(2.0 * math.pi, 0.0), math.pi, math.radians(50.0)])


@st.composite
def noise_specs(draw):
    return SensorNoiseSpec(
        disparity_std=draw(st.sampled_from([0.0, 0.3, 40.0])),
        misclassify_prob=draw(st.sampled_from([0.0, 0.5])),
        confusion={"rock": "fish"},
        fov_rad=draw(FOV),
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
    return obstacles, positions, (cam, heading), draw(noise_specs())


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
    return obstacles, [obs.center for obs in obstacles], (cam, heading), draw(noise_specs())


FAR_ROCK = ObstacleInstance(1, "rock", Vec2(14.0, 0.0), 0.3)
WIDE_NOISE = SensorNoiseSpec(disparity_std=40.0)


def world_of(obstacles, cam, heading=0.0, noise=QUIET):
    return obstacles, [obs.center for obs in obstacles], (cam, heading), noise


class TestSenseMatchesPerPairReference:
    @settings(max_examples=400, deadline=None)
    @given(world=st.one_of(obstacle_fields(), near_tangent_fields()), seed=st.integers(0, 2**32 - 1))
    # an obstacle exactly at max_range is still seen
    @example(
        world=world_of([ObstacleInstance(1, "rock", Vec2(4.0, 0.0), 0.5)], Vec2(0.0, 0.0),
                       noise=SensorNoiseSpec(max_range_m=4.0)),
        seed=0,
    )
    # a disc tangent to the ray within rounding, 1e9 off the origin: it
    # occludes only through rounding that a margin-free prefilter misses
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(1000000005.403023, -8.414709848078965), 0.1),
             ObstacleInstance(2, "fish", Vec2(1000000004.4730028, -6.040881233125154), 0.5)],
            Vec2(1e9, 0.0),
        ),
        seed=0,
    )
    # a disc of radius 1e-300 touching the camera occludes a target 1e150
    # away; its squared prefilter bound underflows to 0 without the floor
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(1e150, 0.0), 1.0),
             ObstacleInstance(2, "fish", Vec2(0.0, 1e-300), 1e-300)],
            Vec2(0.0, 0.0),
            noise=SensorNoiseSpec(max_range_m=1e200),
        ),
        seed=0,
    )
    # a target 1e-101 away behind a disc 1e-110 off its center ray: the cross
    # product's square underflows to 0, so the prefilter must not skip
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(1e-101, 0.0), 1e-300),
             ObstacleInstance(2, "fish", Vec2(5e-102, 1e-110), 1e-105)],
            Vec2(0.0, 0.0),
        ),
        seed=0,
    )
    # a target 1e85 away and a disc 1e75 off its center ray: the cross
    # product's square overflows to inf while bound * seg_len2 stays finite
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(1e85, 0.0), 1.0),
             ObstacleInstance(2, "fish", Vec2(1e79, 1e75), 1.0)],
            Vec2(0.0, 0.0),
            noise=SensorNoiseSpec(max_range_m=1e90),
        ),
        seed=0,
    )
    # straight behind is bearing pi, just outside a view of nextafter(2 pi, 0)
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(2.0, 0.0), 0.5)],
            Vec2(0.0, 0.0),
            heading=math.pi,
            noise=SensorNoiseSpec(fov_rad=math.nextafter(2.0 * math.pi, 0.0)),
        ),
        seed=0,
    )
    # both noise sources on: all label draws come before the disparity draws
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(3.0, 0.0), 0.5),
             ObstacleInstance(2, "rock", Vec2(0.0, 3.0), 0.5)],
            Vec2(0.0, 0.0),
            noise=SensorNoiseSpec(disparity_std=0.3, misclassify_prob=0.5, confusion={"rock": "fish"}),
        ),
        seed=1,
    )
    # the median of the positive samples, seen 14 m away with disparity std 40
    # (true disparity 3.43): all 9 positive, 3 survive (odd), 4 survive (even),
    # and none survive, so fuse drops the detection and counts it
    @example(world=world_of([FAR_ROCK], Vec2(0.0, 0.0), noise=WIDE_NOISE), seed=372)
    @example(world=world_of([FAR_ROCK], Vec2(0.0, 0.0), noise=WIDE_NOISE), seed=17)
    @example(world=world_of([FAR_ROCK], Vec2(0.0, 0.0), noise=WIDE_NOISE), seed=4)
    @example(world=world_of([FAR_ROCK], Vec2(0.0, 0.0), noise=WIDE_NOISE), seed=62)
    # zero-length center ray: obstacle 1's squared range underflows, and
    # obstacle 2, nearer still, covers the camera
    @example(
        world=(
            [ObstacleInstance(1, "rock", Vec2(0.0, 1e-170), 1e-300),
             ObstacleInstance(2, "fish", Vec2(0.0, 5e-324), 1e-300)],
            [Vec2(0.0, 1e-170), Vec2(0.0, 5e-324)],
            (Vec2(0.0, 0.0), 0.0),
            QUIET,
        ),
        seed=0,
    )
    # the same, but the nearer disc's edge passes exactly through the camera
    @example(
        world=world_of(
            [ObstacleInstance(1, "rock", Vec2(0.0, 1e-170), 1e-300),
             ObstacleInstance(2, "fish", Vec2(0.0, 5e-324), 5e-324)],
            Vec2(0.0, 0.0),
        ),
        seed=0,
    )
    def test_same_detections_and_rng_state(self, world, seed):
        obstacles, positions, pose, noise = world
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        frame = sense(obstacles, pose, RIG, noise, rng_new, positions=positions)
        reference = reference_sense(obstacles, pose, RIG, noise, rng_ref, positions=positions)
        assert frame == reference
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
        # fuse drops exactly the detections with no positive sample, and counts them
        estimates, dropped = fuse(frame, RIG, ClearancePolicy({}, default_d0=math.inf))
        assert dropped == sum(det.disparity is None for det in reference.detections)
        assert [est.source_instance for est in estimates] == [
            det.instance_id for det in reference.detections if det.disparity is not None
        ]

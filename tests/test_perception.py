from __future__ import annotations

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from reference import depth
from soar_sim.perception import (
    Detection,
    Draws,
    PerceptionFrame,
    StereoRig,
    depth_from_disparity,
    fuse,
    largest_d0,
    noise_draws,
    sense,
)
from soar_sim.world import ClearancePolicy, ObstacleInstance, Vec2

RIG = StereoRig(focal_px=400.0, baseline_m=0.12, cx=320.0, cy=240.0, width=640, height=480)
# sense cut at an infinite gap emits every detection with a positive sample, and fuse admits them all
NO_CUT = math.inf
KEEP_ALL = ClearancePolicy({}, default_d0=math.inf)


def fixed_rows(*rows):
    """sense draws without label flips whose disparity offsets are the given rows, one per detection."""
    def draw(n):
        return np.sort(np.array(rows, dtype=float).reshape(n, -1), axis=1).tolist()
    return Draws(None, None, 0), Draws(None, lambda _, n: draw(n), 0)


def per_frame(rig, seed=0):
    """sense's draws from a fresh rng, one rng call per take."""
    return noise_draws(np.random.default_rng(seed), rig, 0)


def sense_at_centers(obstacles, pose, rig, max_gap, draws):
    """sense with every obstacle at its center."""
    return sense(obstacles, pose, rig, max_gap, draws, [obs.center for obs in obstacles])


def sensed(offsets, true_disparity=10.0):
    """The Detection sense gives for one obstacle of radius 0 and the 9 given noise offsets."""
    # focal * baseline = 10, so the range is 10 / true_disparity
    rig = replace(rig_for(100.0, 0.1), disparity_std=1.0, max_range_m=1e3)
    obstacles = [ObstacleInstance(1, "rock", Vec2(10.0 / true_disparity, 0.0), 0.0)]
    frame = sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, fixed_rows(list(offsets)))
    return frame.detections[0]


def q_reprojection_oracle(u: float, v: float, d: float, rig: StereoRig) -> float:
    """Independent brute-force depth: the ideal rig's 4x4 disparity-to-depth matrix Q, by hand.

    Reprojecting (u, v, d, 1) through Q yields W = d/B and Z = f*B/d.
    """
    f, b = rig.focal_px, rig.baseline_m
    q = [[1.0, 0.0, 0.0, -rig.cx], [0.0, 1.0, 0.0, -rig.cy], [0.0, 0.0, 0.0, f], [0.0, 0.0, 1.0 / b, 0.0]]
    vec = [u, v, d, 1.0]
    out = [sum(q[r][c] * vec[c] for c in range(4)) for r in range(4)]
    return out[2] / out[3]


def rig_for(f: float, b: float) -> StereoRig:
    return StereoRig(focal_px=f, baseline_m=b, cx=320.0, cy=240.0, width=640, height=480)


class TestDepthFromDisparity:
    def test_hand_value(self):
        assert depth_from_disparity(10.0, rig_for(100.0, 0.1)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_q_oracle(self):
        rig = rig_for(100.0, 0.1)
        assert depth_from_disparity(10.0, rig) == pytest.approx(
            q_reprojection_oracle(rig.cx, rig.cy, 10.0, rig), rel=1e-12
        )

    def test_second_hand_value(self):
        assert depth_from_disparity(30.0, rig_for(500.0, 0.12)) == pytest.approx(2.0, rel=1e-12)

    def test_doubling_disparity_halves_depth(self):
        rig = rig_for(321.0, 0.2)
        assert depth_from_disparity(8.0, rig) == pytest.approx(2.0 * depth_from_disparity(16.0, rig), rel=1e-12)

    def test_strictly_decreasing(self):
        rig = rig_for(400.0, 0.12)
        disparities = np.linspace(0.5, 200.0, 300)
        depths = [depth_from_disparity(float(d), rig) for d in disparities]
        for a, b in zip(depths, depths[1:]):
            assert b < a

    def test_domain_error(self):
        with pytest.raises(ValueError):
            depth_from_disparity(0.0, RIG)
        with pytest.raises(ValueError):
            depth_from_disparity(-3.0, RIG)

    def test_depth_independent_of_pixel(self):
        # ideal-rig Q: the recovered Z never depends on (u, v)
        rig = rig_for(400.0, 0.12)
        rng = np.random.default_rng(8)
        for _ in range(100):
            u, v = rng.uniform(0, 640), rng.uniform(0, 480)
            d = float(rng.uniform(0.5, 100.0))
            assert q_reprojection_oracle(u, v, d, rig) == pytest.approx(
                q_reprojection_oracle(rig.cx, rig.cy, d, rig), rel=1e-12
            )

    def test_round_trip_noise_free(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            f = float(rng.uniform(50.0, 1200.0))
            b = float(rng.uniform(0.03, 0.5))
            z = float(rng.uniform(0.2, 15.0))
            rig = rig_for(f, b)
            disparity = f * b / z
            recovered = depth_from_disparity(disparity, rig)
            assert abs(recovered - z) / z <= 1e-9


class TestSense:
    def test_empty_world(self):
        frame = sense_at_centers([], (Vec2(0.0, 0.0), 0.0), RIG, NO_CUT, per_frame(RIG))
        assert frame.detections == ()

    def test_noise_free_identity(self):
        obstacles = [
            ObstacleInstance(1, "rock", Vec2(4.0, 1.0), 0.5),
            ObstacleInstance(2, "fish", Vec2(2.0, -1.0), 0.2),
        ]
        frame = sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), RIG, NO_CUT, per_frame(RIG))
        assert [d.instance_id for d in frame.detections] == [1, 2]
        for det, obs in zip(frame.detections, obstacles):
            assert det.reported_class == obs.class_label
            assert det.true_class == obs.class_label
            expected_range = math.hypot(obs.center.x, obs.center.y)
            assert det.range_m == pytest.approx(expected_range, rel=1e-12)

    def test_noise_free_consumes_no_randomness(self):
        obstacles = [ObstacleInstance(1, "rock", Vec2(4.0, 1.0), 0.5)]
        rng = np.random.default_rng(123)
        state_before = rng.bit_generator.state
        sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), RIG, NO_CUT, noise_draws(rng, RIG, 0))
        assert rng.bit_generator.state == state_before

    def test_max_range_filter(self):
        obstacles = [ObstacleInstance(1, "rock", Vec2(20.0, 0.0), 0.5)]
        frame = sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), RIG, NO_CUT, per_frame(RIG))
        assert frame.detections == ()

    def test_fov_filter(self):
        rig = replace(RIG, fov_deg=180.0, max_range_m=15.0)  # forward half-plane
        behind = [ObstacleInstance(1, "rock", Vec2(-3.0, 0.1), 0.5)]
        frame = sense_at_centers(behind, (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, per_frame(rig))
        assert frame.detections == ()

    def test_occlusion_drops_far_obstacle(self):
        near = ObstacleInstance(1, "rock", Vec2(3.0, 0.0), 0.5)
        far = ObstacleInstance(2, "rock", Vec2(8.0, 0.0), 0.5)
        frame = sense_at_centers([near, far], (Vec2(0.0, 0.0), 0.0), RIG, NO_CUT, per_frame(RIG))
        assert [d.instance_id for d in frame.detections] == [1]

    def test_occlusion_matches_brute_force_ray_test(self):
        rng = np.random.default_rng(10)
        cam = Vec2(0.0, 0.0)
        for _ in range(200):
            target = Vec2(float(rng.uniform(2.0, 10.0)), float(rng.uniform(-3.0, 3.0)))
            blocker_center = Vec2(float(rng.uniform(0.5, 9.0)), float(rng.uniform(-2.0, 2.0)))
            radius = float(rng.uniform(0.1, 1.0))
            if math.hypot(blocker_center.x, blocker_center.y) >= math.hypot(target.x, target.y):
                continue
            obstacles = [
                ObstacleInstance(1, "rock", blocker_center, radius),
                ObstacleInstance(2, "rock", target, 0.2),
            ]
            frame = sense_at_centers(obstacles, (cam, 0.0), RIG, NO_CUT, per_frame(RIG))
            detected_ids = {d.instance_id for d in frame.detections}
            # brute force: sample the center ray densely
            blocked = any(
                Vec2(target.x * t, target.y * t).dist(blocker_center) <= radius
                for t in np.linspace(0.0, 1.0, 2001)
            )
            if blocked:
                assert 2 not in detected_ids
            else:
                assert 2 in detected_ids

    def test_occluder_outside_fov_still_blocks(self):
        rig = replace(RIG, fov_deg=10.0, max_range_m=15.0)
        target = ObstacleInstance(2, "rock", Vec2(6.0, 0.0), 0.3)
        # blocker center well outside the 10 deg cone, disc still crossing the ray
        blocker = ObstacleInstance(1, "rock", Vec2(2.0, 0.6), 0.7)
        frame = sense_at_centers([blocker, target], (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, per_frame(rig))
        assert frame.detections == ()

    def test_misclassification_uses_confusion_map(self):
        rig = replace(RIG, misclassify_prob=1.0, confusion={"rock": "fish"}, max_range_m=15.0)
        obstacles = [ObstacleInstance(1, "rock", Vec2(3.0, 0.0), 0.5)]
        frame = sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, per_frame(rig))
        det = frame.detections[0]
        assert det.reported_class == "fish"
        assert det.true_class == "rock"

    def test_misclassification_without_mapping_keeps_class(self):
        rig = replace(RIG, misclassify_prob=1.0, confusion={}, max_range_m=15.0)
        obstacles = [ObstacleInstance(1, "rock", Vec2(3.0, 0.0), 0.5)]
        frame = sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, per_frame(rig))
        assert frame.detections[0].reported_class == "rock"

    def test_same_seed_same_frame(self):
        obstacles = [
            ObstacleInstance(1, "rock", Vec2(4.0, 1.0), 0.5),
            ObstacleInstance(2, "fish", Vec2(2.0, -1.0), 0.2),
        ]
        rig = replace(RIG, disparity_std=0.4, misclassify_prob=0.3, confusion={"rock": "fish"}, max_range_m=15.0)
        frames = [
            sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.1), rig, NO_CUT, per_frame(rig, 77))
            for _ in range(2)
        ]
        assert frames[0] == frames[1]

    def test_noisy_samples_all_positive(self):
        obstacles = [ObstacleInstance(1, "rock", Vec2(14.0, 0.0), 0.3)]
        rig = replace(RIG, disparity_std=50.0, max_range_m=15.0)
        for seed in range(20):
            frame = sense_at_centers(obstacles, (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, per_frame(rig, seed))
            for det in frame.detections:
                assert 0.0 < det.range_m < math.inf  # ranged from a positive median disparity

    def test_moving_obstacle_uses_supplied_positions(self):
        obs = ObstacleInstance(1, "fish", Vec2(5.0, 0.0), 0.2, waypoints=(Vec2(5.0, 2.0),), speed=1.0)
        moved = obs.position_at(1.0)
        frame = sense([obs], (Vec2(0.0, 0.0), 0.0), RIG, NO_CUT, per_frame(RIG), [moved])
        det = frame.detections[0]
        expected_range = math.hypot(moved.x, moved.y)
        assert det.range_m == pytest.approx(expected_range, rel=1e-12)

    # sense cuts at max_gap, whatever the class: a detection it does not emit, steering never sees
    def test_gap_past_max_gap_emits_nothing(self):
        rock = ObstacleInstance(1, "rock", Vec2(4.0, 0.0), 0.5)  # gap 3.5 on this rig, exactly
        for max_gap, emitted in ((3.5, [1]), (math.nextafter(3.5, 0.0), [])):
            frame = sense_at_centers([rock], (Vec2(0.0, 0.0), 0.0), RIG, max_gap, per_frame(RIG))
            assert [det.instance_id for det in frame.detections] == emitted
            assert frame.dropped == 0

    def test_zero_d0_class_within_max_gap_is_emitted_and_fuse_skips_it(self):
        policy = ClearancePolicy({"sports_ball": 0.0}, default_d0=1.0)
        pose = (Vec2(0.0, 0.0), 0.0)
        # the camera inside the ball, on its rim and just outside it: gaps 0, 0 and 0.01
        for x, gap in ((0.2, 0.0), (0.5, 0.0), (0.51, 0.51 - 0.5)):
            ball = ObstacleInstance(1, "sports_ball", Vec2(x, 0.0), 0.5)
            frame = sense_at_centers([ball], pose, RIG, largest_d0([policy]), per_frame(RIG))
            assert [(det.instance_id, det.gap) for det in frame.detections] == [(1, pytest.approx(gap, abs=1e-12))]
            assert fuse(frame, pose, policy) == ([], 0)
        rock = ObstacleInstance(1, "rock", Vec2(0.2, 0.0), 0.5)  # the same contact under a positive d0
        frame = sense_at_centers([rock], pose, RIG, largest_d0([policy]), per_frame(RIG))
        assert [(det.instance_id, det.gap) for det in frame.detections] == [(1, 0.0)]
        assert [(est.id, est.d0) for est in fuse(frame, pose, policy)[0]] == [(1, 1.0)]

    def test_disparity_whose_ratio_to_the_baseline_underflows_is_past_every_gap(self):
        # true disparity 1e-290 / 1e25 = 1e-315, and 1e-315 * (1 / 1e10) underflows to 0
        rig = StereoRig(focal_px=1e-300, baseline_m=1e10, max_range_m=1e308)
        rock = ObstacleInstance(1, "rock", Vec2(1e25, 0.0), 0.5)
        assert depth_from_disparity(1e-315, rig) == math.inf
        frame = sense_at_centers([rock], (Vec2(0.0, 0.0), 0.0), rig, 1e300, per_frame(rig))
        assert frame == PerceptionFrame((), 0)
        [det] = sense_at_centers([rock], (Vec2(0.0, 0.0), 0.0), rig, NO_CUT, per_frame(rig)).detections
        assert (det.range_m, det.gap) == (math.inf, math.inf)


class TestFuse:
    # d0 1.0 for every class but sports_ball, which is never avoided
    POLICY = ClearancePolicy({"sports_ball": 0.0}, default_d0=1.0)

    def make_detection(self, range_m, bearing=0.0, gap=0.5, label="rock"):
        return Detection(
            instance_id=1, reported_class=label, true_class=label,
            range_m=range_m, bearing_rad=bearing, gap=gap,
        )

    def test_single_detection_straight_ahead(self):
        frame = PerceptionFrame(detections=(self.make_detection(1.0, gap=1.0),), dropped=0)
        estimates, dropped = fuse(frame, (Vec2(0.0, 0.0), 0.0), self.POLICY)
        assert dropped == 0
        est = estimates[0]
        assert est.position.x == pytest.approx(1.0, rel=1e-12)
        assert est.position.y == pytest.approx(0.0, abs=1e-12)
        assert (est.d0, est.gap) == (1.0, 1.0)

    # fuse owns the clearance rule: a gap equal to d0 is admitted, one past it is not
    def test_gap_at_d0_admitted(self):
        for gap, admitted in ((1.0, [1]), (math.nextafter(1.0, 2.0), [])):
            frame = PerceptionFrame((self.make_detection(1.5, gap=gap),), 0)
            estimates, _ = fuse(frame, (Vec2(0.0, 0.0), 0.0), self.POLICY)
            assert [est.id for est in estimates] == admitted

    def test_largest_d0_is_the_largest_default_or_class_entry(self):
        assert largest_d0([self.POLICY]) == 1.0
        assert largest_d0([ClearancePolicy({"rock": 2.0, "fish": 0.0}, 1.0)]) == 2.0
        assert largest_d0([ClearancePolicy({"rock": 2.0}, 1.0), ClearancePolicy({}, 3.0)]) == 3.0
        assert largest_d0([ClearancePolicy({}, 0.0), ClearancePolicy({"fish": 0.5}, 0.25)]) == 0.5

    def test_zero_d0_class_at_contact_gives_no_estimate(self):
        ball = self.make_detection(0.5, gap=0.0, label="sports_ball")
        estimates, _ = fuse(PerceptionFrame((ball,), 0), (Vec2(0.0, 0.0), 0.0), self.POLICY)
        assert estimates == []
        # the same contact under a positive d0 is admitted
        estimates, _ = fuse(PerceptionFrame((ball,), 0), (Vec2(0.0, 0.0), 0.0), ClearancePolicy({}, 1.0))
        assert [(est.id, est.d0, est.gap) for est in estimates] == [(1, 1.0, 0.0)]

    # sense now takes the median, so these cases feed it fixed noise offsets
    def test_median_rejects_outlier(self):
        clean = sensed([0.0] * 9).range_m
        assert sensed([0.0] * 8 + [990.0]).range_m == clean
        assert sensed([-9.5] + [0.0] * 8).range_m == clean  # the low outlier survives as 0.5

    @pytest.mark.parametrize(
        "samples",
        [
            [3.0, -1.0, 0.5, 2.0, -2.5, 1.5, 0.25, -0.75, 4.0],  # all 9 positive
            [-30.0, -11.0, 2.0, -10.5, -20.0, -15.0, -12.0, 5.0, -40.0],  # 2 survive
            [-10.0, 3.0, -12.0, 1.0, 0.5, -10.0, 2.0, -11.0, 6.0],  # 5 survive
            [0.0, -10.0, 1.0, -9.9, 2.5, 3.0, -10.0, -20.0, 0.25],  # 6 survive, one at 0.1
        ],
    )
    def test_median_is_statistics_median(self, samples):
        positive = [s for d in samples if (s := 10.0 + d) > 0.0]
        assert len(positive) in (9, 2, 5, 6)
        det = sensed(samples)
        # the range is the median's, and the gap that range less the radius 0
        assert det.range_m == depth(statistics.median(positive), rig_for(100.0, 0.1))
        assert det.gap == det.range_m

    def test_bearing_and_pose_compose(self):
        heading = 0.7
        bearing = -0.3
        rng_m = 2.0
        frame = PerceptionFrame(detections=(self.make_detection(rng_m, bearing=bearing, gap=1.75),), dropped=0)
        estimates, _ = fuse(frame, (Vec2(2.0, -1.0), heading), KEEP_ALL)
        est = estimates[0]
        assert est.position.x == pytest.approx(2.0 + rng_m * math.cos(heading + bearing), rel=1e-12)
        assert est.position.y == pytest.approx(-1.0 + rng_m * math.sin(heading + bearing), rel=1e-12)
        assert est.gap == 1.75

    def test_surface_distance_clamped(self):
        # sense clamps the gap, and fuse passes it on
        rig = rig_for(100.0, 0.1)
        rock = ObstacleInstance(1, "rock", Vec2(0.2, 0.0), 1.0)  # range 0.2, radius 1.0
        pose = (Vec2(0.0, 0.0), 0.0)
        frame = sense_at_centers([rock], pose, rig, NO_CUT, per_frame(rig))
        assert frame.detections[0].gap == 0.0
        estimates, _ = fuse(frame, pose, KEEP_ALL)
        assert estimates[0].gap == 0.0

    def test_label_passthrough(self):
        det = Detection(
            instance_id=3, reported_class="robot", true_class="fish",
            range_m=1.0, bearing_rad=0.0, gap=0.8,
        )
        # d0 is looked up by the reported class, not the true one
        policy = ClearancePolicy({"robot": 1.5}, default_d0=0.0)
        estimates, _ = fuse(PerceptionFrame((det,), 0), (Vec2(0.0, 0.0), 0.0), policy)
        est = estimates[0]
        assert (est.id, est.reported_class, est.true_class, est.d0, est.gap) == (3, "robot", "fish", 1.5, 0.8)

    def test_empty_sample_detection_dropped_with_counter(self):
        rig = replace(rig_for(100.0, 0.1), disparity_std=1.0, max_range_m=1e3)
        obstacles = [ObstacleInstance(1, "rock", Vec2(1.0, 0.0), 0.1),  # true disparity 10
                     ObstacleInstance(2, "rock", Vec2(0.0, 1.0), 0.1)]
        no_positive = [-10.0, -12.0] * 4 + [-10.5]
        pose = (Vec2(0.0, 0.0), 0.0)
        frame = sense_at_centers(obstacles, pose, rig, NO_CUT, fixed_rows(no_positive, [0.0] * 9))
        assert frame.dropped == 1
        assert [det.instance_id for det in frame.detections] == [2]
        estimates, dropped = fuse(frame, pose, KEEP_ALL)
        assert dropped == 1
        assert [est.id for est in estimates] == [2]


class TestSenseFuseRoundTrip:
    def test_world_positions_recovered_exactly(self):
        obstacles = [
            ObstacleInstance(1, "rock", Vec2(4.0, 1.5), 0.5),
            ObstacleInstance(2, "car", Vec2(-2.0, 3.0), 0.8),
        ]
        pose = (Vec2(0.5, -0.25), 0.35)
        rig = replace(RIG, fov_deg=360.0, max_range_m=20.0)
        frame = sense_at_centers(obstacles, pose, rig, NO_CUT, per_frame(rig))
        estimates, dropped = fuse(frame, pose, KEEP_ALL)
        assert dropped == 0
        by_id = {e.id: e for e in estimates}
        for obs in obstacles:
            est = by_id[obs.id]
            assert est.position.x == pytest.approx(obs.center.x, abs=1e-9)
            assert est.position.y == pytest.approx(obs.center.y, abs=1e-9)
            truth = pose[0].dist(obs.center) - obs.radius
            assert est.gap == pytest.approx(truth, abs=1e-9)

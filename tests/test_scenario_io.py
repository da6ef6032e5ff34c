from __future__ import annotations

import hashlib
import math
import pickle
import re
from dataclasses import fields, replace

import pytest
import yaml

from soar_sim import scenario_io
from soar_sim.perception import StereoRig
from soar_sim.scenario_io import (
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    load_scenario_file,
    serialize_scenario,
    validate_scenario,
    with_noise,
)
from soar_sim.world import (
    ClearancePolicy,
    DisturbanceSpec,
    ObstacleInstance,
    RobotParams,
    Vec2,
)

MINIMAL = """
format_version: 1
start: {x: 0.0, y: 0.0, heading: 0.0}
goal: {x: 5.0, y: 0.0, radius: 0.3}
"""

ONE_OBSTACLE = """
format_version: 1
name: tiny
start: {x: 0.0, y: 0.0, heading: 0.0}
goal: {x: 5.0, y: 0.0, radius: 0.3}
obstacles:
  - {id: 1, class: rock, x: 2.5, y: 1.4, radius: 0.4}
"""


class TestLoadDefaults:
    def test_minimal_document_gets_defaults(self):
        spec = load_scenario(MINIMAL)
        assert spec.name == "scenario"
        assert spec.robot.cruise_speed == 1.0
        assert spec.robot.dt == 0.05
        assert spec.policy.default_d0 == 1.0
        assert spec.uniform_d0 == 1.0
        assert spec.time_limit == 120.0
        assert spec.seed == 0
        assert spec.disturbance.gust_std == 0.0
        assert spec.rig.misclassify_prob == 0.0
        assert spec.rig.focal_px == 400.0
        assert spec.obstacles == ()

    def test_single_static_obstacle(self):
        spec = load_scenario(ONE_OBSTACLE)
        assert len(spec.obstacles) == 1
        obs = spec.obstacles[0]
        assert obs.class_label == "rock"
        assert obs.waypoints == ()
        assert not obs.is_moving()

    def test_integers_accepted_for_floats(self):
        spec = load_scenario(MINIMAL.replace("x: 5.0", "x: 5"))
        assert spec.goal.x == 5.0

    def test_empty_sections_load_like_absent_ones(self):
        # every default comes from the dataclass the section fills
        empty = MINIMAL + "robot: {}\nsensor: {}\ndisturbance: {}\npolicy: {}\n"
        assert load_scenario(empty) == load_scenario(MINIMAL)


class TestLoadErrors:
    def test_negative_radius_names_field_and_id(self):
        doc = ONE_OBSTACLE.replace("radius: 0.4", "radius: -1")
        with pytest.raises(ScenarioError, match=r"radius.*(obstacle id 1)"):
            load_scenario(doc)

    def test_missing_format_version(self):
        doc = MINIMAL.replace("format_version: 1\n", "")
        with pytest.raises(ScenarioError, match="format_version: required"):
            load_scenario(doc)

    def test_unsupported_format_version(self):
        with pytest.raises(ScenarioError, match="format_version"):
            load_scenario(MINIMAL.replace("format_version: 1", "format_version: 2"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(MINIMAL + "\nbogus_key: 3\n")

    def test_unknown_nested_key(self):
        with pytest.raises(ScenarioError, match="scenario.goal.*unknown key"):
            load_scenario(MINIMAL.replace("radius: 0.3", "radius: 0.3, color: red"))

    def test_malformed_yaml_reports_line(self):
        with pytest.raises(ScenarioError, match="malformed"):
            load_scenario("format_version: 1\nstart: {x: 0.0, y: }}\n")

    def test_duplicate_obstacle_ids(self):
        doc = ONE_OBSTACLE + "  - {id: 1, class: rock, x: -2.0, y: 2.0, radius: 0.4}\n"
        with pytest.raises(ScenarioError, match="id unique"):
            load_scenario(doc)

    def test_goal_inside_clearance_region(self):
        doc = ONE_OBSTACLE.replace("x: 2.5, y: 1.4", "x: 4.9, y: 0.0")
        with pytest.raises(ScenarioError, match=r"goal outside \(radius \+ d0\)"):
            load_scenario(doc)

    def test_start_collision(self):
        doc = ONE_OBSTACLE.replace("x: 2.5, y: 1.4", "x: 0.1, y: 0.0")
        with pytest.raises(ScenarioError, match="start position collision-free"):
            load_scenario(doc)

    def test_dt_stability_bound(self):
        doc = MINIMAL + "robot: {dt: 0.2}\n"
        with pytest.raises(ScenarioError, match="dt"):
            load_scenario(doc)

    def test_slowdown_radius_vs_goal_radius(self):
        doc = MINIMAL + "robot: {slowdown_radius: 0.1}\n"
        with pytest.raises(ScenarioError, match="slowdown_radius"):
            load_scenario(doc)

    def test_waypoint_loop_needs_waypoints(self):
        doc = ONE_OBSTACLE.replace(
            "radius: 0.4}", "radius: 0.4, motion: {type: waypoint_loop, speed: 1.0, waypoints: []}}"
        )
        with pytest.raises(ScenarioError, match="waypoints"):
            load_scenario(doc)

    @pytest.mark.parametrize("motion, message", [
        ("{type: orbit}", "scenario.obstacles[0].motion.type: expected 'static' or 'waypoint_loop', got 'orbit'"),
        # a loop with no waypoints would load as a static obstacle, and a static one holds no speed
        ("{type: waypoint_loop, speed: 0, waypoints: []}",
         "scenario.obstacles[0].motion.waypoints: violates waypoints non-empty"),
        ("{type: waypoint_loop, speed: -0.5, waypoints: []}",
         "scenario.obstacles[0].motion.speed: violates speed >= 0"),
        ("{type: static, speed: 0.3}", "scenario.obstacles[0].motion: unknown key(s) ['speed']"),
    ], ids=["motion_kind_unknown", "loop_without_waypoints", "negative_loop_without_waypoints",
            "static_with_speed"])
    def test_motion_document_rejected(self, motion, message):
        with pytest.raises(ScenarioError) as exc:
            load_scenario(ONE_OBSTACLE.replace("radius: 0.4}", f"radius: 0.4, motion: {motion}}}"))
        assert str(exc.value) == message

    def test_waypoint_speed_nonnegative(self):
        doc = ONE_OBSTACLE.replace(
            "radius: 0.4}",
            "radius: 0.4, motion: {type: waypoint_loop, speed: -0.5, waypoints: [{x: 1.0, y: 1.0}]}}",
        )
        with pytest.raises(ScenarioError, match="speed"):
            load_scenario(doc)

    @pytest.mark.parametrize("value, shown", [
        ("a" * 200, "'aaaaaaaaaaaa...aaaaaaaaaaaaa'"),
        ([[[[[[[[[[0]]]]]]]]]], "[[[[[[[...]]]]]]]"),
    ], ids=["string_of_200", "list_nested_10_deep"])
    def test_typed_shows_a_long_value_shortened(self, value, shown):
        # reprlib's forms cut both length and depth; a repr cut at 60 characters keeps a deep list whole
        with pytest.raises(ScenarioError) as exc:
            scenario_io._typed(value, "scenario.robot.dt", float)
        assert str(exc.value) == f"scenario.robot.dt: expected a number, got {shown}"

    def test_bad_probability(self):
        doc = MINIMAL + "sensor: {misclassify_prob: 1.5}\n"
        with pytest.raises(ScenarioError, match="misclassify_prob"):
            load_scenario(doc)

    def test_bad_fov(self):
        doc = MINIMAL + "sensor: {fov_deg: 0.0}\n"
        with pytest.raises(ScenarioError, match="fov"):
            load_scenario(doc)

    def test_negative_time_limit(self):
        doc = MINIMAL + "time_limit_s: -3\n"
        with pytest.raises(ScenarioError, match="time_limit"):
            load_scenario(doc)

    @pytest.mark.parametrize("extra", ["time_limit_s: 1.0e+308\n", "robot: {dt: 1.0e-300}\n"])
    def test_tick_budget_capped(self, extra):
        # an infinite budget used to raise in math.ceil, a huge one to run for ever
        with pytest.raises(ScenarioError, match=r"scenario\.time_limit_s: .*robot\.dt"):
            load_scenario(MINIMAL + extra)

    def test_tick_budget_at_cap_accepted(self):
        assert load_scenario(MINIMAL + "time_limit_s: 50000.0\nrobot: {dt: 0.05}\n").time_limit == 50000.0

    @pytest.mark.parametrize("heading", ["1.0e+9", "-6.3"])
    def test_start_heading_bounded(self, heading):
        # wrap_angle stalled on a heading of 1e9
        with pytest.raises(ScenarioError, match=r"scenario\.start\.heading"):
            load_scenario(MINIMAL.replace("heading: 0.0", f"heading: {heading}"))

    def test_start_heading_in_range_accepted(self):
        doc = MINIMAL.replace("heading: 0.0", "heading: -6.28")
        assert load_scenario(doc).start_pose[1] == -6.28

    @pytest.mark.parametrize("old, new, field", [
        ("time_limit_s: 1", "time_limit_s: 1" + "0" * 400, "scenario.time_limit_s"),
        ("x: 5.0", "x: 1" + "0" * 400, "scenario.goal.x"),
    ], ids=["time_limit", "goal_x"])
    def test_integer_past_the_float_range(self, old, new, field):
        # float() of it raised OverflowError, a traceback from the CLI
        doc = (MINIMAL + "time_limit_s: 100\n").replace(old, new)
        with pytest.raises(ScenarioError, match=re.escape(field) + ": expected a number"):
            load_scenario(doc)

    @pytest.mark.parametrize("value", ["1" * 5000, "2001-02-30"], ids=["int_5000_digits", "bad_date"])
    def test_yaml_value_error_is_a_scenario_error(self, value):
        # PyYAML raises a plain ValueError for these, not a YAMLError
        with pytest.raises(ScenarioError, match="malformed"):
            load_scenario(MINIMAL + f"name: {value}\n")

    def test_unknown_keys_of_mixed_types(self):
        # sorting an int and a str key raised TypeError
        with pytest.raises(ScenarioError, match=r"scenario\.start: unknown key"):
            load_scenario(MINIMAL.replace("heading: 0.0", "heading: 0.0, 1: 2, z: 3"))

    @pytest.mark.parametrize("name", ["'../up'", "'a\\b'", '"a\\0b"'], ids=["slash", "backslash", "nul"])
    def test_name_is_a_file_stem(self, name):
        # artifacts are written as <name>_<mode>_seed<n>.*: a NUL raised in open(), a '/' left --out
        with pytest.raises(ScenarioError, match=r"scenario\.name"):
            load_scenario(MINIMAL + f"name: {name}\n")


CONSTRUCTED = ScenarioSpec(
    name="constructed",
    obstacles=(
        ObstacleInstance(1, "rock", Vec2(3.0, 2.0), 0.4, waypoints=(Vec2(3.5, 2.5),), speed=0.3),
    ),
    start_pose=(Vec2(0.0, 0.0), 0.0),
    goal=Vec2(8.0, 0.0),
    goal_radius=0.3,
    robot=RobotParams(),
    disturbance=DisturbanceSpec(),
    policy=ClearancePolicy({"rock": 1.0}),
    uniform_d0=1.0,
    time_limit=20.0,
    seed=0,
)


def _obstacle(spec, **changes):
    return replace(spec, obstacles=(replace(spec.obstacles[0], **changes),))


class TestValidateConstructed:
    """validate_scenario holds every value rule, so a spec built in code gets the loader's message."""

    def test_base_spec_is_valid(self):
        validate_scenario(CONSTRUCTED)

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda s: replace(s, goal=Vec2(math.nan, 0.0)), "scenario.goal.x", id="goal_nan"),
        pytest.param(lambda s: replace(s, start_pose=(Vec2(0.0, math.inf), 0.0)), "scenario.start.y",
                     id="start_inf"),
        pytest.param(lambda s: replace(s, start_pose=(Vec2(0.0, 0.0), math.nan)), "scenario.start.heading",
                     id="heading_nan"),
        pytest.param(lambda s: replace(s, time_limit=math.nan), "scenario.time_limit_s", id="time_limit_nan"),
        pytest.param(lambda s: replace(s, uniform_d0=math.inf), "scenario.uniform_d0", id="uniform_d0_inf"),
        pytest.param(lambda s: replace(s, robot=RobotParams(dt=math.nan)), "scenario.robot.dt", id="dt_nan"),
        pytest.param(lambda s: replace(s, disturbance=DisturbanceSpec(drift_x=-math.inf)),
                     "scenario.disturbance.drift_x", id="drift_inf"),
        pytest.param(lambda s: _obstacle(s, center=Vec2(math.nan, 2.0)), "scenario.obstacles[0].x",
                     id="center_nan"),
        pytest.param(lambda s: _obstacle(s, radius=math.inf), "scenario.obstacles[0].radius", id="radius_inf"),
        pytest.param(lambda s: _obstacle(s, radius=-0.1), "scenario.obstacles[0].radius", id="radius_negative"),
        pytest.param(lambda s: _obstacle(s, waypoints=(Vec2(3.5, math.nan),)),
                     "scenario.obstacles[0].motion.waypoints[0].y", id="waypoint_nan"),
        pytest.param(lambda s: _obstacle(s, speed=-0.3), "scenario.obstacles[0].motion.speed",
                     id="speed_negative"),
        # finite, but the distance travelled by the trial's last tick overflows, which fmod rejects
        pytest.param(lambda s: _obstacle(s, speed=1.0e308), "scenario.obstacles[0].motion.speed",
                     id="speed_distance_overflows"),
        pytest.param(lambda s: _obstacle(s, waypoints=()), "scenario.obstacles[0].motion.waypoints",
                     id="waypoints_empty"),
        pytest.param(lambda s: replace(s, policy=ClearancePolicy({"rock": 1.0}, -1.0)),
                     "scenario.policy.default_d0", id="default_d0_negative"),
        pytest.param(lambda s: replace(s, policy=ClearancePolicy({"rock": 1.0, "cone": -0.5})),
                     "scenario.policy.classes.cone", id="class_d0_negative"),
        pytest.param(lambda s: with_noise(s, cx=math.nan), "scenario.sensor.cx", id="cx_nan"),
        pytest.param(lambda s: with_noise(s, focal_px=0.0), "scenario.sensor.focal_px", id="focal_zero"),
        pytest.param(lambda s: with_noise(s, baseline_m=-0.1), "scenario.sensor.baseline_m", id="baseline_negative"),
        pytest.param(lambda s: with_noise(s, focal_px=1.0e-200, baseline_m=1.0e-200), "scenario.sensor.baseline_m",
                     id="focal_baseline_product_underflows"),
        pytest.param(lambda s: with_noise(s, baseline_m=1.0e-310), "scenario.sensor.baseline_m",
                     id="inverse_baseline_overflows"),
        pytest.param(lambda s: with_noise(s, disparity_std=-0.1), "scenario.sensor.disparity_std",
                     id="disparity_std_negative"),
        pytest.param(lambda s: with_noise(s, misclassify_prob=1.5), "scenario.sensor.misclassify_prob",
                     id="misclassify_above_1"),
        pytest.param(lambda s: with_noise(s, misclassify_prob=-0.1), "scenario.sensor.misclassify_prob",
                     id="misclassify_below_0"),
        pytest.param(lambda s: with_noise(s, fov_deg=0.0), "scenario.sensor.fov_deg", id="fov_zero"),
        pytest.param(lambda s: with_noise(s, max_range_m=-1.0), "scenario.sensor.max_range_m",
                     id="max_range_negative"),
        pytest.param(lambda s: with_noise(s, max_range_m=math.nan), "scenario.sensor.max_range_m",
                     id="max_range_nan"),
    ])
    def test_rejected_with_the_loaders_message(self, edit, field):
        spec = edit(CONSTRUCTED)
        with pytest.raises(ScenarioError, match=re.escape(field) + ": ") as constructed:
            validate_scenario(spec)
        with pytest.raises(ScenarioError) as loaded:
            load_scenario(serialize_scenario(spec))
        assert str(loaded.value) == str(constructed.value)

    def test_name_must_encode_as_utf8(self):
        # a surrogate code point passed validation, then writing the trial's artifacts raised
        # UnicodeEncodeError; libyaml rejects the document's escape, PyYAML's own scanner does not
        spec = replace(CONSTRUCTED, name="h\ud800")
        with pytest.raises(ScenarioError, match=r"scenario\.name: "):
            validate_scenario(spec)
        with pytest.raises(ScenarioError):
            load_scenario(serialize_scenario(spec))

    def test_fov_bound_is_exact(self):
        # 360 is the whole view; the next float above it is rejected, loaded or constructed
        assert load_scenario(MINIMAL + "sensor: {fov_deg: 360.0}\n").rig.fov_deg == 360.0
        above = math.nextafter(360.0, math.inf)
        message = "scenario.sensor.fov_deg: violates fov in (0, 360]"
        with pytest.raises(ScenarioError) as loaded:
            load_scenario(MINIMAL + f"sensor: {{fov_deg: {above!r}}}\n")
        assert str(loaded.value) == message
        with pytest.raises(ScenarioError) as constructed:
            validate_scenario(replace(CONSTRUCTED, rig=StereoRig(fov_deg=above)))
        assert str(constructed.value) == message

    @pytest.mark.parametrize("speed, message", [
        (0.3, "scenario.obstacles[0].motion.waypoints: violates waypoints non-empty"),
        (-0.3, "scenario.obstacles[0].motion.speed: violates speed >= 0"),
    ], ids=["speed", "negative_speed"])
    def test_static_motion_carries_nothing(self, speed, message):
        spec = _obstacle(CONSTRUCTED, waypoints=(), speed=speed)
        with pytest.raises(ScenarioError) as constructed:
            validate_scenario(spec)
        assert str(constructed.value) == message
        # its document keeps the speed, so it is rejected alike rather than loaded as a static obstacle
        document = serialize_scenario(spec)
        assert f"speed: {speed}" in document
        with pytest.raises(ScenarioError) as loaded:
            load_scenario(document)
        assert str(loaded.value) == str(constructed.value)


class TestFixtures:
    def test_parking_lot_census(self, parking_lot):
        labels = [obs.class_label for obs in parking_lot.obstacles]
        assert labels.count("sports_ball") == 8
        assert labels.count("car") == 2
        assert labels.count("person") == 1

    def test_parking_lot_balls_ignorable(self, parking_lot):
        assert parking_lot.policy.entries["sports_ball"] == 0.0

    def test_arch_fish_ignorable_and_moving(self, arch):
        assert arch.policy.entries["fish"] == 0.0
        moving = [o for o in arch.obstacles if o.waypoints]
        assert len(moving) == 2
        assert all(o.class_label == "fish" and o.is_moving() for o in moving)

    def test_head_on_confuses_rock_with_fish(self, head_on):
        assert head_on.rig.misclassify_prob == 0.5
        assert head_on.rig.confusion == {"rock": "fish"}

    def test_spec_pickles_to_an_equal_value(self, arch):
        # pool workers get the spec, Vec2s included, through pickle
        copy = pickle.loads(pickle.dumps(arch))
        assert copy == arch
        assert type(copy.goal) is Vec2


class TestRoundTrip:
    def test_fixtures_round_trip(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.yaml")):
            spec = load_scenario(path.read_text(encoding="utf-8"))
            assert load_scenario(serialize_scenario(spec)) == spec, path.name

    def test_each_section_holds_one_records_fields(self, head_on):
        # the document's robot, disturbance and sensor sections are RobotParams, DisturbanceSpec and StereoRig
        document = yaml.safe_load(serialize_scenario(head_on))
        for section, record in (("robot", RobotParams), ("disturbance", DisturbanceSpec), ("sensor", StereoRig)):
            assert list(document[section]) == [f.name for f in fields(record)], section

    def test_fixtures_serialize_to_pinned_bytes(self, scenario_dir):
        # the serializer derives each motion's type; these documents must not change a byte
        pinned = {
            "arch": "fa2979a8ff6311e88c8883295f13a63d4fef6a76ef52252e0e45f9896c1469fa",
            "head_on": "1e8384ba625461ab4374843ee2b775eb5200764ad5b483db3c515b2576bf6cff",
            "open_field": "a9e74c820a5caf09479d733a4628be2954bc7a0cff620229f5cc887c6cdfc346",
            "parking_lot": "bec51f6421f1ee9c979b1ca1944000820f41038d1822e8013d7991159f4f71b6",
            "single_block": "fb72a42543456b033773cb2794250c05fa79f6ee6e6ecac6181f4e4382514cd7",
            "transparency": "e7c6d3760786402aeb69cd62ec4c524a10208f43a7bb61fd3ac08c90206c5a99",
        }
        digests = {
            path.stem: hashlib.sha256(serialize_scenario(load_scenario_file(str(path))).encode()).hexdigest()
            for path in sorted(scenario_dir.glob("*.yaml"))
        }
        assert digests == pinned

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_parses_fixtures_as_pyyaml_does(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.yaml")):
            text = path.read_text(encoding="utf-8")
            expected = yaml.load(text, Loader=yaml.SafeLoader)
            assert yaml.load(text, Loader=yaml.CSafeLoader) == expected, path.name
            assert yaml.load(text, Loader=scenario_io._Loader) == expected, path.name

    def test_constructed_spec_round_trips(self):
        spec = ScenarioSpec(
            name="constructed",
            obstacles=(
                ObstacleInstance(1, "rock", Vec2(3.0, 1.03125), 0.4),
                ObstacleInstance(4, "fish", Vec2(2.0, -1.5), 0.2,
                                 waypoints=(Vec2(2.5, -1.0), Vec2(1.5, -1.0)), speed=0.3),
            ),
            start_pose=(Vec2(0.0, 0.0), 0.25),
            goal=Vec2(8.0, 0.5),
            goal_radius=0.35,
            robot=load_scenario(MINIMAL).robot,
            disturbance=load_scenario(MINIMAL).disturbance,
            policy=ClearancePolicy({"fish": 0.0, "rock": 1.1}, 0.9),
            uniform_d0=1.3,
            time_limit=90.0,
            seed=17,
            rig=StereoRig(misclassify_prob=0.25, confusion={"rock": "fish"}),
        )
        assert load_scenario(serialize_scenario(spec)) == spec

    def test_fov_survives_awkward_values(self):
        base = load_scenario(MINIMAL)
        for fov_deg in (120.5, 87.3, 359.999, 33.333333):
            spec = with_noise(base, fov_deg=fov_deg)
            assert load_scenario(serialize_scenario(spec)) == spec

    def test_with_noise_helper(self, head_on):
        quiet = with_noise(head_on, misclassify_prob=0.0)
        assert quiet.rig.misclassify_prob == 0.0
        assert quiet.rig.confusion == head_on.rig.confusion
        assert quiet.obstacles == head_on.obstacles

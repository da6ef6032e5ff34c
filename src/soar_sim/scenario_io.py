"""Scenario file handling: a versioned, human-editable YAML document that
fixes the world, robot, sensor, policies and seed for a trial.

Each schema decision has one owner:

- the reader checks shape only: mappings, lists, required keys, unknown
  keys (errors) and each value's type (an integer counts as a number, a
  boolean as neither). It applies no value bound but one: it alone knows
  the motion types, and a `waypoint_loop` at speed 0 needs a waypoint, or
  it would load as a static obstacle (one without waypoints);
- the robot, disturbance and sensor sections hold the fields of RobotParams,
  DisturbanceSpec and StereoRig under the same names and units, and are
  read and written field by field;
- an absent key takes the default of the dataclass field it fills;
- validate_scenario holds every value rule: each number finite, then every
  range. load_scenario runs it, and a spec built in code gets the same
  message, naming the same document path, as a loaded file.

load_scenario(serialize_scenario(s)) is the identity, which keeps shipped
scenario files usable as regression anchors.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import asdict, dataclass, field, fields, replace
from math import dist
from typing import Any, Iterable, Iterator

import yaml
from yaml.composer import Composer

from soar_sim.perception import StereoRig
from soar_sim.world import (
    ClearancePolicy,
    DisturbanceSpec,
    ObstacleInstance,
    RobotParams,
    Vec2,
    effective_d0,
)

FORMAT_VERSION = 1

DEFAULT_GOAL_RADIUS = 0.3
DEFAULT_TIME_LIMIT = 120.0
DEFAULT_UNIFORM_D0 = 1.0
DEFAULT_SEED = 0
# cap on time_limit_s / robot.dt, the trial's tick budget; shipped scenarios need at most 6,001
MAX_TICKS = 1_000_000
_STATIC = "static"  # the document's motion types
_WAYPOINT_LOOP = "waypoint_loop"


# libyaml's scanner and parser (~6x faster) under PyYAML's composer, constructor and resolver:
# the documents are equal, and a too deeply nested one is a RecursionError, not a C stack overflow
if yaml.__with_libyaml__:
    class _Loader(Composer, yaml.CSafeLoader):
        def __init__(self, stream: str | bytes) -> None:
            yaml.CSafeLoader.__init__(self, stream)
            Composer.__init__(self)
else:
    _Loader = yaml.SafeLoader


class ScenarioError(ValueError):
    """Parse or validation failure; the message carries the field path."""


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    name: str
    obstacles: tuple[ObstacleInstance, ...]
    start_pose: tuple[Vec2, float]
    goal: Vec2
    goal_radius: float
    robot: RobotParams
    disturbance: DisturbanceSpec
    policy: ClearancePolicy
    uniform_d0: float
    time_limit: float
    seed: int
    rig: StereoRig = field(default_factory=StereoRig)


# ---------------------------------------------------------------- reading

_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", list: "a list", dict: "a mapping"}


def _typed(value: Any, path: str, kind: type) -> Any:
    """value after a type check; an int counts as a float, a bool as neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ScenarioError(f"{path}: expected {_KIND_NAMES[kind]}, got {reprlib.repr(value)}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{path}: expected a number, got an integer past the float range") from None


def _get(data: dict, key: str, path: str, default: Any = None, kind: type = float) -> Any:
    """data[key] after a type check; default when absent, required if default is None."""
    if key not in data:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    return _typed(data[key], f"{path}.{key}", kind)


def _mapping(value: Any, path: str, keys: Iterable[str]) -> dict:
    """value as a mapping whose keys are all among keys."""
    value = _typed(value, path, dict)
    unknown = set(value) - set(keys)
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {sorted(unknown, key=str)}")
    return value


def _names(cls: type) -> set[str]:
    return {f.name for f in fields(cls)}


def _from_fields(cls: type, data: dict, path: str, **given: Any) -> Any:
    """cls from given and the keys of data named like its other fields; absent ones keep cls's defaults."""
    default = cls()
    return cls(**{
        f.name: _get(data, f.name, path, kind=type(getattr(default, f.name)))
        for f in fields(cls) if f.name in data and f.name not in given
    }, **given)


def _labels(data: dict, key: str, path: str, kind: type) -> dict:
    """data[key] as a map from label to a kind value; empty when absent."""
    return {
        str(label): _typed(value, f"{path}.{key}.{label}", kind)
        for label, value in _get(data, key, path, {}, dict).items()
    }


def _point(data: dict, path: str) -> Vec2:
    return Vec2(_get(data, "x", path), _get(data, "y", path))


def _check(ok: bool, path: str, rule: str) -> None:
    if not ok:
        raise ScenarioError(f"{path}: violates {rule}")


def _parse_motion(data: dict, path: str) -> dict[str, Any]:
    """The obstacle's waypoints and speed, as ObstacleInstance keywords; none for a static one."""
    if "motion" not in data:
        return {}
    path = f"{path}.motion"
    mdata = _mapping(data["motion"], path, {"type", "speed", "waypoints"})
    kind = _get(mdata, "type", path, _STATIC, str)
    if kind not in (_STATIC, _WAYPOINT_LOOP):
        raise ScenarioError(f"{path}.type: expected '{_STATIC}' or '{_WAYPOINT_LOOP}', got {kind!r}")
    if kind == _STATIC:
        _mapping(mdata, path, {"type"})  # a static obstacle takes no speed or waypoints
        return {}
    speed = _get(mdata, "speed", path)
    waypoints = []
    for j, entry in enumerate(_get(mdata, "waypoints", path, kind=list)):
        wpath = f"{path}.waypoints[{j}]"
        waypoints.append(_point(_mapping(entry, wpath, {"x", "y"}), wpath))
    # at speed 0 an empty loop would load as a static obstacle; validate_scenario rejects any other
    _check(bool(waypoints) or speed != 0.0, f"{path}.waypoints", "waypoints non-empty")
    return {"waypoints": tuple(waypoints), "speed": speed}


def _parse_obstacle(entry: Any, path: str) -> ObstacleInstance:
    data = _mapping(entry, path, {"id", "class", "x", "y", "radius", "motion"})
    return ObstacleInstance(
        id=_get(data, "id", path, kind=int),
        class_label=_get(data, "class", path, kind=str),
        center=_point(data, path),
        radius=_get(data, "radius", path, 0.0),
        **_parse_motion(data, path),
    )


def load_scenario(text: str | bytes) -> ScenarioSpec:
    """Read one scenario document, then validate it; bytes are decoded by the parser."""
    try:
        data = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past 4,300 digits, a bad date, a surrogate
        # the parser's own text spans lines and differs between parsers: keep its mark and problem
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark is not None else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        raise ScenarioError(f"scenario: malformed document{where}: {problem}") from exc
    except RecursionError:
        raise ScenarioError("scenario: malformed document: nested too deeply") from None
    data = _mapping(
        data,
        "scenario",
        {"format_version", "name", "robot", "goal", "start", "disturbance",
         "time_limit_s", "seed", "policy", "uniform_d0", "obstacles", "sensor"},
    )
    version = _get(data, "format_version", "scenario", kind=int)
    if version != FORMAT_VERSION:
        raise ScenarioError(f"scenario.format_version: expected {FORMAT_VERSION}, got {version}")

    start = _mapping(_get(data, "start", "scenario", kind=dict), "scenario.start", {"x", "y", "heading"})
    goal = _mapping(_get(data, "goal", "scenario", kind=dict), "scenario.goal", {"x", "y", "radius"})
    robot = _mapping(data.get("robot", {}), "scenario.robot", _names(RobotParams))
    disturbance = _mapping(data.get("disturbance", {}), "scenario.disturbance", _names(DisturbanceSpec))
    ppath = "scenario.policy"
    pdata = _mapping(data.get("policy", {}), ppath, {"default_d0", "classes"})
    spath = "scenario.sensor"
    sdata = _mapping(data.get("sensor", {}), spath, _names(StereoRig))

    spec = ScenarioSpec(
        name=_get(data, "name", "scenario", "scenario", str),
        obstacles=tuple(
            _parse_obstacle(entry, f"scenario.obstacles[{i}]")
            for i, entry in enumerate(_get(data, "obstacles", "scenario", [], list))
        ),
        start_pose=(_point(start, "scenario.start"), _get(start, "heading", "scenario.start", 0.0)),
        goal=_point(goal, "scenario.goal"),
        goal_radius=_get(goal, "radius", "scenario.goal", DEFAULT_GOAL_RADIUS),
        robot=_from_fields(RobotParams, robot, "scenario.robot"),
        disturbance=_from_fields(DisturbanceSpec, disturbance, "scenario.disturbance"),
        policy=_from_fields(ClearancePolicy, pdata, ppath, entries=_labels(pdata, "classes", ppath, float)),
        uniform_d0=_get(data, "uniform_d0", "scenario", DEFAULT_UNIFORM_D0),
        time_limit=_get(data, "time_limit_s", "scenario", DEFAULT_TIME_LIMIT),
        seed=_get(data, "seed", "scenario", DEFAULT_SEED, int),
        rig=_from_fields(StereoRig, sdata, spath, confusion=_labels(sdata, "confusion", spath, str)),
    )
    validate_scenario(spec)
    return spec


def load_scenario_file(path: str) -> ScenarioSpec:
    with open(path, "rb") as fh:  # the parser decodes, so a file that is not UTF-8 is a malformed document
        return load_scenario(fh.read())


# ------------------------------------------------------------- validation

def _polyline_distance(point: Vec2, pts: tuple[Vec2, ...]) -> float:
    """Exact distance from a point to a polyline (single point allowed)."""
    if len(pts) == 1:
        return dist(point, pts[0])
    best = math.inf
    for a, b in zip(pts, pts[1:]):
        abx, aby = b.x - a.x, b.y - a.y
        seg2 = abx * abx + aby * aby
        if seg2 == 0.0:
            best = min(best, dist(point, a))
            continue
        t = ((point.x - a.x) * abx + (point.y - a.y) * aby) / seg2
        t = min(1.0, max(0.0, t))
        best = min(best, dist(point, (a.x + abx * t, a.y + aby * t)))
    return best


def _non_finite(node: Any, path: str) -> Iterator[str]:
    """Document path of every NaN or infinite number under node."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _non_finite(child, f"{path}.{key}")
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _non_finite(child, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        yield path


def validate_scenario(spec: ScenarioSpec) -> None:
    """Check every value rule; raises ScenarioError naming the document path of the culprit.

    Each bound is a comparison that NaN fails, after every number has been
    checked finite.
    """
    for path in _non_finite(_document(spec), "scenario"):
        raise ScenarioError(f"{path}: must be finite")
    # the name is the stem of every artifact file: no NUL, no way out of --out, and it must encode
    # as UTF-8, which a surrogate code point does not (a YAML escape such as "\ud800" can give one)
    _check(not any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in spec.name), "scenario.name",
           "no '/', '\\', NUL or surrogate in name")
    _check(spec.time_limit > 0.0, "scenario.time_limit_s", "time_limit > 0")
    _check(spec.goal_radius > 0.0, "scenario.goal.radius", "goal_radius > 0")
    _check(spec.seed >= 0, "scenario.seed", "seed >= 0")
    _check(spec.uniform_d0 >= 0.0, "scenario.uniform_d0", "d0 >= 0")

    r = spec.robot
    _check(r.cruise_speed > 0.0, "scenario.robot.cruise_speed", "cruise_speed > 0")
    _check(r.max_turn_rate > 0.0, "scenario.robot.max_turn_rate", "max_turn_rate > 0")
    _check(r.collision_radius >= 0.0, "scenario.robot.collision_radius", "collision_radius >= 0")
    _check(0.0 < r.dt <= 0.1, "scenario.robot.dt", "0 < dt <= 0.1")
    # before any ceil: an infinite quotient would raise there, a huge one never end
    _check(spec.time_limit / r.dt <= MAX_TICKS, "scenario.time_limit_s",
           f"time_limit_s / robot.dt <= {MAX_TICKS} ticks")
    last_tick_time = (math.ceil(spec.time_limit / r.dt) + 1) * r.dt  # the trial loop's last t, as it computes it
    # wrap_angle steps by 2 pi, so a huge heading would stall the first tick
    _check(abs(spec.start_pose[1]) <= 2.0 * math.pi, "scenario.start.heading", "|heading| <= 2 pi")
    _check(r.slowdown_radius >= spec.goal_radius, "scenario.robot.slowdown_radius",
           "slowdown_radius >= goal_radius")
    _check(spec.disturbance.gust_std >= 0.0, "scenario.disturbance.gust_std", "gust_std >= 0")

    _check(spec.policy.default_d0 >= 0.0, "scenario.policy.default_d0", "d0 >= 0")
    for label, d0 in spec.policy.entries.items():
        _check(d0 >= 0.0, f"scenario.policy.classes.{label}", "d0 >= 0")

    rig = spec.rig
    _check(rig.focal_px > 0.0, "scenario.sensor.focal_px", "focal_px > 0")
    _check(rig.baseline_m > 0.0, "scenario.sensor.baseline_m", "baseline_m > 0")
    # f * B underflowing to 0 zeroes every true disparity, 1 / B overflowing every range: the robot drives blind
    _check(rig.focal_px * rig.baseline_m > 0.0 and math.isfinite(1.0 / rig.baseline_m),
           "scenario.sensor.baseline_m", "focal_px * baseline_m > 0 and 1 / baseline_m finite")
    _check(rig.disparity_std >= 0.0, "scenario.sensor.disparity_std", "disparity_std >= 0")
    _check(0.0 <= rig.misclassify_prob <= 1.0, "scenario.sensor.misclassify_prob",
           "probability in [0, 1]")
    _check(0.0 < rig.fov_deg <= 360.0, "scenario.sensor.fov_deg", "fov in (0, 360]")
    _check(rig.max_range_m > 0.0, "scenario.sensor.max_range_m", "max_range_m > 0")

    seen_ids: set[int] = set()
    for i, obs in enumerate(spec.obstacles):
        path = f"scenario.obstacles[{i}]"
        _check(obs.id not in seen_ids, f"{path}.id", f"id unique (obstacle id {obs.id})")
        seen_ids.add(obs.id)
        _check(obs.radius >= 0.0, f"{path}.radius", f"radius >= 0 (obstacle id {obs.id})")
        _check(obs.speed >= 0.0, f"{path}.motion.speed", "speed >= 0")
        # position_at takes fmod(speed * t, loop length), which raises on an infinite distance
        _check(math.isfinite(obs.speed * last_tick_time), f"{path}.motion.speed",
               "speed * last tick time finite")
        # a speed alone serializes as a loop with no waypoints
        _check(bool(obs.waypoints) or obs.speed == 0.0, f"{path}.motion.waypoints", "waypoints non-empty")
        d0 = effective_d0(spec.policy, obs.class_label)
        if d0 > 0.0:
            _check(_polyline_distance(spec.goal, obs.path_points()) > obs.radius + d0, path,
                   f"goal outside (radius + d0) region (obstacle id {obs.id}, class {obs.class_label})")
            _check(dist(spec.start_pose[0], obs.center) - obs.radius > spec.robot.collision_radius, path,
                   f"start position collision-free (obstacle id {obs.id})")


# ---------------------------------------------------------- serialization

def _obstacle_document(obs: ObstacleInstance) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "id": obs.id,
        "class": obs.class_label,
        "x": obs.center.x,
        "y": obs.center.y,
        "radius": obs.radius,
    }
    if obs.waypoints or obs.speed != 0.0:
        entry["motion"] = {
            "type": _WAYPOINT_LOOP,
            "speed": obs.speed,
            "waypoints": [{"x": wp.x, "y": wp.y} for wp in obs.waypoints],
        }
    return entry


def _document(spec: ScenarioSpec) -> dict[str, Any]:
    """The mapping a scenario file holds for spec."""
    return {
        "format_version": FORMAT_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "time_limit_s": spec.time_limit,
        "uniform_d0": spec.uniform_d0,
        "start": {"x": spec.start_pose[0].x, "y": spec.start_pose[0].y, "heading": spec.start_pose[1]},
        "goal": {"x": spec.goal.x, "y": spec.goal.y, "radius": spec.goal_radius},
        "robot": asdict(spec.robot),
        "disturbance": asdict(spec.disturbance),
        "policy": {
            "default_d0": spec.policy.default_d0,
            "classes": dict(sorted(spec.policy.entries.items())),
        },
        "sensor": {**asdict(spec.rig), "confusion": dict(sorted(spec.rig.confusion.items()))},
        "obstacles": [_obstacle_document(obs) for obs in spec.obstacles],
    }


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Emit a document that load_scenario parses back to an equal spec."""
    return yaml.safe_dump(_document(spec), sort_keys=False, default_flow_style=False)


def with_noise(spec: ScenarioSpec, **kwargs: Any) -> ScenarioSpec:
    """Copy of spec with sensor fields replaced (e.g. misclassify_prob=0)."""
    return replace(spec, rig=replace(spec.rig, **kwargs))

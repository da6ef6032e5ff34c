"""Scenario file handling: a versioned, human-editable YAML document that
fixes the world, robot, sensor, policies and seed for a trial.

Documents are validated strictly: unknown keys are errors, every invariant
violation names the offending field path. load_scenario(serialize_scenario(s))
is the identity, which keeps shipped scenario files usable as regression
anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

import yaml

from soar_sim.perception import SensorNoiseSpec, StereoRig
from soar_sim.world import (
    MOTION_STATIC,
    MOTION_WAYPOINT_LOOP,
    ClearancePolicy,
    DisturbanceSpec,
    MotionSpec,
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
    noise: SensorNoiseSpec = field(default_factory=SensorNoiseSpec)


# ---------------------------------------------------------------- parsing

def _require_map(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(data: dict, allowed: set[str], path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {sorted(unknown)}")


def _num(data: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in data:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"{path}.{key}: must be finite")
    return value


def _int(data: dict, key: str, path: str, default: int | None = None) -> int:
    if key not in data:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _str(data: dict, key: str, path: str, default: str | None = None) -> str:
    if key not in data:
        if default is None:
            raise ScenarioError(f"{path}.{key}: required")
        return default
    value = data[key]
    if not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _parse_obstacle(entry: Any, path: str) -> ObstacleInstance:
    data = _require_map(entry, path)
    _check_keys(data, {"id", "class", "x", "y", "radius", "motion"}, path)
    obs_id = _int(data, "id", path)
    label = _str(data, "class", path)
    center = Vec2(_num(data, "x", path), _num(data, "y", path))
    radius = _num(data, "radius", path, 0.0)
    if radius < 0.0:
        raise ScenarioError(f"{path}.radius: violates radius >= 0 (obstacle id {obs_id})")

    motion = MotionSpec()
    if "motion" in data:
        mpath = f"{path}.motion"
        mdata = _require_map(data["motion"], mpath)
        kind = _str(mdata, "type", mpath, MOTION_STATIC)
        if kind == MOTION_STATIC:
            _check_keys(mdata, {"type"}, mpath)
        elif kind == MOTION_WAYPOINT_LOOP:
            _check_keys(mdata, {"type", "speed", "waypoints"}, mpath)
            speed = _num(mdata, "speed", mpath)
            if speed < 0.0:
                raise ScenarioError(f"{mpath}.speed: violates speed >= 0")
            raw = mdata.get("waypoints")
            if not isinstance(raw, list) or not raw:
                raise ScenarioError(f"{mpath}.waypoints: non-empty list required for {kind}")
            waypoints = []
            for j, wp in enumerate(raw):
                wpath = f"{mpath}.waypoints[{j}]"
                wdata = _require_map(wp, wpath)
                _check_keys(wdata, {"x", "y"}, wpath)
                waypoints.append(Vec2(_num(wdata, "x", wpath), _num(wdata, "y", wpath)))
            motion = MotionSpec(kind=kind, waypoints=tuple(waypoints), speed=speed)
        else:
            raise ScenarioError(
                f"{mpath}.type: expected '{MOTION_STATIC}' or '{MOTION_WAYPOINT_LOOP}', got {kind!r}"
            )
    return ObstacleInstance(id=obs_id, class_label=label, center=center, radius=radius, motion=motion)


def _parse_policy(data: Any, path: str) -> ClearancePolicy:
    pdata = _require_map(data, path)
    _check_keys(pdata, {"default_d0", "classes"}, path)
    default_d0 = _num(pdata, "default_d0", path, DEFAULT_UNIFORM_D0)
    if default_d0 < 0.0:
        raise ScenarioError(f"{path}.default_d0: violates d0 >= 0")
    entries: dict[str, float] = {}
    if "classes" in pdata:
        cdata = _require_map(pdata["classes"], f"{path}.classes")
        for label, value in cdata.items():
            cpath = f"{path}.classes.{label}"
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"{cpath}: expected a number, got {value!r}")
            d0 = float(value)
            if not math.isfinite(d0) or d0 < 0.0:
                raise ScenarioError(f"{cpath}: violates d0 >= 0")
            entries[str(label)] = d0
    return ClearancePolicy(entries=entries, default_d0=default_d0)


def _parse_sensor(data: Any, path: str) -> tuple[StereoRig, SensorNoiseSpec]:
    sdata = _require_map(data, path)
    _check_keys(
        sdata,
        {"focal_px", "baseline_m", "cx", "cy", "width", "height", "fov_deg",
         "max_range_m", "disparity_std", "misclassify_prob", "confusion"},
        path,
    )
    rig = StereoRig(
        focal_px=_num(sdata, "focal_px", path, 400.0),
        baseline_m=_num(sdata, "baseline_m", path, 0.12),
        cx=_num(sdata, "cx", path, 320.0),
        cy=_num(sdata, "cy", path, 240.0),
        width=_int(sdata, "width", path, 640),
        height=_int(sdata, "height", path, 480),
    )
    if rig.focal_px <= 0.0:
        raise ScenarioError(f"{path}.focal_px: violates focal_px > 0")
    if rig.baseline_m <= 0.0:
        raise ScenarioError(f"{path}.baseline_m: violates baseline_m > 0")

    confusion: dict[str, str] = {}
    if "confusion" in sdata:
        cdata = _require_map(sdata["confusion"], f"{path}.confusion")
        for true_label, reported in cdata.items():
            if not isinstance(reported, str):
                raise ScenarioError(f"{path}.confusion.{true_label}: expected a class name")
            confusion[str(true_label)] = reported
    noise = SensorNoiseSpec(
        disparity_std=_num(sdata, "disparity_std", path, 0.0),
        misclassify_prob=_num(sdata, "misclassify_prob", path, 0.0),
        confusion=confusion,
        fov_rad=math.radians(_num(sdata, "fov_deg", path, 360.0)),
        max_range_m=_num(sdata, "max_range_m", path, 15.0),
    )
    if noise.disparity_std < 0.0:
        raise ScenarioError(f"{path}.disparity_std: violates disparity_std >= 0")
    if not 0.0 <= noise.misclassify_prob <= 1.0:
        raise ScenarioError(f"{path}.misclassify_prob: violates probability in [0, 1]")
    if not 0.0 < noise.fov_rad <= 2.0 * math.pi + 1e-12:
        raise ScenarioError(f"{path}.fov_deg: violates fov in (0, 360]")
    if noise.max_range_m <= 0.0:
        raise ScenarioError(f"{path}.max_range_m: violates max_range_m > 0")
    return rig, noise


def load_scenario(text: str) -> ScenarioSpec:
    """Parse and validate one scenario document."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ScenarioError(f"scenario: malformed document{where}: {exc}") from exc
    data = _require_map(data, "scenario")
    _check_keys(
        data,
        {"format_version", "name", "robot", "goal", "start", "disturbance",
         "time_limit_s", "seed", "policy", "uniform_d0", "obstacles", "sensor"},
        "scenario",
    )
    if "format_version" not in data:
        raise ScenarioError("scenario.format_version: required")
    version = _int(data, "format_version", "scenario")
    if version != FORMAT_VERSION:
        raise ScenarioError(f"scenario.format_version: expected {FORMAT_VERSION}, got {version}")

    name = _str(data, "name", "scenario", "scenario")

    sdata = _require_map(data.get("start"), "scenario.start") if "start" in data else None
    if sdata is None:
        raise ScenarioError("scenario.start: required")
    _check_keys(sdata, {"x", "y", "heading"}, "scenario.start")
    start_pose = (
        Vec2(_num(sdata, "x", "scenario.start"), _num(sdata, "y", "scenario.start")),
        _num(sdata, "heading", "scenario.start", 0.0),
    )

    if "goal" not in data:
        raise ScenarioError("scenario.goal: required")
    gdata = _require_map(data["goal"], "scenario.goal")
    _check_keys(gdata, {"x", "y", "radius"}, "scenario.goal")
    goal = Vec2(_num(gdata, "x", "scenario.goal"), _num(gdata, "y", "scenario.goal"))
    goal_radius = _num(gdata, "radius", "scenario.goal", DEFAULT_GOAL_RADIUS)

    robot = RobotParams()
    if "robot" in data:
        rdata = _require_map(data["robot"], "scenario.robot")
        _check_keys(
            rdata,
            {"cruise_speed", "max_turn_rate", "slowdown_radius", "collision_radius", "dt"},
            "scenario.robot",
        )
        robot = RobotParams(
            cruise_speed=_num(rdata, "cruise_speed", "scenario.robot", robot.cruise_speed),
            max_turn_rate=_num(rdata, "max_turn_rate", "scenario.robot", robot.max_turn_rate),
            slowdown_radius=_num(rdata, "slowdown_radius", "scenario.robot", robot.slowdown_radius),
            collision_radius=_num(rdata, "collision_radius", "scenario.robot", robot.collision_radius),
            dt=_num(rdata, "dt", "scenario.robot", robot.dt),
        )

    disturbance = DisturbanceSpec()
    if "disturbance" in data:
        ddata = _require_map(data["disturbance"], "scenario.disturbance")
        _check_keys(ddata, {"drift_x", "drift_y", "gust_std"}, "scenario.disturbance")
        disturbance = DisturbanceSpec(
            drift=Vec2(
                _num(ddata, "drift_x", "scenario.disturbance", 0.0),
                _num(ddata, "drift_y", "scenario.disturbance", 0.0),
            ),
            gust_std=_num(ddata, "gust_std", "scenario.disturbance", 0.0),
        )

    policy = (
        _parse_policy(data["policy"], "scenario.policy")
        if "policy" in data
        else ClearancePolicy()
    )
    rig, noise = (
        _parse_sensor(data["sensor"], "scenario.sensor")
        if "sensor" in data
        else (StereoRig(), SensorNoiseSpec())
    )

    obstacles = []
    if "obstacles" in data:
        raw = data["obstacles"]
        if not isinstance(raw, list):
            raise ScenarioError("scenario.obstacles: expected a list")
        for i, entry in enumerate(raw):
            obstacles.append(_parse_obstacle(entry, f"scenario.obstacles[{i}]"))

    spec = ScenarioSpec(
        name=name,
        obstacles=tuple(obstacles),
        start_pose=start_pose,
        goal=goal,
        goal_radius=goal_radius,
        robot=robot,
        disturbance=disturbance,
        policy=policy,
        uniform_d0=_num(data, "uniform_d0", "scenario", DEFAULT_UNIFORM_D0),
        time_limit=_num(data, "time_limit_s", "scenario", DEFAULT_TIME_LIMIT),
        seed=_int(data, "seed", "scenario", DEFAULT_SEED),
        rig=rig,
        noise=noise,
    )
    validate_scenario(spec)
    return spec


def load_scenario_file(path: str) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


# ------------------------------------------------------------- validation

def _polyline_distance(point: Vec2, pts: tuple[Vec2, ...]) -> float:
    """Exact distance from a point to a polyline (single point allowed)."""
    if len(pts) == 1:
        return point.dist(pts[0])
    best = math.inf
    for a, b in zip(pts, pts[1:]):
        abx, aby = b.x - a.x, b.y - a.y
        seg2 = abx * abx + aby * aby
        if seg2 == 0.0:
            best = min(best, point.dist(a))
            continue
        t = ((point.x - a.x) * abx + (point.y - a.y) * aby) / seg2
        t = min(1.0, max(0.0, t))
        best = min(best, point.dist(Vec2(a.x + abx * t, a.y + aby * t)))
    return best


def validate_scenario(spec: ScenarioSpec) -> None:
    """Check every cross-field invariant; raises ScenarioError naming the culprit."""
    # the name is the stem of every artifact file: no NUL, no way out of --out
    if any(c in spec.name for c in "/\\\0"):
        raise ScenarioError("scenario.name: violates no '/', '\\' or NUL in name")
    if spec.time_limit <= 0.0:
        raise ScenarioError("scenario.time_limit_s: violates time_limit > 0")
    if spec.goal_radius <= 0.0:
        raise ScenarioError("scenario.goal.radius: violates goal_radius > 0")
    if spec.seed < 0:
        raise ScenarioError("scenario.seed: violates seed >= 0")
    if spec.uniform_d0 < 0.0:
        raise ScenarioError("scenario.uniform_d0: violates d0 >= 0")

    r = spec.robot
    if r.cruise_speed <= 0.0:
        raise ScenarioError("scenario.robot.cruise_speed: violates cruise_speed > 0")
    if r.max_turn_rate <= 0.0:
        raise ScenarioError("scenario.robot.max_turn_rate: violates max_turn_rate > 0")
    if r.collision_radius < 0.0:
        raise ScenarioError("scenario.robot.collision_radius: violates collision_radius >= 0")
    if r.dt <= 0.0 or r.dt > 0.1:
        raise ScenarioError("scenario.robot.dt: violates 0 < dt <= 0.1")
    # before any ceil: an infinite quotient would raise there, a huge one never end
    if not spec.time_limit / r.dt <= MAX_TICKS:
        raise ScenarioError(
            f"scenario.time_limit_s: violates time_limit_s / robot.dt <= {MAX_TICKS} ticks"
        )
    heading = spec.start_pose[1]
    # wrap_angle steps by 2 pi, so a huge heading would stall the first tick
    if not abs(heading) <= 2.0 * math.pi:
        raise ScenarioError("scenario.start.heading: violates |heading| <= 2 pi")
    if r.slowdown_radius < spec.goal_radius:
        raise ScenarioError(
            "scenario.robot.slowdown_radius: violates slowdown_radius >= goal_radius"
        )
    if spec.disturbance.gust_std < 0.0:
        raise ScenarioError("scenario.disturbance.gust_std: violates gust_std >= 0")

    seen_ids: set[int] = set()
    for i, obs in enumerate(spec.obstacles):
        path = f"scenario.obstacles[{i}]"
        if obs.id in seen_ids:
            raise ScenarioError(f"{path}.id: violates id unique (obstacle id {obs.id})")
        seen_ids.add(obs.id)
        if not obs.center.is_finite():
            raise ScenarioError(f"{path}: position must be finite")
        d0 = effective_d0(spec.policy, obs.class_label)
        if d0 > 0.0:
            keep_out = obs.radius + d0
            if _polyline_distance(spec.goal, obs.path_points()) <= keep_out:
                raise ScenarioError(
                    f"{path}: violates goal outside (radius + d0) region "
                    f"(obstacle id {obs.id}, class {obs.class_label})"
                )
            start_gap = spec.start_pose[0].dist(obs.center) - obs.radius
            if start_gap <= spec.robot.collision_radius:
                raise ScenarioError(
                    f"{path}: violates start position collision-free (obstacle id {obs.id})"
                )


# ---------------------------------------------------------- serialization

def _fov_degrees(fov_rad: float) -> float:
    """Degrees value whose radians() reproduces fov_rad bit-exactly.

    degrees() alone round-trips only ~95% of doubles; a few-ulp search
    keeps load_scenario(serialize_scenario(s)) an exact identity.
    """
    deg = math.degrees(fov_rad)
    if math.radians(deg) == fov_rad:
        return deg
    for steps in range(1, 5):
        for direction in (math.inf, -math.inf):
            candidate = deg
            for _ in range(steps):
                candidate = math.nextafter(candidate, direction)
            if math.radians(candidate) == fov_rad:
                return candidate
    return deg


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Emit a document that load_scenario parses back to an equal spec."""
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "time_limit_s": spec.time_limit,
        "uniform_d0": spec.uniform_d0,
        "start": {
            "x": spec.start_pose[0].x,
            "y": spec.start_pose[0].y,
            "heading": spec.start_pose[1],
        },
        "goal": {"x": spec.goal.x, "y": spec.goal.y, "radius": spec.goal_radius},
        "robot": {
            "cruise_speed": spec.robot.cruise_speed,
            "max_turn_rate": spec.robot.max_turn_rate,
            "slowdown_radius": spec.robot.slowdown_radius,
            "collision_radius": spec.robot.collision_radius,
            "dt": spec.robot.dt,
        },
        "disturbance": {
            "drift_x": spec.disturbance.drift.x,
            "drift_y": spec.disturbance.drift.y,
            "gust_std": spec.disturbance.gust_std,
        },
        "policy": {
            "default_d0": spec.policy.default_d0,
            "classes": dict(sorted(spec.policy.entries.items())),
        },
        "sensor": {
            "focal_px": spec.rig.focal_px,
            "baseline_m": spec.rig.baseline_m,
            "cx": spec.rig.cx,
            "cy": spec.rig.cy,
            "width": spec.rig.width,
            "height": spec.rig.height,
            "fov_deg": _fov_degrees(spec.noise.fov_rad),
            "max_range_m": spec.noise.max_range_m,
            "disparity_std": spec.noise.disparity_std,
            "misclassify_prob": spec.noise.misclassify_prob,
            "confusion": dict(sorted(spec.noise.confusion.items())),
        },
        "obstacles": [],
    }
    for obs in spec.obstacles:
        entry: dict[str, Any] = {
            "id": obs.id,
            "class": obs.class_label,
            "x": obs.center.x,
            "y": obs.center.y,
            "radius": obs.radius,
        }
        if obs.motion.kind != MOTION_STATIC:
            entry["motion"] = {
                "type": obs.motion.kind,
                "speed": obs.motion.speed,
                "waypoints": [{"x": wp.x, "y": wp.y} for wp in obs.motion.waypoints],
            }
        doc["obstacles"].append(entry)
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def with_noise(spec: ScenarioSpec, **kwargs: Any) -> ScenarioSpec:
    """Copy of spec with sensor-noise fields replaced (e.g. misclassify_prob=0)."""
    return replace(spec, noise=replace(spec.noise, **kwargs))

"""`soar-sim run` on shipped scenario documents with one to three edits.

About half the documents get junk: a value anywhere in the YAML tree (a
top-level key, a nested field, a list element, a whole section) is replaced
by None, booleans, huge, tiny, non-finite or oversized numbers, strings,
lists or maps. The rest get edits that mostly pass validation, so the trial
loop runs: a start, goal, obstacle or waypoint coordinate moves by up to
1 m, a radius scales by 0.5 to 2, or a d0 is redrawn in [0, 3]. The CLI
must answer with an exit code, never a traceback: 0, 1 with exactly one
`INVALID:` line naming a field path, or 2 with one `ERROR:` line.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from soar_sim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main  # noqa: E402
from soar_sim.world import RobotParams  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DOCUMENTS = {path.stem: yaml.safe_load(path.read_text()) for path in sorted(SCENARIOS.glob("*.yaml"))}

# a field path as the loader spells it, then the reason: scenario.obstacles[3].motion.speed: ...
FIELD_PATH = re.compile(r"INVALID: scenario(\.\w+|\[\d+\])*: \S")

SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    # 10**400: an integer no float holds
    st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf, 2**70, 10**400, 1e-320, 0, -1, 0.5]),
    st.text(max_size=4),
    st.sampled_from(["\0", "../up"]),
)
KEY = st.sampled_from(["x", "y", "id", "radius", "dt", "junk"])
JUNK = st.one_of(SCALAR, st.lists(SCALAR, max_size=3), st.dictionaries(KEY, SCALAR, max_size=3))


def paths(node, prefix=()):
    """Every key or index path into a parsed YAML document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


DOCUMENT_PATHS = {name: list(paths(doc)) for name, doc in DOCUMENTS.items()}


def edit_kind(path) -> str | None:
    """How a finite, in-range edit may change the value at path, if at all."""
    if path[-1] in ("x", "y"):  # start, goal, obstacle and waypoint coordinates
        return "move"
    if path[-1] == "radius":  # goal and obstacle radii
        return "scale"
    if path in (("uniform_d0",), ("policy", "default_d0")) or len(path) == 3 and path[1] == "classes":
        return "d0"
    return None


EDIT_SITES = {
    name: [(path, edit_kind(path)) for path in found if edit_kind(path)]
    for name, found in DOCUMENT_PATHS.items()
}
EDIT = {
    "move": lambda value, draw: value + draw(st.floats(-1.0, 1.0)),
    "scale": lambda value, draw: value * draw(st.floats(0.5, 2.0)),
    "d0": lambda value, draw: draw(st.floats(0.0, 3.0)),
}


def has(node, key) -> bool:
    if isinstance(node, list):
        return isinstance(key, int) and key < len(node)
    return isinstance(node, dict) and key in node


def put(doc, path, value) -> None:
    """Replace the value at path; skip a path an earlier replacement already cut off."""
    node = doc
    for key in path[:-1]:
        if not has(node, key):
            return
        node = node[key]
    if has(node, path[-1]):
        node[path[-1]] = value


def is_finite_number(value) -> bool:
    # a comparison, not math.isfinite, which raises OverflowError on 10**400
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -math.inf < value < math.inf


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def edited_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = yaml.safe_load(yaml.safe_dump(DOCUMENTS[name]))  # a deep copy
    # in-range edits on False: Hypothesis leans to False; on True they were only ~38% of examples
    if draw(st.booleans()):
        for path in draw(st.lists(st.sampled_from(DOCUMENT_PATHS[name]), min_size=1, max_size=3)):
            put(doc, path, draw(JUNK))
    else:
        for path, kind in draw(st.lists(st.sampled_from(EDIT_SITES[name]), min_size=1, max_size=3)):
            put(doc, path, EDIT[kind](get(doc, path), draw))
    # keep a valid document to at most ~100 ticks, at the dt the loader will use
    robot = doc.get("robot")
    dt = robot.get("dt", RobotParams().dt) if isinstance(robot, dict) else RobotParams().dt
    if is_finite_number(doc.get("time_limit_s")) and is_finite_number(dt):
        doc["time_limit_s"] = min(doc["time_limit_s"], 100 * dt)
    return doc


# arch with its first moving obstacle at speed 1e308
ARCH_FAST = yaml.safe_load(yaml.safe_dump(DOCUMENTS["arch"]))  # a deep copy
next(obs for obs in ARCH_FAST["obstacles"] if "speed" in obs.get("motion", {}))["motion"]["speed"] = 1e308

# single_block with a rig whose f * B / range for a rock 1e25 away is 1e-315, and 1e-315 / B underflows to 0
FAR_DIM = {**DOCUMENTS["single_block"], "sensor": {"focal_px": 1e-300, "baseline_m": 1e10, "max_range_m": 1e308},
           "obstacles": [*DOCUMENTS["single_block"]["obstacles"],
                         {"id": 7, "class": "rock", "x": 1e25, "y": 0.0, "radius": 0.5}]}


class TestRunOnJunkDocuments:
    @settings(max_examples=40, deadline=None)
    @given(doc=edited_documents())
    # the name is the artifact file stem; a NUL in it raised ValueError in open()
    @example(doc={**DOCUMENTS["single_block"], "name": "a\0b"})
    # float() of a 400-digit integer raised OverflowError in the loader
    @example(doc={**DOCUMENTS["single_block"], "goal": {**DOCUMENTS["single_block"]["goal"], "x": 10**400}})
    # a finite speed whose distance by the trial's end overflows: position_at raised ValueError in fmod
    @example(doc=ARCH_FAST)
    # a valid rig and a far obstacle: depth_from_disparity raised ZeroDivisionError
    @example(doc=FAR_DIM)
    def test_exit_code_and_one_line_never_a_traceback(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "junk.yaml"
            scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
            argv = ["run", "--scenario", str(scenario), "--seed", "1", "--out", str(Path(tmp) / "out")]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        event(f"exit {rc}")
        assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME)
        lines = err.getvalue().splitlines()
        if rc == EXIT_VALIDATION:
            assert len(lines) == 1 and FIELD_PATH.match(lines[0]), lines
        elif rc == EXIT_RUNTIME:
            assert len(lines) == 1 and lines[0].startswith("ERROR: "), lines
        else:
            assert lines == []

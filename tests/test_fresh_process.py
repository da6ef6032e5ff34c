"""What a new interpreter loads, and what its pool workers write.

numpy is imported by run_trial, so importing the package or its command
line, reading, checking and writing scenario documents, validate, plot and
usage errors never load it; a process pays for it with its first trial,
or, when it forks a pool, once in the parent before the workers start.
Each command imports only what it runs: the process pool's modules load
only when --jobs gives a batch more than one worker, and the SVG plotter
and csv only for plot. This test process has all of these loaded already,
so each test runs its code in a new interpreter that imports soar_sim from
where this one did.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soar_sim

SRC = Path(soar_sim.__file__).resolve().parent.parent
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

STARTUP = """
import json, sys
from pathlib import Path

import soar_sim
from soar_sim import cli
from soar_sim.scenario_io import load_scenario_file, serialize_scenario, validate_scenario

scenarios, tmp = Path(sys.argv[1]), Path(sys.argv[2])
documents = sorted(scenarios.glob("*.yaml"))
for path in documents:
    spec = load_scenario_file(str(path))
    validate_scenario(spec)
    serialize_scenario(spec)
open_field = str(scenarios / "open_field.yaml")
trajectory = tmp / "hand.traj.csv"
trajectory.write_text("x,y\\n0.0,0.0\\n1.0,0.5\\n")
codes = [
    cli.main(["validate", "--scenario", open_field]),
    cli.main(["plot", "--scenario", open_field, "--out", str(tmp / "plot.svg"), str(trajectory)]),
    cli.main(["compare", "--scenario", open_field, "--trials", "0"]),
]
try:
    cli.main(["run"])
except SystemExit as exc:
    codes.append(exc.code)
numpy_before = sorted(name for name in sys.modules if name.partition(".")[0] == "numpy")
result = soar_sim.run_trial(load_scenario_file(open_field), "soar")
print(json.dumps({
    "documents": len(documents), "codes": codes, "numpy_before_trial": numpy_before[:3],
    "numpy_after_trial": "numpy" in sys.modules, "outcome": result.outcome, "ticks": len(result.trajectory),
}))
"""

# pool workers started by a forkserver import soar_sim.cli fresh, as every pool on Python 3.14's Linux
FORKSERVER_COMPARE = """
import multiprocessing, sys
from soar_sim.cli import main

multiprocessing.set_start_method("forkserver")
scenario, out = sys.argv[1], sys.argv[2]
for jobs in ("1", "2"):
    argv = ["compare", "--scenario", scenario, "--trials", "2", "--jobs", jobs, "--out", f"{out}/jobs{jobs}"]
    if main(argv) != 0:
        sys.exit(f"compare --jobs {jobs} failed")
"""


# before it builds a fork pool the parent imports numpy, which the workers inherit; workers of any
# other start method import it afresh, so then the parent does not
POOL_AFTER_NUMPY = """
import concurrent.futures, json, multiprocessing, os, sys
from soar_sim import cli

multiprocessing.set_start_method(sys.argv[3])
os.cpu_count = lambda: 2  # a pool of two even on a one-CPU host
built = []


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        built.append("numpy" in sys.modules)
        super().__init__(*args, **kwargs)


concurrent.futures.ProcessPoolExecutor = RecordingPool
code = cli.main(["compare", "--scenario", sys.argv[1], "--trials", "2", "--jobs", "2", "--out", sys.argv[2]])
print(json.dumps({"code": code, "numpy_when_pool_built": built}))
"""

# the modules a command imports only when it uses them, after each of a run of commands in one process
COMMAND_IMPORTS = """
import json, os, sys
from pathlib import Path

from soar_sim import cli

LATE = ("concurrent.futures.process", "multiprocessing", "soar_sim.svg_plot", "csv")
scenario, out = sys.argv[1], Path(sys.argv[2])
loaded = {"import": [name for name in LATE if name in sys.modules]}


def after(step, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    loaded[step] = [code, [name for name in LATE if name in sys.modules]]


after("validate", ["validate", "--scenario", scenario])
after("run", ["run", "--scenario", scenario, "--out", str(out / "run")])
after("batch", ["batch", "--scenario", scenario, "--trials", "2", "--jobs", "1", "--out", str(out / "batch")])
after("usage", ["run"])
trajectory = str(out / "run" / "open_field_soar_seed42.traj.csv")
after("plot", ["plot", "--scenario", scenario, "--out", str(out / "plot.svg"), trajectory])
os.cpu_count = lambda: 2  # a pool of two even on a one-CPU host
for jobs in ("1", "2"):
    argv = ["compare", "--scenario", scenario, "--trials", "2", "--jobs", jobs, "--out", str(out / f"jobs{jobs}")]
    after(f"compare --jobs {jobs}", argv)
print(json.dumps(loaded))
"""


def run_python(code: str, *args: str) -> str:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_numpy_loads_with_the_first_trial(tmp_path):
    report = json.loads(run_python(STARTUP, str(SCENARIOS), str(tmp_path)).splitlines()[-1])
    assert report["documents"] == 6
    assert report["codes"] == [0, 0, 2, 2]
    assert report["numpy_before_trial"] == []
    assert report["numpy_after_trial"]
    assert (report["outcome"], report["ticks"]) == ("goal_reached", 245)


def test_forkserver_workers_match_serial(tmp_path):
    run_python(FORKSERVER_COMPARE, str(SCENARIOS / "head_on.yaml"), str(tmp_path))
    serial, pooled = tree(tmp_path / "jobs1"), tree(tmp_path / "jobs2")
    assert len(serial) == 2 * 2 * 2 + 2  # a .traj.csv and a .result.yaml per trial, and the report pair
    assert pooled == serial


@pytest.mark.parametrize("method", ["fork", "forkserver"])
def test_numpy_loads_in_the_parent_before_a_fork_pool(tmp_path, method):
    output = run_python(POOL_AFTER_NUMPY, str(SCENARIOS / "open_field.yaml"), str(tmp_path), method)
    report = json.loads(output.splitlines()[-1])
    assert report == {"code": 0, "numpy_when_pool_built": [method == "fork"]}


def test_each_command_imports_only_what_it_runs(tmp_path):
    output = run_python(COMMAND_IMPORTS, str(SCENARIOS / "open_field.yaml"), str(tmp_path))
    report = json.loads(output.splitlines()[-1])
    plotter = ["soar_sim.svg_plot", "csv"]
    assert report == {
        "import": [],
        "validate": [0, []],
        "run": [0, []],
        "batch": [0, []],
        "usage": [2, []],
        "plot": [0, plotter],
        "compare --jobs 1": [0, plotter],
        "compare --jobs 2": [0, ["concurrent.futures.process", "multiprocessing", *plotter]],
    }
    serial, pooled = tree(tmp_path / "jobs1"), tree(tmp_path / "jobs2")
    assert len(serial) == 2 * 2 * 2 + 2
    assert pooled == serial

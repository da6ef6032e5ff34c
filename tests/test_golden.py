"""Stored trajectory digests: every scenario x mode over seeds 42-51.

Two more keys pin the narrow-view path of sense (bearings computed before
occlusion, occluders outside the view still blocking) with a 90 degree
field of view: arch non_soar and head_on soar. arch soar is left out there
because at 90 degrees it gives the same digest as at full view.

Each digest is the sha256 of the nine original trajectory CSV columns of
ten consecutive seeds, so a refactor that changes any recorded float, tick
count or steering decision fails here, while columns appended later do not.
The values were recorded from the code before the per-tick world snapshot
and range-ordered occlusion, the two narrow-view ones from the code before
the obstacle memory was deleted; regenerate them only for an intended change of
behaviour, with `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import replace
from pathlib import Path

import pytest

from soar_sim.report import render_trajectory_csv
from soar_sim.scenario_io import load_scenario_file
from soar_sim.sim import MODE_NON_SOAR, MODE_SOAR, run_trial

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = range(42, 52)
COLUMNS = ("time_s", "x", "y", "heading", "speed", "active_obstacle_id", "c1", "c2", "min_clearance")

# (scenario, mode, fov_deg) -> sha256 of the COLUMNS rows of SEEDS
GOLDEN = {
    ('arch', 'soar', 360.0): 'd4b7e71b69692e7af9dba76e1a468f25ba631843f09f6b4edfc4078442d12b86',
    ('arch', 'non_soar', 360.0): '678917b4da5d1d0342f2bf16dff217f5d9ce437c8a32b57b231588dffc2d308b',
    ('arch', 'non_soar', 90.0): 'e6ec55044f27a49339118b87400a6f011e91964786b8e581635dee64bc827d08',
    ('head_on', 'soar', 360.0): '88ed9088822fb0fa7261a86ba6731cfad450a16ab4fa6cc366c5521a2c704255',
    ('head_on', 'soar', 90.0): '21146403978cb43029818239729d53eb5d4ab44ad3014cf22cb92493b0b0951d',
    ('head_on', 'non_soar', 360.0): 'b1bf90496127fb045313b5da22247139c8f944149b392ccc65f4748a68711033',
    ('open_field', 'soar', 360.0): 'c65c8f22c0854fe561d789cd4ef7767e2be113f742783a6d4258eb3def715b5a',
    ('open_field', 'non_soar', 360.0): 'c65c8f22c0854fe561d789cd4ef7767e2be113f742783a6d4258eb3def715b5a',
    ('parking_lot', 'soar', 360.0): '97f4462175cfcecd4bfc33b7a8eeaa33c2973cc0068ee49c0e4c788ab899cb1c',
    ('parking_lot', 'non_soar', 360.0): 'e7b3621fdc3ef8bd147174236c8995832ccbfe17df12a4bd5e06b3509cd95220',
    ('single_block', 'soar', 360.0): '221607cfcd80fce048bc477d7145189619518c37155e238ce625369b5e33dfa3',
    ('single_block', 'non_soar', 360.0): 'd65327fb7925b99494d570b4c34f958160dfa45341ba9392434c7bd8acd3ecab',
    ('transparency', 'soar', 360.0): '0bdc7d72b01f4ee1beed467ca04c39359fb31cca16cd6ed5a7d6aa8d7c4319be',
    ('transparency', 'non_soar', 360.0): 'b136f3697ee4030ee587e842126ada1533b9af52e9b5ae33636de71742efaebd',
}


def trajectory_digest(scenario: str, mode: str, fov_deg: float) -> str:
    spec = load_scenario_file(str(SCENARIO_DIR / f"{scenario}.yaml"))
    spec = replace(spec, rig=replace(spec.rig, fov_deg=fov_deg))
    h = hashlib.sha256()
    for seed in SEEDS:
        result = run_trial(spec, mode, seed)
        h.update(f"seed {seed}\n".encode())
        for row in csv.DictReader(io.StringIO(render_trajectory_csv(result))):
            h.update((",".join(row[c] for c in COLUMNS) + "\n").encode())
    return h.hexdigest()


# the ids keep the "-ttl0" suffix (memoryless perception) of the earlier
# (scenario, mode, fov_deg, memory_ttl) keys, so test names stay stable
@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}-fov{k[2]:g}-ttl0")
def test_trajectory_digest_unchanged(key):
    assert trajectory_digest(*key) == GOLDEN[key]


if __name__ == "__main__":
    for scenario in ("arch", "head_on", "open_field", "parking_lot", "single_block", "transparency"):
        for mode in (MODE_SOAR, MODE_NON_SOAR):
            narrow = (scenario, mode) in (("arch", MODE_NON_SOAR), ("head_on", MODE_SOAR))
            for fov_deg in (360.0, 90.0) if narrow else (360.0,):
                key = (scenario, mode, fov_deg)
                print(f"    {key!r}: {trajectory_digest(*key)!r},")

"""run_trials(spec, (soar, non_soar), seed) against run_trial per mode, bit for bit, on random scenarios.

While the two modes' trials match, run_trials senses once per tick, cut
at the largest d0 of their policies, and fuses the frame under each
mode's own; at the first tick whose fused estimates differ it forks its
state, hands each mode that frame, and finishes each mode alone. Every tick's recorded floats, the acted-on
obstacle, the outcome, the path length and the per-class clearances must be
those run_trial gives (compared by repr, so -0.0 is not 0.0).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402

from conftest import SCENARIO_DIR  # noqa: E402
from soar_sim.scenario_io import load_scenario_file  # noqa: E402
from soar_sim.sim import DRAW_BLOCK, MODE_NON_SOAR, MODE_SOAR, run_trial, run_trials  # noqa: E402
from soar_sim.world import Vec2  # noqa: E402
from test_reference_trial import OPEN_ROAD, TIE_AHEAD, tick_view  # noqa: E402
from test_scenario_property import scenarios  # noqa: E402

HEAD_ON = load_scenario_file(str(SCENARIO_DIR / "head_on.yaml"))
ARCH = load_scenario_file(str(SCENARIO_DIR / "arch.yaml"))
MODES = (MODE_SOAR, MODE_NON_SOAR)

# the start lies inside the goal radius: both trials end at t=0, still shared
AT_GOAL = replace(OPEN_ROAD, start_pose=(Vec2(9.9, 0.0), 0.0))
# the rock's d0 is 1.0 in soar mode and 1.5 in non_soar mode: the fused estimates differ on tick 1
TIE_FORKS = replace(TIE_AHEAD, uniform_d0=1.5)
# label flips and disparity rows on together draw from one generator at block 0, which the fork
# copies once for both; no shipped scene has both
BOTH_NOISE = replace(HEAD_ON, rig=replace(HEAD_ON.rig, disparity_std=0.5), seed=42)
# moving obstacles and gusts; each trial draws a gust block after its fork
ARCH_42 = replace(ARCH, seed=42)
# forks at tick 52, the tick of its exact +-pi reversal, so the forked non_soar trial makes that turn
TRANSPARENCY_42 = replace(load_scenario_file(str(SCENARIO_DIR / "transparency.yaml")), seed=42)
# forks late, at tick 364
SINGLE_BLOCK_42 = replace(load_scenario_file(str(SCENARIO_DIR / "single_block.yaml")), seed=42)


@settings(max_examples=60, deadline=None)
@given(spec=scenarios())
@example(spec=AT_GOAL)
@example(spec=OPEN_ROAD)  # no obstacles: the trials never fork
@example(spec=TIE_FORKS)
@example(spec=BOTH_NOISE)
@example(spec=ARCH_42)
@example(spec=TRANSPARENCY_42)
@example(spec=SINGLE_BLOCK_42)
def test_paired_trials_are_the_single_trials(spec):
    paired = run_trials(spec, MODES, spec.seed)
    assert [result.mode for result in paired] == list(MODES)
    assert paired[0].min_clearance_by_class is not paired[1].min_clearance_by_class
    for result in paired:
        single = run_trial(spec, result.mode, spec.seed)
        assert (result.outcome, result.seed) == (single.outcome, single.seed)
        assert repr((result.path_length, result.min_clearance_by_class)) == \
            repr((single.path_length, single.min_clearance_by_class))
        assert len(result.trajectory) == len(single.trajectory)
        for tick, single_tick in zip(result.trajectory, single.trajectory):
            assert repr(tick_view(tick)) == repr(tick_view(single_tick)), tick.time


def test_example_scenes_reach_their_cases():
    assert [len(result.trajectory) for result in run_trials(AT_GOAL, MODES)] == [1, 1]
    soar, non_soar = run_trials(OPEN_ROAD, MODES)
    assert soar.trajectory == non_soar.trajectory
    soar, non_soar = run_trials(TIE_FORKS, MODES)
    assert soar.trajectory[1].decision.tie_break_applied and not non_soar.trajectory[1].decision.tie_break_applied
    for spec in (BOTH_NOISE, ARCH_42):
        soar, non_soar = run_trials(spec, MODES)
        assert soar.trajectory[1] == non_soar.trajectory[1] and soar.trajectory != non_soar.trajectory
    assert ARCH.disturbance.gust_std > 0.0 and min(len(soar.trajectory), len(non_soar.trajectory)) > DRAW_BLOCK + 1

"""The CSV renderers against csv.writer, on the trials of every shipped scene.

report.py joins each CSV row from one f-string. The oracles below are the
csv.writer renderers it replaced, kept verbatim: the bytes must be equal,
the t=0 row's empty cells and open_field's inf clearances included.
"""

from __future__ import annotations

import csv
import io
import math

import pytest

from soar_sim.report import (
    TrialRow,
    build_comparison,
    render_comparison_csv,
    render_mode_csv,
    render_trajectory_csv,
    summarize_mode,
)
from soar_sim.sim import MODE_NON_SOAR, MODE_SOAR, run_trial

SCENES = ["arch", "head_on", "open_field", "parking_lot", "single_block", "transparency"]


def oracle_mode_csv(summary):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "mode", "travel_time_s", "outcome"])
    for row in summary.rows:
        writer.writerow([row.seed, summary.mode, f"{row.travel_time:.6f}", row.outcome])
    return buf.getvalue()


def oracle_comparison_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["seed", "soar_travel_time_s", "soar_outcome", "non_soar_travel_time_s", "non_soar_outcome"]
    )
    for s_row, n_row in zip(report.soar.rows, report.non_soar.rows):
        writer.writerow(
            [s_row.seed, f"{s_row.travel_time:.6f}", s_row.outcome,
             f"{n_row.travel_time:.6f}", n_row.outcome]
        )
    return buf.getvalue()


def oracle_trajectory_csv(result):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["time_s", "x", "y", "heading", "speed", "active_obstacle_id", "c1", "c2", "min_clearance"]
    )
    for tick in result.trajectory:
        row = [f"{tick.time:.6f}", repr(tick.position.x), repr(tick.position.y), repr(tick.heading),
               repr(tick.speed)]
        decision = tick.decision
        if decision is None:
            row += ["", "", "", ""]
        else:
            active = decision.active
            row += [
                "" if active is None else active.id,
                repr(decision.c1), repr(decision.c2),
                "" if tick.min_clearance == float("inf") else repr(tick.min_clearance),
            ]
        writer.writerow(row)
    return buf.getvalue()


@pytest.fixture(scope="module")
def trials(request):
    """{scene: (spec, {mode: [TrialResult]})}: two seeds per mode, the scene's own first."""
    out = {}
    for scene in SCENES:
        spec = request.getfixturevalue(scene)
        out[scene] = (spec, {
            mode: [run_trial(spec, mode, seed) for seed in (spec.seed, spec.seed + 1)]
            for mode in (MODE_SOAR, MODE_NON_SOAR)
        })
    return out


@pytest.mark.parametrize("scene", SCENES)
def test_trajectory_csv_equals_csv_writer(trials, scene):
    _, by_mode = trials[scene]
    for results in by_mode.values():
        for result in results:
            assert render_trajectory_csv(result) == oracle_trajectory_csv(result)


def test_trajectories_cover_the_t0_row_and_inf_clearances(trials):
    # the cases csv.writer wrote as empty cells: the t=0 row and a decision with no avoidable obstacle
    _, by_mode = trials["open_field"]
    result = by_mode[MODE_SOAR][0]
    assert result.trajectory[0].decision is None
    assert any(t.decision is not None and t.min_clearance == math.inf for t in result.trajectory)
    assert render_trajectory_csv(result).splitlines()[1].endswith(",,,,")


@pytest.mark.parametrize("scene", SCENES)
def test_summary_csvs_equal_csv_writer(trials, scene):
    spec, by_mode = trials[scene]
    rows = {mode: [TrialRow(r.seed, r.travel_time, r.outcome) for r in results]
            for mode, results in by_mode.items()}
    for mode, mode_rows in rows.items():
        summary = summarize_mode(mode, mode_rows)
        assert render_mode_csv(summary) == oracle_mode_csv(summary)
    report = build_comparison(spec.name, rows[MODE_SOAR], rows[MODE_NON_SOAR])
    assert render_comparison_csv(report) == oracle_comparison_csv(report)

"""Batch/comparison reporting and trial artifact serialization.

All renderers are deterministic: no timestamps, fixed float formatting,
stable ordering by seed. Identical inputs produce byte-identical text.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import reduce
from typing import NamedTuple, Optional, Sequence

import yaml

from soar_sim.sim import MODE_NON_SOAR, MODE_SOAR, OUTCOME_GOAL, TrialResult


class TrialRow(NamedTuple):
    seed: int
    travel_time: float
    outcome: str


class ModeSummary(NamedTuple):
    mode: str
    rows: tuple[TrialRow, ...]
    mean_travel_time: Optional[float]
    success_count: int
    total: int


class ComparisonReport(NamedTuple):
    scenario_name: str
    soar: ModeSummary
    non_soar: ModeSummary
    relative_time_delta: Optional[float]  # percent, None unless both modes succeeded and soar's mean is not 0


def summarize_mode(mode: str, results: Sequence[TrialRow]) -> ModeSummary:
    """Aggregate trial rows in seed order; the mean covers goal_reached trials only, summed in that order as a
    left fold, unlike 3.12+ sum(), so any order of the same rows gives the same summary."""
    rows = tuple(sorted(results, key=lambda r: r.seed))
    times = [r.travel_time for r in rows if r.outcome == OUTCOME_GOAL]
    return ModeSummary(
        mode=mode,
        rows=rows,
        mean_travel_time=reduce(operator.add, times, 0.0) / len(times) if times else None,
        success_count=len(times),
        total=len(rows),
    )


def build_comparison(
    scenario_name: str,
    soar_results: Sequence[TrialRow],
    non_soar_results: Sequence[TrialRow],
) -> ComparisonReport:
    """Pair the two modes' rows by seed; a seed that has more rows in one mode than in the other is a ValueError."""
    soar = summarize_mode(MODE_SOAR, soar_results)
    non_soar = summarize_mode(MODE_NON_SOAR, non_soar_results)
    soar_seeds, non_soar_seeds = Counter(r.seed for r in soar.rows), Counter(r.seed for r in non_soar.rows)
    if soar_seeds != non_soar_seeds:
        seed = min((soar_seeds - non_soar_seeds) + (non_soar_seeds - soar_seeds))
        raise ValueError(f"seed {seed} is unpaired: {soar_seeds[seed]} soar row(s), {non_soar_seeds[seed]} non_soar")
    delta = None
    if soar.mean_travel_time is not None and non_soar.mean_travel_time is not None and soar.mean_travel_time != 0.0:
        delta = 100.0 * (non_soar.mean_travel_time - soar.mean_travel_time) / soar.mean_travel_time
    return ComparisonReport(
        scenario_name=scenario_name, soar=soar, non_soar=non_soar, relative_time_delta=delta
    )


def _mark(outcome: str) -> str:
    return "ok" if outcome == OUTCOME_GOAL else "X"


def render_mode_table(summary: ModeSummary, scenario_name: str) -> str:
    """Human-readable batch summary for one mode."""
    lines = [
        f"scenario: {scenario_name}  mode: {summary.mode}",
        f"{'seed':>6}  {'travel_time_s':>13}  {'goal':>4}  outcome",
    ]
    for row in summary.rows:
        lines.append(
            f"{row.seed:>6}  {row.travel_time:>13.3f}  {_mark(row.outcome):>4}  {row.outcome}"
        )
    mean = f"{summary.mean_travel_time:.3f}" if summary.mean_travel_time is not None else "n/a"
    lines.append(f"{'avg':>6}  {mean:>13}  success {summary.success_count}/{summary.total}")
    return "\n".join(lines) + "\n"


def render_comparison_table(report: ComparisonReport) -> str:
    """Paired per-seed table for both modes plus the Avg row."""
    lines = [
        f"scenario: {report.scenario_name}  (paired seeds, travel time in s)",
        f"{'seed':>6}  {'soar_time':>10} {'goal':>4}   {'non_soar_time':>13} {'goal':>4}",
    ]
    for s_row, n_row in zip(report.soar.rows, report.non_soar.rows):
        lines.append(
            f"{s_row.seed:>6}  {s_row.travel_time:>10.3f} {_mark(s_row.outcome):>4}   "
            f"{n_row.travel_time:>13.3f} {_mark(n_row.outcome):>4}"
        )
    s_mean = f"{report.soar.mean_travel_time:.3f}" if report.soar.mean_travel_time is not None else "n/a"
    n_mean = f"{report.non_soar.mean_travel_time:.3f}" if report.non_soar.mean_travel_time is not None else "n/a"
    lines.append(
        f"{'avg':>6}  {s_mean:>10} {report.soar.success_count:>2}/{report.soar.total}   "
        f"{n_mean:>13} {report.non_soar.success_count:>2}/{report.non_soar.total}"
    )
    if report.relative_time_delta is not None:
        lines.append(f"relative_time_delta: {report.relative_time_delta:+.1f}%")
    elif report.soar.mean_travel_time is None or report.non_soar.mean_travel_time is None:
        lines.append("relative_time_delta: n/a (needs at least one success per mode)")
    else:
        lines.append("relative_time_delta: n/a (soar mean travel time is 0)")
    return "\n".join(lines) + "\n"


def render_mode_csv(summary: ModeSummary) -> str:
    rows = [f"{row.seed},{summary.mode},{row.travel_time:.6f},{row.outcome}\n" for row in summary.rows]
    return "".join(["seed,mode,travel_time_s,outcome\n", *rows])


def render_comparison_csv(report: ComparisonReport) -> str:
    rows = [
        f"{s.seed},{s.travel_time:.6f},{s.outcome},{n.travel_time:.6f},{n.outcome}\n"
        for s, n in zip(report.soar.rows, report.non_soar.rows)
    ]
    return "".join(["seed,soar_travel_time_s,soar_outcome,non_soar_travel_time_s,non_soar_outcome\n", *rows])


def render_trajectory_csv(result: TrialResult) -> str:
    """One row per tick; the t=0 row has no steering decision, so its last four cells are empty."""
    # no cell holds a comma, quote or line break, so csv.writer quoted none: a row is one f-string
    lines = ["time_s,x,y,heading,speed,active_obstacle_id,c1,c2,min_clearance\n"]
    for time, position, heading, speed, decision, clearance in result.trajectory:
        if decision is None:
            lines.append(f"{time:.6f},{position.x!r},{position.y!r},{heading!r},{speed!r},,,,\n")
            continue
        active = "" if decision.active is None else decision.active.id
        lines.append(
            f"{time:.6f},{position.x!r},{position.y!r},{heading!r},{speed!r},{active},"
            f"{decision.c1!r},{decision.c2!r},{'' if clearance == math.inf else repr(clearance)}\n"
        )
    return "".join(lines)


def _mode_doc(summary: ModeSummary) -> dict:
    return {
        "rows": [
            {"seed": r.seed, "travel_time_s": round(r.travel_time, 6), "outcome": r.outcome}
            for r in summary.rows
        ],
        "mean_travel_time_s": None if summary.mean_travel_time is None
        else round(summary.mean_travel_time, 6),
        "success_count": summary.success_count,
        "total": summary.total,
    }


def render_mode_yaml(summary: ModeSummary, scenario_name: str) -> str:
    doc = {"scenario": scenario_name, "mode": summary.mode, **_mode_doc(summary)}
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def render_comparison_yaml(report: ComparisonReport) -> str:
    doc = {
        "scenario": report.scenario_name,
        "soar": _mode_doc(report.soar),
        "non_soar": _mode_doc(report.non_soar),
        "relative_time_delta_pct": None if report.relative_time_delta is None
        else round(report.relative_time_delta, 3),
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def render_trial_summary(result: TrialResult, scenario_name: str) -> str:
    """Structured (YAML) TrialResult summary."""
    doc = {
        "scenario": scenario_name,
        "mode": result.mode,
        "seed": result.seed,
        "outcome": result.outcome,
        "travel_time_s": round(result.travel_time, 6),
        "path_length_m": round(result.path_length, 6),
        "ticks": len(result.trajectory) - 1,
        "min_clearance_by_class": {
            label: round(value, 6)
            for label, value in sorted(result.min_clearance_by_class.items())
        },
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)

from __future__ import annotations

import csv
import io
import itertools
import re

import pytest

from soar_sim.report import (
    TrialRow,
    build_comparison,
    render_comparison_csv,
    render_comparison_table,
    render_mode_csv,
    render_mode_table,
    render_trajectory_csv,
    render_trial_summary,
    summarize_mode,
)
from soar_sim.sim import MODE_SOAR, run_trial


class TestSummaries:
    def test_mean_covers_successes_only(self):
        results = [
            TrialRow(1, 10.0, "goal_reached"),
            TrialRow(2, 99.0, "timeout"),
            TrialRow(3, 20.0, "goal_reached"),
        ]
        summary = summarize_mode(MODE_SOAR, results)
        assert summary.mean_travel_time == pytest.approx(15.0)
        assert summary.success_count == 2
        assert summary.total == 3

    def test_rows_sorted_by_seed(self):
        summary = summarize_mode(MODE_SOAR, [TrialRow(5, 1.0, "goal_reached"),
                                             TrialRow(2, 2.0, "goal_reached")])
        assert [r.seed for r in summary.rows] == [2, 5]

    def test_any_order_of_the_rows_gives_the_same_summary(self):
        # summed in the given order, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 round to different means
        rows = [TrialRow(seed, time, "goal_reached") for seed, time in ((1, 0.1), (2, 0.2), (3, 0.3))]
        summaries = {summarize_mode(MODE_SOAR, order) for order in itertools.permutations(rows)}
        assert len(summaries) == 1
        assert summaries.pop().mean_travel_time == (0.1 + 0.2 + 0.3) / 3

    def test_delta_requires_success_in_both_modes(self):
        soar = [TrialRow(1, 10.0, "goal_reached")]
        failed = [TrialRow(1, 50.0, "stuck")]
        report = build_comparison("x", soar, failed)
        assert report.relative_time_delta is None

    def test_zero_mean_is_a_success(self):
        # a 0.0 mean is a mode that succeeded at t=0; only a soar mean of 0 leaves the percentage undefined
        at_goal = [TrialRow(1, 0.0, "goal_reached")]
        assert build_comparison("x", [TrialRow(1, 10.0, "goal_reached")], at_goal).relative_time_delta == -100.0
        report = build_comparison("x", at_goal, at_goal)
        assert report.relative_time_delta is None
        assert render_comparison_table(report).endswith("relative_time_delta: n/a (soar mean travel time is 0)\n")

    @pytest.mark.parametrize("soar_seeds, non_soar_seeds, unpaired",
                             [([1, 2], [2, 3], 1), ([1, 2, 3], [1, 3], 2), ([4], [4, 4], 4), ([5], [], 5)])
    def test_unpaired_seed_is_rejected(self, soar_seeds, non_soar_seeds, unpaired):
        # rows paired by position would put one seed's run on another seed's row of the paired table
        soar = [TrialRow(seed, 10.0, "goal_reached") for seed in soar_seeds]
        non_soar = [TrialRow(seed, 12.0, "stuck") for seed in non_soar_seeds]
        with pytest.raises(ValueError, match=rf"^seed {unpaired} is unpaired"):
            build_comparison("x", soar, non_soar)

    def test_delta_value(self):
        soar = [TrialRow(1, 10.0, "goal_reached")]
        non_soar = [TrialRow(1, 11.4, "goal_reached")]
        report = build_comparison("x", soar, non_soar)
        assert report.relative_time_delta == pytest.approx(14.0)


class TestRenderers:
    def build_report(self):
        soar = [TrialRow(s, 10.0 + s, "goal_reached") for s in range(3)]
        non_soar = [TrialRow(s, 13.0 + s, "goal_reached") for s in range(3)]
        return build_comparison("demo", soar, non_soar)

    def test_avg_row_recomputable_by_external_checker(self):
        report = self.build_report()
        table = render_comparison_table(report)
        avg_line = next(line for line in table.splitlines() if line.strip().startswith("avg"))
        printed = [float(v) for v in re.findall(r"\d+\.\d{3}", avg_line)]
        soar_mean = sum(10.0 + s for s in range(3)) / 3
        non_mean = sum(13.0 + s for s in range(3)) / 3
        assert printed[0] == pytest.approx(soar_mean, abs=5e-4)
        assert printed[1] == pytest.approx(non_mean, abs=5e-4)

    def test_tables_are_deterministic(self):
        report = self.build_report()
        assert render_comparison_table(report) == render_comparison_table(report)
        assert render_comparison_csv(report) == render_comparison_csv(report)
        summary = report.soar
        assert render_mode_table(summary, "demo") == render_mode_table(summary, "demo")
        assert render_mode_csv(summary) == render_mode_csv(summary)

    def test_comparison_csv_parses(self):
        report = self.build_report()
        rows = list(csv.DictReader(io.StringIO(render_comparison_csv(report))))
        assert len(rows) == 3
        assert rows[0]["soar_outcome"] == "goal_reached"
        assert float(rows[2]["non_soar_travel_time_s"]) == pytest.approx(15.0)


class TestTrialArtifacts:
    def test_trajectory_csv_shape(self, open_field):
        result = run_trial(open_field, MODE_SOAR, seed=3)
        text = render_trajectory_csv(result)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(result.trajectory)
        assert rows[0]["time_s"] == "0.000000"
        assert rows[1]["c1"] != ""
        xs = [float(r["x"]) for r in rows]
        assert xs[-1] == pytest.approx(result.trajectory[-1].position.x, rel=1e-12)

    def test_trial_summary_is_yaml_and_deterministic(self, open_field):
        result = run_trial(open_field, MODE_SOAR, seed=3)
        a = render_trial_summary(result, open_field.name)
        b = render_trial_summary(result, open_field.name)
        assert a == b
        import yaml

        doc = yaml.safe_load(a)
        assert doc["outcome"] == "goal_reached"
        assert doc["mode"] == MODE_SOAR
        assert doc["seed"] == 3

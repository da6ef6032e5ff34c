from __future__ import annotations

import importlib
import inspect
import math
import re
import shlex
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from soar_sim import cli, report
from soar_sim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from soar_sim.report import TrialRow
from soar_sim.scenario_io import load_scenario_file, serialize_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
OPEN_FIELD = str(SCENARIOS / "open_field.yaml")
TRANSPARENCY = str(SCENARIOS / "transparency.yaml")
PARKING_LOT = str(SCENARIOS / "parking_lot.yaml")
HEAD_ON = str(SCENARIOS / "head_on.yaml")


class TestValidate:
    def test_ok_scenario(self, capsys):
        assert main(["validate", "--scenario", str(SCENARIOS / "parking_lot.yaml")]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "OK"

    def test_negative_radius_exit_code_and_message(self, tmp_path, capsys):
        doc = (SCENARIOS / "transparency.yaml").read_text().replace("radius: 0.25", "radius: -1", 1)
        bad = tmp_path / "bad.yaml"
        bad.write_text(doc)
        assert main(["validate", "--scenario", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "radius" in err

    def test_missing_format_version(self, tmp_path, capsys):
        doc = "\n".join(
            line for line in (SCENARIOS / "open_field.yaml").read_text().splitlines()
            if not line.startswith("format_version")
        )
        bad = tmp_path / "no_version.yaml"
        bad.write_text(doc)
        assert main(["validate", "--scenario", str(bad)]) == EXIT_VALIDATION
        assert "format_version" in capsys.readouterr().err

    def test_unreadable_path(self, capsys):
        assert main(["validate", "--scenario", "/nonexistent/nope.yaml"]) == EXIT_RUNTIME

    @pytest.mark.parametrize("document, message", [
        (b"format_version: 1\nstart:\n\t- 1\n", "malformed document at line 3, column 1: "),
        (b"format_version: [1, 2\n", "malformed document at line 2, column 1: "),
        (b"format_version: 1\nname: a\0b\n", "malformed document: unacceptable character #x0000: "),
        (b"format_version: 1\nname: \xed\xa0\x80\n", "malformed document: unacceptable character #x"),
        (b"[" * 10**4 + b"]" * 10**4, "malformed document: nested too deeply"),
    ], ids=["tab", "unclosed_bracket", "nul", "lone_surrogate", "depth_1e4"])
    def test_malformed_document_is_one_line(self, tmp_path, capsys, document, message):
        # the parser's own text spans up to five lines; only its position and problem are kept
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(document)
        assert main(["validate", "--scenario", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"INVALID: scenario: {message}")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestRunRejectsUnboundedScenario:
    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("time_limit_s: 120.0", "time_limit_s: 1.0e+308", "scenario.time_limit_s"),
            ("  dt: 0.02", "  dt: 1.0e-300", "scenario.time_limit_s"),
            ("  heading: 0.0", "  heading: 1.0e+9", "scenario.start.heading"),
            # a degenerate rig: every detection would be dropped or placed on the camera
            ("  focal_px: 400.0\n  baseline_m: 0.12", "  focal_px: 1.0e-200\n  baseline_m: 1.0e-200",
             "scenario.sensor.baseline_m"),
            ("  baseline_m: 0.12", "  baseline_m: 1.0e-310", "scenario.sensor.baseline_m"),
        ],
        ids=["time_limit_1e308", "dt_1e-300", "heading_1e9", "focal_baseline_1e-200", "baseline_1e-310"],
    )
    def test_exit_1_with_one_invalid_line(self, tmp_path, capsys, old, new, field):
        doc = (SCENARIOS / "single_block.yaml").read_text()
        assert old in doc
        bad = tmp_path / "bad.yaml"
        bad.write_text(doc.replace(old, new, 1))
        rc = main(["run", "--scenario", str(bad), "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"INVALID: {field}:") and err.count("\n") == 1


class TestRun:
    def test_writes_artifacts_and_summary(self, tmp_path, capsys):
        rc = main(["run", "--scenario", OPEN_FIELD, "--mode", "soar",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "outcome: goal_reached" in out
        assert (tmp_path / "open_field_soar_seed3.traj.csv").exists()
        assert (tmp_path / "open_field_soar_seed3.result.yaml").exists()

    def test_out_is_existing_file_is_runtime_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["run", "--scenario", OPEN_FIELD, "--seed", "3", "--out", str(taken)])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", [["--format", "delimited"], ["--jobs", "2"]])
    def test_batch_options_are_usage_errors(self, tmp_path, capsys, option):
        # one trial has no summary to format and nothing to run in parallel
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", OPEN_FIELD, *option, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_RUNTIME
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestBatch:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["batch", "--scenario", OPEN_FIELD, "--mode", "soar",
                       "--trials", "2", "--seed", "3", "--out", str(out)])
            assert rc == EXIT_OK
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_delimited_format(self, tmp_path, capsys):
        rc = main(["batch", "--scenario", OPEN_FIELD, "--mode", "soar", "--trials", "1",
                   "--seed", "3", "--out", str(tmp_path), "--format", "delimited"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("seed,mode,travel_time_s,outcome")

    def test_structured_format(self, tmp_path, capsys):
        rc = main(["batch", "--scenario", OPEN_FIELD, "--mode", "soar", "--trials", "1",
                   "--seed", "3", "--out", str(tmp_path), "--format", "structured"])
        assert rc == EXIT_OK
        import yaml

        doc = yaml.safe_load(capsys.readouterr().out)
        assert doc["scenario"] == "open_field"
        assert doc["success_count"] == 1

    def test_trials_must_be_positive(self, tmp_path, capsys):
        rc = main(["batch", "--scenario", OPEN_FIELD, "--trials", "0", "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME

    @pytest.mark.parametrize("command", ["batch", "compare"])
    def test_trials_capped(self, tmp_path, capsys, monkeypatch, command):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "_run_one", no_trial)
        rc = main([command, "--scenario", OPEN_FIELD, "--trials", str(cli.MAX_TRIALS + 1),
                   "--out", str(tmp_path)])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == f"ERROR: --trials must be <= {cli.MAX_TRIALS}\n"
        assert not any(tmp_path.iterdir())

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        for jobs in ("0", "-2"):
            rc = main(["batch", "--scenario", OPEN_FIELD, "--trials", "1", "--jobs", jobs,
                       "--out", str(tmp_path)])
            assert rc == EXIT_RUNTIME
            assert capsys.readouterr().err == "ERROR: --jobs must be >= 1\n"
        assert not any(tmp_path.iterdir())

    def test_non_soar_mode_spelling(self, tmp_path):
        rc = main(["batch", "--scenario", OPEN_FIELD, "--mode", "non-soar",
                   "--trials", "1", "--seed", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "open_field_non_soar_seed3.traj.csv").exists()


class TestCompare:
    def test_obstacle_free_delta_is_zero(self, tmp_path, capsys):
        rc = main(["compare", "--scenario", OPEN_FIELD, "--trials", "2",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "relative_time_delta: +0.0%" in out
        assert (tmp_path / "open_field_compare.txt").exists()
        assert (tmp_path / "open_field_compare.csv").exists()

    def test_start_at_goal_blames_the_zero_mean(self, tmp_path, capsys):
        # both modes reach the goal at t=0: 2/2 successes each, so the n/a is not for want of one
        spec = load_scenario_file(OPEN_FIELD)
        scenario = tmp_path / "at_goal.yaml"
        scenario.write_text(serialize_scenario(replace(spec, start_pose=(spec.goal, spec.start_pose[1]))))
        for fmt in ("table", "structured"):
            rc = main(["compare", "--scenario", str(scenario), "--trials", "2", "--out", str(tmp_path / "out"),
                       "--format", fmt])
            assert rc == EXIT_OK
            printed = capsys.readouterr().out
            if fmt == "table":
                assert printed.splitlines()[-2:] == [
                    "   avg       0.000  2/2           0.000  2/2",
                    "relative_time_delta: n/a (soar mean travel time is 0)",
                ]
            else:
                assert yaml.safe_load(printed)["relative_time_delta_pct"] is None

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        # with --jobs 2 each worker writes its own trial's artifacts; --jobs 500 starts at most
        # the CPU count of workers
        for command in (["batch", "--mode", "non-soar"], ["compare"]):
            outputs = {}
            for jobs in ("1", "2", "500"):
                out = tmp_path / f"{command[0]}_jobs{jobs}"
                rc = main([*command, "--scenario", PARKING_LOT, "--trials", "2", "--seed", "3",
                           "--out", str(out), "--jobs", jobs])
                assert rc == EXIT_OK
                outputs[jobs] = out, capsys.readouterr().out
            serial, serial_stdout = outputs["1"]
            names = sorted(p.name for p in serial.iterdir())
            for parallel, parallel_stdout in (outputs["2"], outputs["500"]):
                assert names == sorted(p.name for p in parallel.iterdir())
                for name in names:
                    assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name
                assert serial_stdout == parallel_stdout

    def test_worker_failure_stops_the_batch_early(self, tmp_path, capsys):
        # a failed map result cancels the pool's pending trials: the 39 others do not all run
        (tmp_path / "parking_lot_soar_seed42.traj.csv").mkdir()
        rc = main(["compare", "--scenario", PARKING_LOT, "--trials", "20", "--seed", "42",
                   "--out", str(tmp_path), "--jobs", "2"])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and err.count("\n") == 1
        written = [p for p in tmp_path.glob("*.traj.csv") if p.is_file()]
        assert len(written) <= 15
        assert not list(tmp_path.glob("*_compare.*"))

    def test_parallel_out_is_existing_file_is_runtime_error(self, tmp_path, capsys):
        # the OSError is raised in a pool worker and re-raised in the parent
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["compare", "--scenario", OPEN_FIELD, "--trials", "1", "--seed", "3",
                   "--out", str(taken), "--jobs", "2"])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["batch", "compare"])
def test_each_format_prints_what_it_publishes(tmp_path, capsys, command):
    # table and delimited print the bytes of the .txt and .csv written, structured the YAML document
    # render_*_yaml gives for the same rows; the .txt/.csv pair does not depend on --format
    spec = load_scenario_file(HEAD_ON)
    modes = ["non_soar"] if command == "batch" else ["soar", "non_soar"]
    stem = "head_on_non_soar_summary" if command == "batch" else "head_on_compare"
    printed, pairs = {}, {}
    for fmt in ("table", "delimited", "structured"):
        out = tmp_path / fmt
        argv = [command, *(["--mode", "non-soar"] if command == "batch" else []), "--scenario", HEAD_ON,
                "--trials", "2", "--seed", "42", "--out", str(out), "--format", fmt]
        assert main(argv) == EXIT_OK
        printed[fmt] = capsys.readouterr().out
        pairs[fmt] = tuple((out / f"{stem}.{ext}").read_bytes() for ext in ("txt", "csv"))
    assert pairs["table"] == pairs["delimited"] == pairs["structured"]
    txt, csv = pairs["table"]
    assert (printed["table"].encode(), printed["delimited"].encode()) == (txt, csv)
    # one task per seed carries every mode; its rows are in mode order
    rows = [list(mode_rows) for mode_rows in zip(*(cli._run_one((spec, modes, seed, tmp_path / "rows"))
                                                   for seed in (42, 43)))]
    if command == "batch":
        document = report.render_mode_yaml(report.summarize_mode("non_soar", rows[0]), "head_on")
    else:
        document = report.render_comparison_yaml(report.build_comparison("head_on", *rows))
    assert printed["structured"] == document


class PoolRecorder:
    """ProcessPoolExecutor stand-in: records each pool's max_workers and map chunksize, and maps in this process."""

    def __init__(self, sizes, max_workers, chunksizes=None):
        sizes.append(max_workers)
        self.chunksizes = [] if chunksizes is None else chunksizes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.chunksizes.append(chunksize)
        return [fn(task) for task in tasks]


def made_up_rows(task):
    """_run_one's rows for a (spec, modes, seed, out) task without running a trial: mode k's row has travel time k."""
    _, modes, seed, _ = task
    return [TrialRow(seed, float(k), "goal_reached") for k in range(len(modes))]


def assert_rows_per_mode(rows, trials):
    # one row list per mode, in seed order from base seed 7
    assert [[(row.seed, row.travel_time) for row in mode_rows] for mode_rows in rows] == [
        [(seed, float(k)) for seed in range(7, 7 + trials)] for k in range(2)]


@pytest.mark.parametrize("cpus, jobs, trials, pool", [
    (2, 500, 500, 2),
    (64, 500, 500, 64),
    (64, 3, 500, 3),
    (64, 500, 2, 2),  # one task per seed, carrying both modes
    (1, 500, 500, None),
    (None, 500, 500, None),  # an unknown CPU count is one
])
def test_jobs_capped_at_cpu_count(tmp_path, monkeypatch, cpus, jobs, trials, pool):
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: PoolRecorder(sizes, max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_run_one", made_up_rows)
    spec = load_scenario_file(OPEN_FIELD)
    rows = cli._run_batch(spec, ["soar", "non_soar"], trials, 7, jobs, tmp_path)
    assert sizes == ([] if pool is None else [pool])
    assert_rows_per_mode(rows, trials)


def test_large_batch_submits_few_chunks(tmp_path, monkeypatch):
    # map submits every chunk at once: 2 * 10^5 tasks must not become 2 * 10^5 pending futures
    sizes, chunksizes = [], []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: PoolRecorder(sizes, max_workers, chunksizes))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_run_one", made_up_rows)
    trials = 100_000
    rows = cli._run_batch(load_scenario_file(OPEN_FIELD), ["soar", "non_soar"], trials, 7, 2, tmp_path)
    [workers], [chunksize] = sizes, chunksizes
    assert math.ceil(trials / chunksize) <= 64 * workers  # one task per seed
    assert_rows_per_mode(rows, trials)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["batch", "compare"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, command, jobs):
    # numpy's SeedSequence rejects negative seeds with a traceback
    rc = main([command, "--scenario", OPEN_FIELD, "--seed", "-1", "--jobs", jobs, "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == "ERROR: --seed must be >= 0\n"
    assert not any(tmp_path.iterdir())


def test_run_negative_seed_is_one_error_line(tmp_path, capsys):
    rc = main(["run", "--scenario", OPEN_FIELD, "--seed", "-1", "--out", str(tmp_path)])
    assert rc == EXIT_RUNTIME
    assert capsys.readouterr().err == "ERROR: --seed must be >= 0\n"
    assert not any(tmp_path.iterdir())


class TestPlot:
    def make_traj(self, tmp_path: Path) -> Path:
        rc = main(["run", "--scenario", TRANSPARENCY, "--mode", "soar",
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        return tmp_path / "transparency_soar_seed5.traj.csv"

    def test_svg_written(self, tmp_path, capsys):
        traj = self.make_traj(tmp_path)
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--scenario", TRANSPARENCY, "--out", str(out), str(traj)])
        assert rc == EXIT_OK
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "sports_ball#1" in svg

    @pytest.mark.parametrize(
        "text",
        [
            "time_s,x,y,heading,speed,active_obstacle_id,c1,c2,min_clearance\n",
            "time_s,x\n0.0,1.0\n",
            "x,y\n1.0\n",
            "x,y\nnan,inf\n",
            "x,y\n" + "1" * 200_000 + ",2\n",
            b"\xff\xfe\x00bad",
        ],
        ids=["header_only", "no_y_column", "short_row", "non_finite", "oversized_cell", "undecodable"],
    )
    def test_empty_trajectory_is_error_without_output(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.traj.csv"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--scenario", TRANSPARENCY, "--out", str(out), str(bad)])
        assert rc == EXIT_RUNTIME
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR: {bad}: ") and err.count("\n") == 1

    def test_soar_and_non_soar_overlay_legend(self, tmp_path):
        traj = self.make_traj(tmp_path)
        rc = main(["run", "--scenario", TRANSPARENCY, "--mode", "non-soar",
                   "--seed", "5", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        other = tmp_path / "transparency_non_soar_seed5.traj.csv"
        out = tmp_path / "overlay.svg"
        rc = main(["plot", "--scenario", TRANSPARENCY, "--out", str(out), str(traj), str(other)])
        assert rc == EXIT_OK
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert ">soar</text>" in svg
        assert ">non_soar</text>" in svg

    def test_mode_label_read_from_the_file_name_suffix(self, tmp_path):
        # a scenario name holding a mode word must not give both lines one label and colour
        doc = (SCENARIOS / "transparency.yaml").read_text()
        scenario = tmp_path / "lab.yaml"
        scenario.write_text(doc.replace("name: transparency", "name: non_soar_lab"))
        for mode in ("soar", "non_soar"):
            rc = main(["run", "--scenario", str(scenario), "--mode", mode, "--out", str(tmp_path)])
            assert rc == EXIT_OK
        out = tmp_path / "lab.svg"
        rc = main(["plot", "--scenario", str(scenario), "--out", str(out),
                   str(tmp_path / "non_soar_lab_soar_seed42.traj.csv"),
                   str(tmp_path / "non_soar_lab_non_soar_seed42.traj.csv")])
        assert rc == EXIT_OK
        svg = out.read_text()
        assert ">soar</text>" in svg
        assert ">non_soar</text>" in svg

    @pytest.mark.parametrize("path, label", [
        ("out/non_soar_lab_soar_seed42.traj.csv", "soar"),
        ("out/soar_lab_non_soar_seed0.traj.csv", "non_soar"),
        ("out/non-soar_run.traj.csv", "non-soar_run.traj"),
        ("out/lab_soar_seed.traj.csv", "lab_soar_seed.traj"),
    ])
    def test_label_for(self, path, label):
        assert cli._label_for(path) == label

    def test_markup_in_names_gives_well_formed_svg(self, tmp_path):
        traj = self.make_traj(tmp_path)
        odd = tmp_path / "a<b&c\x01.traj.csv"  # the trajectory label is the file's stem
        odd.write_bytes(traj.read_bytes())
        doc = (SCENARIOS / "transparency.yaml").read_text()
        doc = doc.replace("name: transparency", 'name: "block--<1>-"')
        doc = doc.replace("sports_ball", '"rock & <roll>\\x02"')
        scenario = tmp_path / "odd.yaml"
        scenario.write_text(doc)
        out = tmp_path / "odd.svg"
        assert main(["plot", "--scenario", str(scenario), "--out", str(out), str(odd)]) == EXIT_OK
        root = ET.fromstring(out.read_bytes())  # raises ParseError on malformed XML
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "rock & <roll>\ufffd#1" in texts
        assert "a<b&c\ufffd.traj" in texts


def readme_commands() -> list[list[str]]:
    """The argument lists of the soar-sim commands in README.md's "Command line" block."""
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert commands and all(command[0] == "soar-sim" for command in commands)
    return [command[1:] for command in commands]


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # a flag the README shows but the parser lost would exit 2 here
    (tmp_path / "scenarios").symlink_to(SCENARIOS)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [command[0] for command in commands] == ["validate", "run", "batch", "compare", "plot"]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv


def readme_library_rows() -> list[tuple[list[str], str]]:
    """(module names, contents) of each row of README.md's "Library surface" table."""
    section = (REPO / "README.md").read_text().split("## Library surface", 1)[1]
    rows = [line.split(" | ", 1) for line in section.split("\n\n", 2)[1].splitlines()[2:]]
    return [(re.findall(r"`([\w.]+)`", modules), contents) for modules, contents in rows]


def test_readme_library_surface_matches_signatures():
    # each `name(params)` the table shows must be its row module's signature: names, order, defaults
    checked = []
    for module_names, contents in readme_library_rows():
        modules = [importlib.import_module(name) for name in module_names]
        for name, params in re.findall(r"`(\w+)\(([^`]*)\)`", contents):
            [owner] = [module for module in modules if hasattr(module, name)]
            signature = inspect.signature(getattr(owner, name)).parameters.values()
            actual = ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in signature)
            assert params == actual, name
            checked.append(name)
    assert {"ObstacleInstance", "nearest_effective_obstacle", "steering_direction", "SteeringDecision", "sense",
            "fuse", "step"} <= set(checked)

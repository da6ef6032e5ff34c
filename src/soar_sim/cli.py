"""Command-line front end.

Sub-commands: validate | run | batch | compare | plot. Exit codes: 0
success, 1 scenario validation failure, 2 runtime failure. batch and
compare run one task per seed, on up to --jobs workers (at most the CPU
count): the seed's trial in each mode, compare's pair through run_trials.
The worker writes each trial's *.traj.csv and *.result.yaml; only
(seed, travel_time, outcome) rows return to the parent, which writes the
summaries in seed order once every task has finished, so every file
is byte-identical to a serial run. On exit 2, --out may already hold the
artifacts of the trials that finished. Each command imports only what it
runs: the process pool's modules load only when --jobs gives a batch more
than one worker, and the SVG plotter and csv reader only for plot.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from soar_sim import report as report_mod
from soar_sim.scenario_io import ScenarioError, ScenarioSpec, load_scenario_file
from soar_sim.sim import MODE_NON_SOAR, MODE_SOAR, TrialResult, run_trial, run_trials
from soar_sim.world import Vec2

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# --trials cap: the task list is built up front; the same 10^6 that bounds a trial's ticks
MAX_TRIALS = 1_000_000
# the end of the trajectory file name _emit_trial writes; group 1 is the mode
_TRAJECTORY_SUFFIX = re.compile(rf"_({MODE_SOAR}|{MODE_NON_SOAR})_seed\d+\.traj\.csv\Z")


def _canonical_mode(mode: str) -> str:
    return MODE_NON_SOAR if mode in ("non-soar", "non_soar") else MODE_SOAR


def _run_one(task: tuple[ScenarioSpec, Sequence[str], int, Path]) -> list[report_mod.TrialRow]:
    """Run one seed's trial in each mode and write their artifacts here, in the worker; only their rows go back."""
    spec, modes, seed, out = task
    results = run_trials(spec, modes, seed)
    for result in results:
        _emit_trial(spec, result, out)
    return [report_mod.TrialRow(result.seed, result.travel_time, result.outcome) for result in results]


def _run_batch(
    spec: ScenarioSpec, modes: Sequence[str], trials: int, base_seed: int, jobs: int, out: Path
) -> list[list[report_mod.TrialRow]]:
    """Every mode on seeds base_seed.. through one pool, one task per seed; one seed-ordered row list per mode."""
    tasks = [(spec, modes, base_seed + i, out) for i in range(trials)]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        rows = [_run_one(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_start_method
        # map yields in task order, which is seed order; it submits every chunk at once,
        # so at most 64 chunks per worker keep a 10^6-seed batch's futures few
        chunksize = math.ceil(len(tasks) / (64 * workers))
        if get_start_method() == "fork":  # workers inherit numpy, not numpy.random, which numpy 2 loads lazily
            import numpy  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, tasks, chunksize=chunksize))
    return [list(mode_rows) for mode_rows in zip(*rows)]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _emit_trial(spec: ScenarioSpec, result: TrialResult, out: Path) -> str:
    """Write one trial's trajectory and summary; returns the summary text."""
    stem = f"{spec.name}_{result.mode}_seed{result.seed}"
    summary = report_mod.render_trial_summary(result, spec.name)
    _write(out / f"{stem}.traj.csv", report_mod.render_trajectory_csv(result))
    _write(out / f"{stem}.result.yaml", summary)
    return summary


class CliError(Exception):
    """CLI failure carrying the process exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_or_fail(path: str) -> ScenarioSpec:
    try:
        return load_scenario_file(path)
    except ScenarioError as exc:
        raise CliError(f"INVALID: {exc}", EXIT_VALIDATION) from exc
    except OSError as exc:
        raise CliError(f"ERROR: cannot read {path}: {exc}", EXIT_RUNTIME) from exc


def cmd_validate(args: argparse.Namespace) -> int:
    _load_or_fail(args.scenario)
    print("OK")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    spec = _load_or_fail(args.scenario)
    mode = _canonical_mode(args.mode)
    result = run_trial(spec, mode, args.seed)
    sys.stdout.write(_emit_trial(spec, result, Path(args.out)))
    return EXIT_OK


def _publish(fmt: str, out: Path, stem: str, table: str, delimited: str, structured: Callable[[], str]) -> int:
    """Write a summary's stem.txt and stem.csv, then print what --format asks for; only structured renders YAML."""
    _write(out / f"{stem}.txt", table)
    _write(out / f"{stem}.csv", delimited)
    sys.stdout.write(table if fmt == "table" else delimited if fmt == "delimited" else structured())
    return EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    spec = _load_or_fail(args.scenario)
    mode = _canonical_mode(args.mode)
    out = Path(args.out)
    [rows] = _run_batch(spec, [mode], args.trials, args.seed, args.jobs, out)
    summary = report_mod.summarize_mode(mode, rows)
    return _publish(args.format, out, f"{spec.name}_{mode}_summary", report_mod.render_mode_table(summary, spec.name),
                    report_mod.render_mode_csv(summary), lambda: report_mod.render_mode_yaml(summary, spec.name))


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _load_or_fail(args.scenario)
    out = Path(args.out)
    soar_rows, non_soar_rows = _run_batch(spec, [MODE_SOAR, MODE_NON_SOAR], args.trials,
                                          args.seed, args.jobs, out)
    rep = report_mod.build_comparison(spec.name, soar_rows, non_soar_rows)
    return _publish(args.format, out, f"{spec.name}_compare", report_mod.render_comparison_table(rep),
                    report_mod.render_comparison_csv(rep), lambda: report_mod.render_comparison_yaml(rep))


def _read_trajectory(path: str) -> list[Vec2]:
    import csv

    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"x", "y"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: not a trajectory table (missing x/y columns)")
        for row in reader:
            try:
                # a short row leaves its missing cells None
                point = Vec2(float(row["x"]), float(row["y"]))
            except (TypeError, ValueError):
                point = None
            if point is None or not point.is_finite():
                raise ValueError(f"{path}: line {reader.line_num}: x and y must be finite numbers")
            points.append(point)
    if not points:
        raise ValueError(f"{path}: empty trajectory")
    return points


def _label_for(path: str) -> str:
    """The mode of a trajectory file named as _emit_trial names it, else the file's stem."""
    match = _TRAJECTORY_SUFFIX.search(Path(path).name)
    return match.group(1) if match else Path(path).stem


def cmd_plot(args: argparse.Namespace) -> int:
    import csv

    from soar_sim.svg_plot import render_svg

    spec = _load_or_fail(args.scenario)
    trajectories = []
    for path in args.trajectories:
        try:
            trajectories.append((_label_for(path), _read_trajectory(path)))
        # undecodable bytes, or a cell over the csv module's field size limit: exc names no file
        except (UnicodeDecodeError, csv.Error) as exc:
            raise CliError(f"ERROR: {path}: {exc}", EXIT_RUNTIME) from exc
        except (OSError, ValueError) as exc:
            raise CliError(f"ERROR: {exc}", EXIT_RUNTIME) from exc
    out = Path(args.out)
    _write(out, render_svg(spec, trajectories))
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soar-sim",
        description="Deterministic 2D navigation trials with per-class obstacle clearances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("--scenario", required=True, help="scenario YAML path")
    p_validate.set_defaults(func=cmd_validate)

    def common(p: argparse.ArgumentParser, with_mode: bool = True) -> None:
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        if with_mode:
            p.add_argument("--mode", choices=["soar", "non-soar", "non_soar"], default="soar")
        p.add_argument("--seed", type=int, default=42, help="base seed")
        p.add_argument("--out", default="out", help="artifact output directory")

    def trials(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--format", choices=["table", "delimited", "structured"], default="table")
        p.add_argument("--jobs", type=int, default=1, help="parallel trial workers, at most the CPU count")

    p_run = sub.add_parser("run", help="run a single trial")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="run N seeded trials in one mode")
    common(p_batch)
    trials(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_compare = sub.add_parser("compare", help="run both modes on identical seeds")
    common(p_compare, with_mode=False)
    trials(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plot", help="render trajectories over the world as SVG")
    p_plot.add_argument("--scenario", required=True, help="scenario YAML path")
    p_plot.add_argument("--out", default="out/plot.svg", help="output SVG path")
    p_plot.add_argument("trajectories", nargs="+", help="trajectory CSV files")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for option, least in (("trials", 1), ("jobs", 1), ("seed", 0)):
        if getattr(args, option, least) < least:
            print(f"ERROR: --{option} must be >= {least}", file=sys.stderr)
            return EXIT_RUNTIME
    if getattr(args, "trials", 1) > MAX_TRIALS:
        print(f"ERROR: --trials must be <= {MAX_TRIALS}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

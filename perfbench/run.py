#!/usr/bin/env python3
"""Trial-throughput benchmark for soar-sim.

Run from the repository root:

    python3 perfbench/run.py --workload arch_compare --seed 42 --seconds 30 --trace 0

Workloads, metric names and units come from BENCHMARK.json; how each
workload is built, the outcome table and the recorded output digests come
from perfbench/workloads.json. The program is imported from ./src, so no
install step is needed.

--trace 0 measures the end-to-end metrics with no wrappers installed. Its
times are scaled to a reference host speed, measured by the fixed load in
calib.py between units of work; the measured ones are printed as unscaled.
--trace 1 is a separate run: each iteration runs the workload's own path
untraced, then a traced in-process pass and a traced cli compare (pool of
POOL_JOBS workers) over the same seeds, and reports per-layer self times, shares and counts plus the
tracing overhead. Spans inside cli pool workers are not collected.

Outputs are checked on every run: every trial output must be byte-identical
between reps and between the in-process and cli paths; at the default seed
the first round must match its recorded digest and the outcome table.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Details and the run context go to .perfbench/results/, spans to
.perfbench/spans/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml
from calib import HostSpeed
from spans import Tracer, cli_hooks, installed, sim_hooks

YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
MODES = ("soar", "non_soar")
SETUP_PROBES = 9
# Every cli pass uses a pool of nproc workers of the 2-CPU machine the
# workloads were sized on; the context records the nproc of each run.
POOL_JOBS = 2
OUTCOMES = ("goal_reached", "collision", "stuck", "timeout", "wrong_direction")
IN_TRIAL_LAYERS = ("perception.sense", "perception.fuse", "world.position_at",
                   "world.nearest_effective_obstacle", "steering.steering_direction", "sim.step",
                   "sim.detect_termination", "sim.run_trial")

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import importlib
for name in sys.argv[2].split(","):
    importlib.import_module(name)
from soar_sim.scenario_io import load_scenario_file
for path in sys.argv[3:]:
    load_scenario_file(path)
print(repr(time.perf_counter() - t0))
"""


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str
    scenarios: tuple[str, ...]
    seeds_per_unit: int
    round_units: int
    trace_units: int
    outcome_table: dict
    golden_sha256: str

    @classmethod
    def from_json(cls, name: str, doc: dict) -> "Workload":
        return cls(
            name=name, entry=doc["entry"], scenarios=tuple(doc["scenarios"]),
            seeds_per_unit=doc["seeds_per_unit"], round_units=doc["round_units"],
            trace_units=doc["trace_units"], outcome_table=doc["outcome_table"],
            golden_sha256=doc["golden_sha256"],
        )

    def seeds(self, base: int, first_unit: int, units: int) -> list[int]:
        lo = base + first_unit * self.seeds_per_unit
        return list(range(lo, lo + units * self.seeds_per_unit))


@dataclass(frozen=True)
class Output:
    """What the checks read from one trial's rendered trajectory and summary."""

    ticks: int
    active_ticks: int
    outcome: str
    digest: bytes


def inspect_output(csv_text: str, summary_text: str) -> Output:
    lines = csv_text.splitlines()
    active_col = lines[0].split(",").index("active_obstacle_id")
    # lines[1] is the start state; each later line is one tick.
    active_ticks = sum(1 for line in lines[2:] if line.split(",")[active_col])
    outcome = yaml.load(summary_text, Loader=YAML_LOADER)["outcome"]
    digest = hashlib.sha256(csv_text.encode() + b"\0" + summary_text.encode()).digest()
    return Output(len(lines) - 2, active_ticks, outcome, digest)


class Ledger:
    """Counts trial attempts and failed attempts; holds the first output of each trial."""

    def __init__(self, wl: Workload, base: int, default_seed: int):
        self.wl = wl
        self.attempted = 0
        self.failed: dict[int, tuple] = {}  # attempt number -> trial key
        self.first: dict[tuple, tuple[int, bytes]] = {}  # trial key -> (attempt, digest)
        self.checks: list[str] = ["outputs identical across reps and entry paths"]
        self.table_seeds = range(0)
        if base == default_seed and wl.outcome_table:
            self.table_seeds = range(base, base + wl.round_units * wl.seeds_per_unit)
            self.checks.append(f"outcome table on seeds {base}..{self.table_seeds[-1]}")

    def attempt(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, attempt: int, key: tuple, why: str) -> None:
        if attempt not in self.failed:
            print(f"FAILED attempt {attempt} {key}: {why}", file=sys.stderr)
        self.failed[attempt] = key

    def check(self, attempt: int, key: tuple, out: Output) -> None:
        scenario, mode, seed = key
        _, first_digest = self.first.setdefault(key, (attempt, out.digest))
        if first_digest != out.digest:
            self.fail(attempt, key, "output differs from an earlier run of the same trial")
        allowed = self.wl.outcome_table.get(scenario, {}).get(mode)
        if allowed and seed in self.table_seeds and out.outcome not in allowed:
            self.fail(attempt, key, f"outcome {out.outcome} not in {allowed}")

    def check_golden(self, keys: list[tuple]) -> None:
        """Compare the round's combined digest with the recorded one."""
        h = hashlib.sha256()
        for key in sorted(keys):
            h.update("|".join(map(str, key)).encode() + self.first.get(key, (-1, b"missing"))[1])
        digest = h.hexdigest()
        self.checks.append(f"round digest {digest} (recorded {self.wl.golden_sha256 or 'none'})")
        if digest != self.wl.golden_sha256:
            for key in keys:
                if key in self.first:  # a trial that raised has failed already
                    self.fail(self.first[key][0], key, "round digest differs from the recorded one")


@dataclass
class PassStats:
    seconds: float = 0.0
    trial_s: list[float] = field(default_factory=list)
    trials: int = 0
    ticks: int = 0
    active_ticks: int = 0
    outcomes: Counter = field(default_factory=Counter)
    pickle_bytes: int = 0
    artifact_bytes: int = 0

    def add(self, out: Output) -> None:
        self.trials += 1
        self.ticks += out.ticks
        self.active_ticks += out.active_ticks
        self.outcomes[out.outcome] += 1


class Bench:
    """One workload bound to the soar_sim modules and the loaded scenarios."""

    def __init__(self, soar_sim, wl: Workload, base: int, default_seed: int):
        self.soar_sim = soar_sim
        self.wl = wl
        self.base = base
        self.paths = {s: ROOT / "scenarios" / f"{s}.yaml" for s in wl.scenarios}
        self.specs = {s: soar_sim.scenario_io.load_scenario_file(str(p)) for s, p in self.paths.items()}
        self.ledger = Ledger(wl, base, default_seed)

    def inprocess(self, seeds: list[int], tracer=None) -> PassStats:
        """Run every (scenario, mode) trial of seeds through sim.run_trial."""
        sim, report = self.soar_sim.sim, self.soar_sim.report
        stats = PassStats()
        for seed in seeds:
            for scenario, spec in self.specs.items():
                for mode in MODES:
                    key = (scenario, mode, seed)
                    attempt = self.ledger.attempt()
                    if tracer is not None:
                        tracer.trial_id += 1
                    try:
                        t0 = perf_counter()
                        result = sim.run_trial(spec, mode, seed)
                        seconds = perf_counter() - t0
                        out = inspect_output(report.render_trajectory_csv(result),
                                             report.render_trial_summary(result, spec.name))
                    except Exception:
                        traceback.print_exc()
                        self.ledger.fail(attempt, key, "raised")
                        continue
                    if tracer is not None:
                        stats.pickle_bytes += len(pickle.dumps(result))
                    self.ledger.check(attempt, key, out)
                    stats.add(out)
                    stats.seconds += seconds
                    stats.trial_s.append(seconds)
        return stats

    def cli(self, seeds: list[int]) -> PassStats:
        """One cli.main compare per scenario over seeds, then check its artifacts."""
        stats = PassStats()
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        for scenario, spec in self.specs.items():
            keys = [(scenario, mode, seed) for mode in MODES for seed in seeds]
            attempts = [self.ledger.attempt() for _ in keys]
            tmp = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
            argv = ["compare", "--scenario", str(self.paths[scenario]), "--trials", str(len(seeds)),
                    "--seed", str(seeds[0]), "--jobs", str(POOL_JOBS), "--out", str(tmp)]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = perf_counter()
                    code = self.soar_sim.cli.main(argv)
                    seconds = perf_counter() - t0
                if code != 0:
                    raise RuntimeError(f"cli.main returned {code}")
                stats.seconds += seconds
                # Trials run in the pool, so the parent sees only their mean.
                stats.trial_s.append(seconds / len(keys))
                stats.artifact_bytes += sum(p.stat().st_size for p in tmp.iterdir())
                for attempt, key in zip(attempts, keys):
                    _, mode, seed = key
                    stem = tmp / f"{spec.name}_{mode}_seed{seed}"
                    out = inspect_output(Path(f"{stem}.traj.csv").read_text(encoding="utf-8"),
                                         Path(f"{stem}.result.yaml").read_text(encoding="utf-8"))
                    self.ledger.check(attempt, key, out)
                    stats.add(out)
            except Exception:
                traceback.print_exc()
                for attempt, key in zip(attempts, keys):
                    self.ledger.fail(attempt, key, "cli compare failed")
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        return stats

    def own_path(self, seeds: list[int]) -> PassStats:
        return self.cli(seeds) if self.wl.entry == "cli" else self.inprocess(seeds)


def measure_untraced(bench: Bench, seconds: float, default_seed: int) -> dict:
    wl = bench.wl
    # Unit 0 runs once untimed, as warm-up and as the first rep of the rep check.
    bench.own_path(wl.seeds(bench.base, 0, 1))
    host = HostSpeed()
    runs: list[PassStats] = []
    start = perf_counter()
    while len(runs) < wl.round_units or perf_counter() - start < seconds:
        runs.append(bench.own_path(wl.seeds(bench.base, len(runs), 1)))
        host.measure(runs[-1].seconds)
    scale = host.factor()
    timed_s = sum(r.seconds for r in runs)
    trials = sum(r.trials for r in runs)
    ticks = sum(r.ticks for r in runs)
    trial_s = [t for r in runs for t in r.trial_s]
    if bench.base == default_seed:
        first_round = [(s, m, seed) for s in wl.scenarios for m in MODES
                       for seed in wl.seeds(bench.base, 0, wl.round_units)]
        bench.ledger.check_golden(first_round)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.entry == "cli":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = setup_seconds(bench)
    raw = {
        "trials_per_s": trials / timed_s if timed_s else 0.0,
        "ticks_per_s": ticks / timed_s if timed_s else 0.0,
        "trial_s_p50": mid_tenth_mean(trial_s) if trial_s else 0.0,
    }
    return {
        "metrics": {
            "trials_per_s": raw["trials_per_s"] / scale,
            "ticks_per_s": raw["ticks_per_s"] / scale,
            "trial_s_p50": raw["trial_s_p50"] * scale,
            "peak_rss_mb": rss_kb / 1024.0,
            "setup_s": statistics.median(setup),
        },
        "raw": raw,
        "samples": {"units": len(runs), "trials": trials, "ticks": ticks, "timed_s": timed_s,
                    "host_scale": scale, "trial_s_count": len(trial_s), "trial_s": trial_s,
                    "setup_probes": setup, "unit_s": [r.seconds for r in runs],
                    "unit_ticks": [r.ticks for r in runs], "unit_trials": [r.trials for r in runs],
                    "reference_group_s": host.groups},
    }


def mid_tenth_mean(values: list[float]) -> float:
    """The median, smoothed: the mean of the values ranked 45% to 55%.

    A plain median of single trials is one trial's time. In sparse_scenes
    each seed gives four trials of at most about 20 ms and four of at least
    about 35 ms, so the median is the slowest short trial or the fastest
    long one, and it jumped by half from run to run.
    """
    v = sorted(values)
    lo = int(len(v) * 0.45)
    return statistics.fmean(v[lo:max(int(len(v) * 0.55), lo + 1)])


def setup_seconds(bench: Bench) -> list[float]:
    """import soar_sim plus loading every scenario, each in a fresh interpreter."""
    modules = "soar_sim,soar_sim.cli" if bench.wl.entry == "cli" else "soar_sim"
    argv = [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), modules,
            *(str(p) for p in bench.paths.values())]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure_traced(bench: Bench, seconds: float, units: int) -> dict:
    wl = bench.wl
    seeds = wl.seeds(bench.base, 0, units)
    per_iteration, tracers, first = [], [], None
    start = perf_counter()
    while not per_iteration or perf_counter() - start < seconds:
        own = bench.own_path(seeds)
        t_sim, t_cli = Tracer(), Tracer()
        with installed(t_sim, sim_hooks(bench.soar_sim)):
            traced_sim = bench.inprocess(seeds, tracer=t_sim)
        with installed(t_cli, cli_hooks(bench.soar_sim)):
            traced_cli = bench.cli(seeds)
        traced_own = traced_cli if wl.entry == "cli" else traced_sim
        per_iteration.append(layer_values(own, traced_own, t_sim, t_cli))
        tracers += [t_sim, t_cli]
        first = first or (traced_sim, traced_cli, t_sim)

    values = {name: statistics.median(v[name] for v in per_iteration) for name in per_iteration[0]}
    # Counts repeat exactly for a seed, so the first iteration's are reported.
    traced_sim, traced_cli, t_sim = first
    ticks = traced_sim.ticks
    values.update({
        "perception.detections_per_tick": t_sim.counts["detections"] / ticks,
        "perception.fuse.dropped": t_sim.counts["dropped"],
        "world.position_at.calls_per_tick": t_sim.layer_times()["world.position_at"][2] / ticks,
        "world.active_tick_ratio": traced_sim.active_ticks / ticks,
        "sim.ticks": ticks,
        "report.artifact_bytes": traced_cli.artifact_bytes,
        "cli.result_pickle_bytes": traced_sim.pickle_bytes,
        **{f"sim.outcomes.{o}": traced_sim.outcomes[o] for o in OUTCOMES},
    })
    write_spans(bench, tracers)
    return {
        "metrics": values,
        "samples": {"iterations": len(per_iteration), "seeds": seeds, "trials_per_pass": traced_sim.trials},
    }


def layer_values(own: PassStats, traced_own: PassStats, t_sim: Tracer, t_cli: Tracer) -> dict:
    """Self times and shares of one iteration, and its tracing overhead."""
    sim_layers, cli_layers = t_sim.layer_times(), t_cli.layer_times()
    trial_s = sim_layers["sim.run_trial"][1]
    values = {}
    for layer in IN_TRIAL_LAYERS:
        values[f"{layer}.self_s"] = sim_layers[layer][0]
        values[f"{layer}.share"] = sim_layers[layer][0] / trial_s
    values["report.render.self_s"] = sum(v[0] for k, v in cli_layers.items() if k.startswith("report."))
    values["scenario_io.load_scenario_file.self_s"] = cli_layers["scenario_io.load_scenario_file"][0]
    values["cli.pool_wait_s"] = cli_layers["cli.main"][0]
    untraced = own.trials / own.seconds
    traced = traced_own.trials / traced_own.seconds
    values["trace.untraced_trials_per_s"] = untraced
    values["trace.trials_per_s"] = traced
    values["trace.overhead"] = 1.0 - traced / untraced
    return values


def write_spans(bench: Bench, tracers: list) -> None:
    arrays = {}
    for i, tracer in enumerate(tracers):
        arrays[f"p{i}_names"] = json.dumps(tracer.names)
        arrays.update({f"p{i}_{k}": v for k, v in tracer.arrays().items()})
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    path = OUT / "spans" / f"{bench.wl.name}-seed{bench.base}.npz"
    np.savez_compressed(path, **arrays)


def context(soar_sim) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": getattr(soar_sim, "KERNEL_BACKEND", "n/a"),
        "machine": platform.machine(),
    }


def import_program():
    """Import soar_sim from ./src; None when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "soar_sim" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        return None
    sys.path.insert(0, str(src))
    import soar_sim
    import soar_sim.cli
    import soar_sim.report
    import soar_sim.sim

    if Path(soar_sim.__file__).resolve().parent != (src / "soar_sim").resolve():
        raise ImportError(f"soar_sim imported from {soar_sim.__file__}, not from {src}")
    return soar_sim


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=None, help="base seed (default 42)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    bench_doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec_doc = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec_doc["workloads"])
    default_seed = spec_doc["default_seed"]
    base = default_seed if args.seed is None else args.seed

    soar_sim = import_program()
    if soar_sim is None:
        print(f"error: no soar_sim sources under {ROOT / 'src'} or no scenarios/", file=sys.stderr)
        return 2
    wl = Workload.from_json(args.workload, spec_doc["workloads"][args.workload])
    bench = Bench(soar_sim, wl, base, default_seed)
    ctx = context(soar_sim)

    if args.trace:
        measured = measure_traced(bench, args.seconds, wl.trace_units)
        declared = bench_doc["per_layer"]
    else:
        measured = measure_untraced(bench, args.seconds, default_seed)
        declared = bench_doc["end_to_end"]

    ledger = bench.ledger
    correct = not ledger.failed and ledger.attempted > 0
    metrics = {m["name"]: {"value": measured["metrics"][m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {wl.name}  seed {base}  trace {args.trace}  seconds {args.seconds:g}")
    print("context " + "  ".join(f"{k}={v}" for k, v in ctx.items()))
    for check in ledger.checks:
        print(f"check {check}")
    for k, v in measured["samples"].items():
        if not isinstance(v, list) or len(v) <= 10:
            print(f"sample {k} {v}")
    for name, value in measured.get("raw", {}).items():
        print(f"unscaled {name} {value!r}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric trial_error_ratio {len(ledger.failed) / max(1, ledger.attempted)!r} ratio "
          f"({len(ledger.failed)} failed / {ledger.attempted} attempted)")

    record = {"workload": wl.name, "seed": base, "trace": args.trace, "seconds": args.seconds,
              "context": ctx, "checks": ledger.checks, "correct": correct,
              "attempted": ledger.attempted, "failed": len(ledger.failed),
              "failed_trials": sorted(set(ledger.failed.values())), "metrics": metrics,
              "unscaled": measured.get("raw", {}), "samples": measured["samples"]}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{wl.name}-seed{base}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

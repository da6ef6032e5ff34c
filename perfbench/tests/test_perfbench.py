"""Self-test of the benchmark at its smallest size.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    # At the default seed the run also checks the recorded digest and outcome table.
    done = _run(ROOT, "--workload", workload, "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.startswith(f"metric {m['name']} ")]
        assert len(printed) == 1 and printed[0].endswith(f" {m['unit']}")
    if trace == "0":
        # Times are scaled to the reference host; the measured ones are printed too.
        scale = float(next(ln.split()[2] for ln in lines if ln.startswith("sample host_scale ")))
        unscaled = {ln.split()[1]: float(ln.split()[2]) for ln in lines if ln.startswith("unscaled ")}
        assert set(unscaled) == {"trials_per_s", "ticks_per_s", "trial_s_p50"}
        for name in ("trials_per_s", "ticks_per_s"):
            assert result["metrics"][name]["value"] == pytest.approx(unscaled[name] / scale)
        assert result["metrics"]["trial_s_p50"]["value"] == pytest.approx(unscaled["trial_s_p50"] * scale)


def _hooked(soar_sim) -> list[tuple[object, str, object]]:
    hooks = spans.sim_hooks(soar_sim) + spans.cli_hooks(soar_sim)
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in hooks]


def test_self_times_sum_to_trial_time_and_wrappers_are_removed():
    soar_sim = run.import_program()
    doc = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    wl = run.Workload.from_json("arch_compare", doc["workloads"]["arch_compare"])
    bench = run.Bench(soar_sim, wl, base=7, default_seed=doc["default_seed"])
    originals = _hooked(soar_sim)
    seeds = wl.seeds(7, 0, 1)

    bench.inprocess(seeds)  # warm-up
    untraced = bench.inprocess(seeds)
    tracer = spans.Tracer()
    with spans.installed(tracer, spans.sim_hooks(soar_sim)):
        traced = bench.inprocess(seeds, tracer=tracer)
    layers = tracer.layer_times()
    in_trial_self = sum(layers[name][0] for name in run.IN_TRIAL_LAYERS)
    assert in_trial_self == pytest.approx(layers["sim.run_trial"][1], rel=1e-9)
    # The traced trial time exceeds the spans' sum only by run_trial's own wrapper.
    overhead = traced.seconds - untraced.seconds
    assert 0.0 <= traced.seconds - in_trial_self <= max(overhead, 0.0) + 1e-3

    run.measure_traced(bench, seconds=0, units=1)
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    assert not bench.ledger.failed


def test_every_failed_attempt_counts():
    doc = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    wl = run.Workload.from_json("arch_compare", doc["workloads"]["arch_compare"])
    ledger = run.Ledger(wl, base=42, default_seed=42)
    good = run.Output(ticks=3, active_ticks=1, outcome="goal_reached", digest=b"a")
    other = run.Output(ticks=3, active_ticks=1, outcome="goal_reached", digest=b"b")
    for out in (good, good, other, other):
        ledger.check(ledger.attempt(), ("arch", "soar", 42), out)
    assert sorted(ledger.failed) == [2, 3]
    stuck = run.Output(ticks=3, active_ticks=1, outcome="stuck", digest=b"c")
    ledger.check(ledger.attempt(), ("arch", "soar", 43), stuck)
    assert sorted(ledger.failed) == [2, 3, 4]
    ledger.check_golden([("arch", "soar", 42), ("arch", "soar", 43)])
    assert sorted(ledger.failed) == [0, 2, 3, 4]
    assert ledger.attempted == 5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())

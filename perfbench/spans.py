"""In-memory spans around calls into soar_sim's layers.

Wrappers are installed from outside, on the module attributes the program
resolves at call time, and removed again when the traced pass ends. Each
span keeps its name, start, end, parent span and trial id in flat arrays,
so the ~90 spans per tick of a traced arch trial cost 34 bytes each.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import array
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

# (owner, attribute, span name, optional counter fed with the call's result)
Hook = tuple[object, str, str, Optional[Callable[[Counter, object], None]]]


class Tracer:
    """Records one span per wrapped call; not thread-safe, one per pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.trial = array.array("q")
        self.counts: Counter = Counter()
        self.trial_id = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, trials = self.name, self.start, self.end, self.parent, self.trial
        open_spans = self._open

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            trials.append(self.trial_id)
            ends.append(0.0)
            open_spans.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_spans.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "trial": np.frombuffer(self.trial, dtype=np.int64),
        }

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (self seconds, total seconds, calls)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        own = dur - covered
        k = len(self.names)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        total_s = np.bincount(a["name"], weights=dur, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        return {
            n: (float(self_s[i]), float(total_s[i]), int(calls[i]))
            for i, n in enumerate(self.names)
        }


@contextmanager
def installed(tracer: Tracer, hooks: list[Hook]) -> Iterator[None]:
    """Swap each hooked attribute for a traced wrapper; restore on exit."""
    originals = []
    try:
        for owner, attr, name, count in hooks:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _count_detections(counts: Counter, frame) -> None:
    counts["detections"] += len(frame.detections)


def _count_dropped(counts: Counter, fused) -> None:
    counts["dropped"] += fused[1]


def sim_hooks(soar_sim) -> list[Hook]:
    """The per-tick stages run_trial resolves at call time, plus run_trial."""
    sim = soar_sim.sim
    return [
        (sim, "run_trial", "sim.run_trial", None),
        (sim, "sense", "perception.sense", _count_detections),
        (sim, "fuse", "perception.fuse", _count_dropped),
        (sim, "nearest_effective_obstacle", "world.nearest_effective_obstacle", None),
        (sim, "steering_direction", "steering.steering_direction", None),
        (sim, "step", "sim.step", None),
        (sim, "detect_termination", "sim.detect_termination", None),
        (soar_sim.world.ObstacleInstance, "position_at", "world.position_at", None),
    ]


def cli_hooks(soar_sim) -> list[Hook]:
    """Parent-side layers of a cli compare: cli, scenario_io, report, writes.

    Trials run in pool workers, whose spans are not collected, so the time
    cli.main spends outside its traced children is pool wait.
    """
    cli, report, scenario_io = soar_sim.cli, soar_sim.report, soar_sim.scenario_io
    hooks: list[Hook] = [
        (cli, "main", "cli.main", None),
        (cli, "_write", "cli.write", None),
        (cli, "load_scenario_file", "scenario_io.load_scenario_file", None),
        (scenario_io, "load_scenario_file", "scenario_io.load_scenario_file", None),
    ]
    for attr, fn in sorted(vars(report).items()):
        if inspect.isfunction(fn) and fn.__module__ == report.__name__ and not attr.startswith("_"):
            hooks.append((report, attr, f"report.{attr}", None))
    return hooks

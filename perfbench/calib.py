"""A fixed reference load that measures how fast the host runs right now.

The shared machines this benchmark runs on change speed by up to 1.5x for
seconds to minutes at a time, with no steal time and with CPU time
tracking wall time, so no clock avoids it. The benchmark therefore runs
``reference_slice`` between units of work and scales the run's times by
``REFERENCE_SLICE_S / mean slice seconds``: a time reported is the time
the work would take on a host where one slice takes ``REFERENCE_SLICE_S``. The slice is frozen code of this benchmark, not of
the program, so a change to the program moves the scaled times in full.

The slice mixes the kinds of work a trial does: float math on tuples,
small frozen slotted dataclasses and dicts, numpy calls on arrays of a few
elements, and a toy occlusion pass (ranges, bearings, segment-disc tests
in ``any`` over generator expressions, a few normal draws per hit).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Seconds one slice takes on the reference host: a 2-vCPU x86_64 VM with
# Python 3.11 and numpy 2.4, at its usual speed.
REFERENCE_SLICE_S = 0.04
# Slice seconds run after each unit of work, as a share of the unit's seconds.
SLICE_SHARE = 0.05


@dataclass(frozen=True, slots=True)
class _Point:
    x: float
    y: float

    def dist(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class _Disc:
    id: int
    center: _Point
    radius: float


@dataclass(frozen=True, slots=True)
class _Hit:
    id: int
    range_m: float
    bearing: float
    samples: tuple[float, ...]


_DISCS = [_Disc(i, _Point((i * 7.3) % 23.0, (i * 3.1) % 11.0 - 5.0), 0.3 + (i % 4) * 0.1)
          for i in range(30)]


def _float_math() -> float:
    acc = 0.0
    pts = [(i * 0.37, i * 0.11) for i in range(64)]
    for k in range(150):
        for x, y in pts:
            acc += math.hypot(x - k, y) * 0.5
    return acc


def _objects() -> int:
    kept = []
    for k in range(3000):
        p = _Point(k * 0.1, k * 0.2)
        kept.append((_Point(p.x + 1.0, p.y - 1.0), {"k": k}))
        if len(kept) > 64:
            kept.clear()
    return len(kept)


def _small_numpy() -> float:
    a = np.arange(8, dtype=float)
    acc = 0.0
    for k in range(2000):
        b = np.array([k, 1.0, 2.0])
        acc += float(np.sqrt((a * a).sum())) + float(b.max())
    return acc


def _blocks(a: _Point, b: _Point, disc: _Disc) -> bool:
    abx, aby = b.x - a.x, b.y - a.y
    t = ((disc.center.x - a.x) * abx + (disc.center.y - a.y) * aby) / (abx * abx + aby * aby)
    t = min(1.0, max(0.0, t))
    return _Point(a.x + abx * t, a.y + aby * t).dist(disc.center) <= disc.radius


def _occlusion() -> int:
    draws = np.random.default_rng(0)
    hits = []
    for k in range(20):
        cam = _Point(-3.0 + k * 0.2, 0.2 * math.sin(k))
        order = sorted(range(len(_DISCS)), key=lambda i: _DISCS[i].id)
        geo = [(_DISCS[i], cam.dist(_DISCS[i].center)) for i in order]
        for disc, range_m in geo:
            bearing = math.atan2(disc.center.y - cam.y, disc.center.x - cam.x)
            if abs(bearing) > 1.0 or range_m > 20.0:
                continue
            if any(r < range_m and _blocks(cam, disc.center, other)
                   for other, r in geo if other.id != disc.id):
                continue
            samples = 5.0 / range_m + draws.normal(0.0, 0.1, 4)
            hits.append(_Hit(disc.id, range_m, bearing, tuple(float(s) for s in samples if s > 0.0)))
    return len(hits)


def reference_slice() -> float:
    """Run one slice of the reference load; return its seconds."""
    t0 = perf_counter()
    _float_math()
    _objects()
    _small_numpy()
    _occlusion()
    return perf_counter() - t0


class HostSpeed:
    """Groups of slices run between units of work, and the scale they give."""

    def __init__(self) -> None:
        reference_slice()  # warm-up
        self.groups: list[float] = []  # mean slice seconds of each group

    def measure(self, work_s: float) -> None:
        """Run slices worth ``SLICE_SHARE`` of the unit just done, at least one."""
        times = []
        while not times or sum(times) < SLICE_SHARE * work_s:
            times.append(reference_slice())
        self.groups.append(statistics.fmean(times))

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host time.

        A mean over the groups, one group per unit, not a median: the
        work's time is a sum over the fast and slow stretches of the run,
        and a median took the speed of the most common stretch alone.
        """
        return REFERENCE_SLICE_S / statistics.fmean(self.groups)

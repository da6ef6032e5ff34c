"""Pins on the three layers under the golden digests: numpy's random streams, the platform's libm and CPython's hypot.

The goldens (tests/test_golden.py) were recorded on Python 3.11.7, numpy 2.4.6,
PyYAML 6.0.3 with libyaml, glibc 2.36, x86-64. The 8 that draw noise depend on
Generator.random and Generator.normal, whose output NumPy's NEP 19 lets change
between numpy versions. All 14 depend on atan2, cos and sin, which CPython's math
passes through to the C library, and on every distance the loop takes, which
math.hypot and math.dist compute in CPython's own code, not libm's hypot. So when
a golden fails, a failing pin here names the layer that moved; with every pin
passing, the loop itself changed.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from soar_sim.world import Vec2

# float.hex of each trial stream's first items: SeedSequence([seed, 1])'s random(3), a fresh one's
# normal(0, 0.1, (1, 9)) row sorted, then SeedSequence([seed, 2])'s normal(0, 0.05, (2, 2))
STREAMS = {
    0: """0x1.c78bd7c50b582p-1 0x1.1d4132d1fc63bp-1 0x1.9a109ff09b1bdp-1 -0x1.11f60f1b1c5e5p-2
          -0x1.a50539e235815p-4 -0x1.919fb9d3dced3p-4 -0x1.4ed6d0b12b18bp-4 -0x1.d698c3a9cc0b5p-5
          -0x1.e44437eff1334p-13 0x1.51678ce90ba18p-7 0x1.423ce2dc84415p-5 0x1.93aff8a419150p-3
          -0x1.eb65c47f33e70p-6 -0x1.1f24da7f715c0p-6 -0x1.9b321c9e1cd37p-5 0x1.dc0fc2215c89ap-7""",
    42: """0x1.9645fbf746a65p-1 0x1.f7b92c2b98618p-3 0x1.9e21efd7ae1f8p-2 -0x1.a36d8a9bd8067p-4
           -0x1.4042799df57a3p-4 -0x1.1d431cfc1b85ep-4 -0x1.3211c565c6f57p-5 -0x1.977ea99429250p-6
           0x1.90c20691c3e58p-7 0x1.7574fff084ae8p-5 0x1.ac81f35345cc8p-4 0x1.5565906b779dfp-3
           -0x1.dbf1deb521d48p-6 -0x1.a48bc6d70d088p-5 0x1.14a3f50d96887p-4 -0x1.8931c9deec50fp-5""",
    2**32 - 1: """0x1.c8e4cc7b84948p-1 0x1.d2af2ba001f34p-1 0x1.cacc39c20036ep-1 -0x1.e13265aa5d3a4p-4
                  -0x1.d9926636d47e0p-5 -0x1.518f5e833c266p-5 -0x1.cff117509c617p-8 0x1.6b2ff749a5c52p-6
                  0x1.bbd33ef7778a2p-6 0x1.32e8d073d0137p-4 0x1.68c8768ba5556p-4 0x1.7ac9069e973a9p-4
                  0x1.5f265d989a48cp-6 0x1.933e9f4722fe1p-5 -0x1.02904178e9acfp-5 0x1.a9a282dd3341cp-5""",
}

# (function, float.hex arguments, float.hex result) of every call in the first three ticks of
# parking_lot soar seed 42, all from step: sense ranges no obstacle in those ticks
LIBM = [
    ("atan2", ("-0x1.6bbad5ed8be37p-5", "0x1.ff7ebcd60cb7dp-1"), "-0x1.6bd9751dc4e01p-5"),
    ("cos", ("-0x1.6bd9751dc4e01p-5",), "0x1.ff7ebcd60cb7dp-1"),
    ("sin", ("-0x1.6bd9751dc4e01p-5",), "-0x1.6bbad5ed8be37p-5"),
    ("atan2", ("-0x1.6a885643222fap-5", "0x1.ff7f966e6c509p-1"), "-0x1.6aa6a83fb904fp-5"),
    ("cos", ("-0x1.6aa6a83fb904fp-5",), "0x1.ff7f966e6c50ap-1"),
    ("sin", ("-0x1.6aa6a83fb904fp-5",), "-0x1.6a885643222fbp-5"),
    ("atan2", ("-0x1.698170f017ab3p-5", "0x1.ff80507f9b894p-1"), "-0x1.699f811c7a278p-5"),
    ("cos", ("-0x1.699f811c7a278p-5",), "0x1.ff80507f9b894p-1"),
    ("sin", ("-0x1.699f811c7a278p-5",), "-0x1.698170f017ab3p-5"),
]

# (float.hex arguments, float.hex result) of math.hypot at every distance the t=0 tick of parking_lot
# soar seed 42 takes: update_clearance's gap to each of the 11 obstacles, then detect_termination's goal
# distance. math.dist(p, q) is math.hypot(p.x - q.x, p.y - q.y): CPython computes both in one function
HYPOT = [
    (("-0x1.e666666666666p+2", "-0x1.199999999999ap+1"), "0x1.fa5e791a6b7cap+2"),
    (("-0x1.03a858793dd98p+3", "-0x1.6666666666667p+0"), "0x1.077e796baf298p+3"),
    (("-0x1.141d7dbf487fdp+3", "-0x1.3333333333332p-1"), "0x1.14c82d6186249p+3"),
    (("-0x1.2492a30553261p+3", "0x1.999999999999cp-3"), "0x1.24a48df87b8a6p+3"),
    (("-0x1.3506f69446738p+3", "0x1.0000000000000p+0"), "0x1.36adf9e50ccecp+3"),
    (("-0x1.457c1bda5119dp+3", "0x1.ccccccccccccdp+0"), "0x1.4a8aca8d0f9dep+3"),
    (("-0x1.55f141205bc02p+3", "0x1.4cccccccccccdp+1"), "0x1.5feb36c488d52p+3"),
    (("-0x1.6666666666666p+3", "0x1.b333333333334p+1"), "0x1.768ce6d3c11dfp+3"),
    (("-0x1.b333333333333p+2", "-0x1.ccccccccccccep+1"), "0x1.ec6d0353167a9p+2"),
    (("-0x1.2666666666666p+2", "-0x1.199999999999ap+2"), "0x1.9764e11b32cd0p+2"),
    (("-0x1.b99999999999ap+3", "-0x1.ccccccccccccdp+0"), "0x1.bd5736b628bc1p+3"),
    (("-0x1.2000000000000p+4", "0x1.999999999999ap-1"), "0x1.2048c82792f8fp+4"),
]


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_numpy_streams_are_the_goldens(seed):
    def perception():
        return np.random.default_rng(np.random.SeedSequence([seed, 1]))
    drawn = [*perception().random(3), *np.sort(perception().normal(0.0, 0.1, (1, 9)), axis=1)[0],
             *np.random.default_rng(np.random.SeedSequence([seed, 2])).normal(0.0, 0.05, (2, 2)).ravel()]
    assert [float(x).hex() for x in drawn] == STREAMS[seed].split(), (
        f"numpy {np.__version__} changed the stream; the goldens will fail for that reason")


def test_libm_is_the_goldens():
    """Each call is made through math at run time. LIBM was recorded from the repository root with:

        import math
        from dataclasses import replace
        import soar_sim.sim as sim
        from soar_sim.scenario_io import load_scenario_file

        for name in ("atan2", "cos", "sin"):
            def pin(*args, name=name, fn=getattr(math, name)):
                print(f"({name!r}, {tuple(a.hex() for a in args)!r}, {fn(*args).hex()!r}),")
                return fn(*args)
            setattr(math, name, pin)  # sense and fuse call math.*
            setattr(sim, name, pin)  # step calls the names sim imported
        spec = load_scenario_file("scenarios/parking_lot.yaml")
        sim.run_trial(replace(spec, time_limit=0.15), "soar", 42)  # three ticks of dt 0.05
    """
    for name, args, expected in LIBM:
        got = getattr(math, name)(*map(float.fromhex, args)).hex()
        assert got == expected, (f"libm's {name}{args} is {got}, not {expected}: this platform's libm "
                                 "differs from the goldens', which will fail for that reason")


def test_hypot_is_the_goldens():
    """Each call is made through math at run time. HYPOT was recorded from the repository root with:

        import math
        from dataclasses import replace
        import soar_sim.sim as sim
        from soar_sim.scenario_io import load_scenario_file

        def pin(p, q):
            dx, dy = p[0] - q[0], p[1] - q[1]
            print(f"(({dx.hex()!r}, {dy.hex()!r}), {math.hypot(dx, dy).hex()!r}),")
            return math.dist(p, q)
        sim.dist = pin  # update_clearance and detect_termination call the name sim imported
        spec = load_scenario_file("scenarios/parking_lot.yaml")
        sim.run_trial(replace(spec, time_limit=0.0), "soar", 42)  # the t=0 tick alone
    """
    for args, expected in HYPOT:
        got = math.hypot(*map(float.fromhex, args)).hex()
        assert got == expected, (f"CPython's hypot{args} is {got}, not {expected}: this interpreter computes "
                                 "distances differently from the goldens', which will fail for that reason")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


POINTS = st.builds(Vec2, st.floats(), st.floats())


@given(p=POINTS, q=POINTS)
@example(p=Vec2(0.0, -0.0), q=Vec2(-0.0, 0.0))
@example(p=Vec2(5e-324, 0.0), q=Vec2(0.0, -5e-324))
@example(p=Vec2(1e308, -1e308), q=Vec2(-1e308, 1e308))
@example(p=Vec2(math.inf, 0.0), q=Vec2(math.inf, 1.0))
@example(p=Vec2(math.inf, math.nan), q=Vec2(0.0, 0.0))
@example(p=Vec2(math.nan, 1.0), q=Vec2(2.0, -math.inf))
def test_dist_is_hypot_of_the_differences(p, q):
    """The loop takes math.dist on two Vec2s where the oracle takes math.hypot of their differences."""
    assert bits(math.dist(p, q)) == bits(math.hypot(p[0] - q[0], p[1] - q[1]))

"""Pins on the two layers under the golden digests: numpy's random streams and the platform's libm.

The goldens (tests/test_golden.py) were recorded on Python 3.11.7, numpy 2.4.6,
PyYAML 6.0.3 with libyaml, glibc 2.36, x86-64. The 8 that draw noise depend on
Generator.random and Generator.normal, whose output NumPy's NEP 19 lets change
between numpy versions. All 14 depend on atan2, cos and sin, which CPython's math
passes through to the C library. So when a golden fails, a failing pin here names
the layer that moved; with both pins passing, the loop itself changed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

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

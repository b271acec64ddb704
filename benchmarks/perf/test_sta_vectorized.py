"""Vectorized SoA full STA vs the scalar propagation loop.

Acceptance (ISSUE 3): the warm vector path (netlist structure already
lowered and cached) must beat scalar full analysis — the dict-walk
reference engine in ``tests/oracles/timing`` — by >= 3x on aes or jpeg,
never regress below 1.0x on either, and agree bit-for-bit — WNS/CPS/TNS,
every endpoint slack, and the critical path.
"""

from __future__ import annotations

import time

from repro.designs.opencores import get_benchmark
from repro.hdl import elaborate
from repro.synth import Constraints, TimingEngine, get_wireload, nangate45
from repro.synth.techmap import map_to_library
from tests.oracles.timing import ScalarTimingEngine

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")
DESIGNS = ("aes", "jpeg")
REPEATS = 5


def _mapped(name):
    bench = get_benchmark(name)
    netlist = elaborate(bench.verilog, bench.top)
    map_to_library(netlist, LIBRARY)
    return netlist, Constraints(clock_period=bench.clock_period)


def _engine(netlist, constraints, vector):
    cls = TimingEngine if vector else ScalarTimingEngine
    return cls(netlist, LIBRARY, WIRELOAD, constraints)


def _time_full(netlist, constraints, vector):
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        engine = _engine(netlist, constraints, vector)
        start = time.perf_counter()
        report = engine.full_analyze()
        best = min(best, time.perf_counter() - start)
    return best, report


def test_vectorized_sta_speedup_and_parity(bench_results):
    per_design = {}
    for name in DESIGNS:
        netlist, constraints = _mapped(name)
        # Warm-up pays the one-time SoA lowering; the structure is cached
        # on the netlist afterwards, which is the steady state inside
        # optimization loops and repeated QoR reports.
        _engine(netlist, constraints, True).full_analyze()
        vector_s, vec = _time_full(netlist, constraints, True)
        scalar_s, ref = _time_full(netlist, constraints, False)
        assert vec.endpoint_slacks == ref.endpoint_slacks, name
        assert (vec.wns, vec.cps, vec.tns) == (ref.wns, ref.cps, ref.tns), name
        assert vec.critical_path.points == ref.critical_path.points, name
        speedup = scalar_s / vector_s
        per_design[name] = {
            "scalar_s": round(scalar_s, 6),
            "vector_s": round(vector_s, 6),
            "speedup": round(speedup, 2),
        }
    best = max(d["speedup"] for d in per_design.values())
    bench_results["sta_vectorized"] = {
        "repeats": REPEATS,
        "best_speedup": round(best, 2),
        "per_design": per_design,
    }
    for name, d in per_design.items():
        assert d["speedup"] >= 1.0, f"vector STA slower than scalar on {name}"
    assert best >= 3.0, f"vector STA best speedup {best:.2f}x < 3x"

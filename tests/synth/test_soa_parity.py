"""Parity: SoA-kernel STA/power == the scalar reference engines.

The SoA kernels behind :class:`TimingEngine` / :class:`PowerAnalyzer`
promise *exact* agreement with the per-cell dict sweeps in
``tests/oracles`` — identical WNS/CPS/TNS, bit-for-bit identical
endpoint-slack dictionaries, critical paths and net activities — on any
mapped netlist, including after journal-driven gate resizes served
through the incremental kernel path.  These tests pit production against
the oracles on hypothesis-generated random netlists (combinational DAGs
plus register feedback loops) and on all seven OpenCores benchmarks.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.designs import get_benchmark
from repro.designs.opencores import benchmark_names
from repro.hdl import elaborate
from repro.hdl.netlist import Netlist
from repro.synth import (
    Constraints,
    PowerAnalyzer,
    TimingEngine,
    get_wireload,
    nangate45,
)
from repro.synth.techmap import map_to_library

from ..oracles.power import ScalarPowerAnalyzer
from ..oracles.timing import ScalarTimingEngine

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")

_GATES = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2", "NOT", "BUF", "MUX2"]


@st.composite
def random_mapped_netlist(draw, max_gates=30, num_inputs=5, max_regs=4):
    """A random mapped netlist: comb DAG + registers (with feedback)."""
    netlist = Netlist("rand")
    netlist.add_net("clk", is_input=True, is_clock=True)
    nets = []
    for i in range(num_inputs):
        netlist.add_net(f"in{i}", is_input=True)
        nets.append(f"in{i}")
    num_regs = draw(st.integers(0, max_regs))
    # Register outputs participate in the comb cone below; their D inputs
    # are rewired afterwards to late nets, closing reg->comb->reg loops.
    regs = []
    for r in range(num_regs):
        q = f"q{r}"
        netlist.add_cell("DFF", [draw(st.sampled_from(nets))], q, clock="clk")
        regs.append(netlist.driver_cell(q))
        nets.append(q)
    num_gates = draw(st.integers(3, max_gates))
    for g in range(num_gates):
        gate = draw(st.sampled_from(_GATES))
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(gate, 2)
        inputs = [draw(st.sampled_from(nets)) for _ in range(arity)]
        out = f"g{g}"
        netlist.add_cell(gate, inputs, out)
        nets.append(out)
    for reg in regs:
        target = draw(st.sampled_from(nets))
        if target != reg.inputs[0]:
            netlist.rewire_input(reg.name, reg.inputs[0], target)
    out_count = draw(st.integers(1, 2))
    for i in range(out_count):
        src = nets[-(i + 1)]
        port = netlist.add_net(f"out{i}", is_output=True)
        netlist.add_cell("BUF", [src], port.name)
    map_to_library(netlist, LIBRARY)
    netlist.validate()
    period = draw(st.sampled_from([0.05, 0.2, 1.0]))
    return netlist, Constraints(clock_period=period)


def _engine(netlist, constraints, vector=True):
    """The production engine, or the scalar oracle with ``vector=False``."""
    cls = TimingEngine if vector else ScalarTimingEngine
    return cls(netlist, LIBRARY, WIRELOAD, constraints)


def _power(netlist, constraints, vector=True):
    cls = PowerAnalyzer if vector else ScalarPowerAnalyzer
    return cls(netlist, LIBRARY, WIRELOAD, constraints)


def _assert_reports_match(vec, ref):
    assert vec.endpoint_slacks == ref.endpoint_slacks
    assert (vec.wns, vec.cps, vec.tns) == (ref.wns, ref.cps, ref.tns)
    assert (vec.critical_path is None) == (ref.critical_path is None)
    if vec.critical_path is not None:
        assert vec.critical_path.points == ref.critical_path.points
        assert vec.critical_path.slack == ref.critical_path.slack


def _resize(netlist, cell_seed, variant_seed):
    sized = [c for c in netlist.cells.values() if c.lib_cell is not None]
    if not sized:
        return False
    cell = sized[cell_seed % len(sized)]
    variants = LIBRARY.variants(LIBRARY.cell(cell.lib_cell).function)
    others = [v for v in variants if v.name != cell.lib_cell]
    if not others:
        return False
    cell.lib_cell = others[variant_seed % len(others)].name
    return True


@functools.lru_cache(maxsize=None)
def _mapped_benchmark(name):
    bench = get_benchmark(name)
    netlist = elaborate(bench.verilog, bench.top)
    map_to_library(netlist, LIBRARY)
    return netlist, bench.clock_period


class TestRandomNetlistParity:
    @settings(max_examples=30, deadline=None)
    @given(random_mapped_netlist())
    def test_full_sta_matches_scalar(self, case):
        netlist, constraints = case
        vec = _engine(netlist, constraints, True).full_analyze()
        ref = _engine(netlist, constraints, False).full_analyze()
        _assert_reports_match(vec, ref)

    @settings(max_examples=20, deadline=None)
    @given(
        random_mapped_netlist(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_journal_resizes_match_scalar(self, case, resizes):
        """Resizes flow through the incremental kernel path; parity must
        hold against a from-scratch scalar engine after every batch."""
        netlist, constraints = case
        engine = _engine(netlist, constraints, True)
        engine.analyze(with_paths=False)
        for cell_seed, variant_seed in resizes:
            _resize(netlist, cell_seed, variant_seed)
            vec = engine.analyze()
            ref = _engine(netlist, constraints, False).full_analyze()
            _assert_reports_match(vec, ref)

    @settings(max_examples=25, deadline=None)
    @given(
        random_mapped_netlist(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_power_matches_scalar(self, case, p_in, a_in):
        netlist, constraints = case
        vec = _power(netlist, constraints, True).analyze(p_in, a_in)
        ref = _power(netlist, constraints, False).analyze(p_in, a_in)
        assert vec.net_activities == ref.net_activities
        # Whole-design sums differ only by numpy pairwise- vs sequential-
        # summation ulps, but the report rounds to 3 decimals, so a sum
        # sitting on a rounding boundary may land one step apart.
        for field in ("dynamic_uw", "internal_uw", "leakage_uw", "clock_tree_uw"):
            assert getattr(vec, field) == pytest.approx(
                getattr(ref, field), abs=1.001e-3
            ), field


class TestBenchmarkParity:
    @pytest.mark.parametrize("design", benchmark_names())
    def test_full_sta_matches_scalar(self, design):
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        vec = _engine(netlist, constraints, True).analyze()
        ref = _engine(netlist, constraints, False).analyze()
        _assert_reports_match(vec, ref)

    @pytest.mark.parametrize("design", benchmark_names())
    def test_incremental_resizes_match_scalar(self, design):
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        engine = _engine(netlist, constraints, True)
        engine.analyze(with_paths=False)
        scalar = _engine(netlist, constraints, False)
        scalar.analyze(with_paths=False)
        for seed in range(12):
            _resize(netlist, seed * 131, seed)
            vec = engine.analyze()
            # against both the oracle's own incremental update and a
            # from-scratch oracle rebuild
            _assert_reports_match(vec, scalar.analyze())
            ref = _engine(netlist, constraints, False).full_analyze()
            _assert_reports_match(vec, ref)

    @pytest.mark.parametrize("design", benchmark_names())
    def test_power_matches_scalar(self, design):
        netlist, period = _mapped_benchmark(design)
        constraints = Constraints(clock_period=period)
        vec = _power(netlist, constraints, True).analyze()
        ref = _power(netlist, constraints, False).analyze()
        assert vec.net_activities == ref.net_activities
        assert (vec.dynamic_uw, vec.internal_uw, vec.leakage_uw, vec.clock_tree_uw) == (
            ref.dynamic_uw,
            ref.internal_uw,
            ref.leakage_uw,
            ref.clock_tree_uw,
        )


class TestVectorMechanics:
    def test_vector_resize_takes_incremental_path(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        engine = _engine(netlist, constraints, True)
        engine.analyze(with_paths=False)
        assert _resize(netlist, 7, 1)
        perf.reset()
        engine.analyze(with_paths=False)
        assert perf.counter("sta.incremental") == 1
        assert perf.counter("sta.vector_incremental") == 1
        assert perf.counter("sta.full") == 0

    def test_power_fixpoint_early_exit_fires(self):
        """A feed-forward pipeline stabilises after one register sweep; the
        second comb sweep is skipped and the counter records it, in both
        the kernel and the scalar oracle, without changing the result."""
        netlist = Netlist("pipe")
        netlist.add_net("clk", is_input=True, is_clock=True)
        netlist.add_net("in0", is_input=True)
        netlist.add_net("in1", is_input=True)
        netlist.add_cell("DFF", ["in0"], "q", clock="clk")
        out = netlist.add_net("out0", is_output=True)
        netlist.add_cell("AND2", ["q", "in1"], out.name)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=1.0)
        perf.reset()
        scalar = _power(netlist, constraints, False).analyze()
        assert perf.counter("power.fixpoint_early_exit") == 1
        vector = _power(netlist, constraints, True).analyze()
        assert perf.counter("power.fixpoint_early_exit") == 2
        assert scalar.net_activities == vector.net_activities

    def test_power_feedback_loop_runs_both_iterations(self):
        """reg -> AND -> reg feedback shifts P(q) from 0.5 to 0.25 on the
        second register sweep, so the early exit must not trigger."""
        netlist = Netlist("loop")
        netlist.add_net("clk", is_input=True, is_clock=True)
        netlist.add_net("in0", is_input=True)
        netlist.add_cell("DFF", ["a"], "q", clock="clk")
        netlist.add_cell("AND2", ["q", "in0"], "a")
        out = netlist.add_net("out0", is_output=True)
        netlist.add_cell("BUF", ["a"], out.name)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=1.0)
        perf.reset()
        scalar = _power(netlist, constraints, False).analyze()
        assert perf.counter("power.fixpoint_early_exit") == 0
        vector = _power(netlist, constraints, True).analyze()
        assert perf.counter("power.fixpoint_early_exit") == 0
        assert scalar.net_activities == vector.net_activities

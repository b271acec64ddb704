"""Parity: batched pass loops == the scalar per-trial reference loops.

The production passes score upsizing and recovery candidates through
``TimingEngine.trial_cps_batch`` (grouped kernel sweeps against the
committed SoA arrays); the reference loops in ``tests/oracles/passes``
apply each candidate and read a full incremental ``analyze``.  Both must
produce the identical accepted-change sequence, the identical final
netlist (fingerprint), and identical QoR, on random netlists and on
every OpenCores compile flow.  Loops and engines are crossed: each pass
implementation runs on both the SoA engine and the scalar oracle engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.designs import get_benchmark
from repro.designs.opencores import benchmark_names
from repro.synth import Constraints, get_wireload, nangate45
from repro.synth.cache import synthesis_key
from repro.synth.dcshell import DCShell
from repro.synth.optimizer import recover_area, size_gates
from repro.synth.passes import PassContext
from repro.synth.techmap import propagate_constants

from ..oracles import passes as scalar_passes
from ..oracles.timing import ScalarTimingEngine
from .test_soa_parity import random_mapped_netlist

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")


def _context(netlist, constraints, vector):
    """Production engine, or the scalar oracle engine with ``vector=False``."""
    if vector:
        return PassContext(netlist, LIBRARY, WIRELOAD, constraints)
    return scalar_passes.scalar_context(netlist, LIBRARY, WIRELOAD, constraints)


def _passes(fast):
    """Production pass loops, or the reference loops with ``fast=False``."""
    if fast:
        return size_gates, recover_area
    return scalar_passes.size_gates, scalar_passes.recover_area


def _sizing_flow(netlist, constraints, fast, vector):
    """The pass sequence under test; returns (results, bindings, fingerprint)."""
    ctx = _context(netlist, constraints, vector)
    sizing, recovery = _passes(fast)
    results = [
        sizing(
            netlist, LIBRARY, WIRELOAD, constraints,
            max_rounds=8, scan=6, context=ctx,
        ),
        recovery(
            netlist, LIBRARY, WIRELOAD, constraints,
            slack_margin=-5.0, context=ctx,
        ),
    ]
    bindings = {c.name: c.lib_cell for c in netlist.cells.values()}
    return results, bindings, netlist.fingerprint()


class TestRandomNetlistParity:
    @settings(max_examples=30, deadline=None)
    @given(random_mapped_netlist())
    def test_fast_matches_scalar_pass_loops(self, case):
        netlist, constraints = case
        runs = [
            _sizing_flow(netlist.clone(), constraints, fast, vector)
            for fast, vector in (
                (True, True), (False, True), (True, False), (False, False),
            )
        ]
        reference = runs[0]
        for other in runs[1:]:
            assert other == reference

    @settings(max_examples=20, deadline=None)
    @given(random_mapped_netlist(), st.integers(0, 2**32 - 1))
    def test_batch_lanes_match_sequential_rebinds(self, case, seed):
        """Every trial_cps_batch lane == rebind applied alone (or grouped)."""
        from repro.rand import rng as seeded_rng

        netlist, constraints = case
        ctx = _context(netlist, constraints, True)
        engine = ctx.engine
        engine.analyze()
        upgrade = ctx.upgrade_table()
        sized = [
            (c.name, upgrade[c.lib_cell].name)
            for c in netlist.cells.values()
            if c.lib_cell is not None and upgrade[c.lib_cell] is not None
        ]
        if not sized:
            return
        rng = seeded_rng(seed)
        lanes = []
        for _ in range(min(6, len(sized))):
            group = rng.sample(sized, k=min(rng.randint(1, 3), len(sized)))
            if len({name for name, _ in group}) < len(group):
                continue
            lanes.append(group[0] if len(group) == 1 else group)
        if not lanes:
            return
        batch = engine.trial_cps_batch(lanes)
        for lane, got in zip(lanes, batch):
            rebinds = [lane] if isinstance(lane[0], str) else list(lane)
            previous = [
                (netlist.cells[name], netlist.cells[name].lib_cell)
                for name, _ in rebinds
            ]
            for name, lib_name in rebinds:
                netlist.cells[name].lib_cell = lib_name
            expected = engine.analyze(with_paths=False).cps
            for cell, prev in previous:
                cell.lib_cell = prev
            engine.analyze(with_paths=False)  # fold the revert
            assert got == expected, lane


def _compile(design, reference):
    """``compile_ultra`` in one shell; the reference runs on the oracles."""
    bench = get_benchmark(design)
    shell = DCShell()
    shell.add_design(design, bench.verilog, bench.top)
    script = "\n".join(
        [
            f"read_verilog {design}",
            f"create_clock -period {bench.clock_period * 0.9}",
            "set_max_fanout 24",
            "set_max_area 0",
            "compile_ultra",
        ]
    )
    if reference:
        with scalar_passes.scalar_flow():
            result = shell.run_script(script)
        assert isinstance(shell._engine(), ScalarTimingEngine)
    else:
        result = shell.run_script(script)
    assert result.success, result.error
    return shell.netlist.fingerprint(), shell.qor()


class TestOpenCoresParity:
    @pytest.mark.parametrize("design", benchmark_names())
    def test_dcshell_compile_modes_identical(self, design):
        assert _compile(design, reference=False) == _compile(
            design, reference=True
        )

    def test_fast_mode_drops_analyze_calls(self):
        bench = get_benchmark("riscv32i")
        from repro.hdl import elaborate
        from repro.synth.techmap import map_to_library

        reports = {}
        batches = {}
        for fast in (True, False):
            netlist = elaborate(bench.verilog, bench.top)
            map_to_library(netlist, LIBRARY)
            constraints = Constraints(clock_period=bench.clock_period * 0.8)
            ctx = _context(netlist, constraints, True)
            ctx.engine.analyze()
            perf.reset()
            sizing, _ = _passes(fast)
            sizing(
                netlist, LIBRARY, WIRELOAD, constraints,
                max_rounds=6, scan=16, context=ctx,
            )
            reports[fast] = perf.counter("sta.report")
            batches[fast] = perf.counter("sta.trial_batch")
        assert batches[True] > 0
        assert batches[False] == 0
        assert reports[True] < reports[False]


class TestModeGating:
    def test_upgrade_table_shared_per_library(self):
        bench = get_benchmark("dynamic_node")
        from repro.hdl import elaborate
        from repro.synth.techmap import map_to_library

        netlist = elaborate(bench.verilog, bench.top)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=bench.clock_period)
        a = PassContext(netlist, LIBRARY, WIRELOAD, constraints)
        b = PassContext(netlist.clone(), LIBRARY, WIRELOAD, constraints)
        assert a.upgrade_table() is b.upgrade_table()
        assert a.downgrade_table() is b.downgrade_table()

    def test_synthesis_cache_key_ignores_mode(self, monkeypatch):
        """Execution modes (workers, pool backend) never key the cache."""
        args = ("nangate45", "aes", "fingerprint", "aes", "compile_ultra")
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "thread")
        key = synthesis_key(*args)
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert synthesis_key(*args) == key


class TestConstWorklist:
    def test_counter_zero_without_constant_seeds(self):
        from repro.hdl.netlist import Netlist

        netlist = Netlist("no_consts")
        netlist.add_net("a", is_input=True)
        netlist.add_net("b", is_input=True)
        netlist.add_cell("AND2", ["a", "b"], "n1")
        netlist.add_cell("XOR2", ["n1", "a"], "n2")
        netlist.add_net("out", is_output=True)
        netlist.add_cell("BUF", ["n2"], "out")
        perf.reset()
        changed = propagate_constants(netlist)
        # no CONST cells and no tied-input pairs: the seeded worklist is
        # empty, so the pass visits nothing instead of sweeping all cells
        assert perf.counter("techmap.const_cells_visited") == 0
        assert changed == 0

    def test_counter_tracks_visits_with_constants(self):
        from repro.hdl.netlist import Netlist

        netlist = Netlist("const_cone")
        netlist.add_net("a", is_input=True)
        netlist.add_cell("CONST0", [], "zero")
        netlist.add_cell("AND2", ["a", "zero"], "n1")
        netlist.add_cell("OR2", ["n1", "a"], "n2")
        netlist.add_net("out", is_output=True)
        netlist.add_cell("BUF", ["n2"], "out")
        perf.reset()
        changed = propagate_constants(netlist)
        assert changed >= 1
        assert perf.counter("techmap.const_cells_visited") >= 1

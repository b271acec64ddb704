"""Design-space explorer: parity, determinism and QoR contracts.

The explorer (``repro.synth.explore``) promises:

* ``TimingEngine.trial_metrics_batch`` returns ``(cps, area)`` per
  move-set lane bit-identical to committing that move set, measuring
  and reverting (``_committed_reference``), on the SoA engine and on the
  scalar oracle engine;
* ``anneal_chain`` walks the same accepted-move sequence whether it
  scores through the grouped kernel or through the scalar oracle
  engine's commit-measure-revert lanes — same final bindings, same QoR;
* the multi-start reduction is bit-identical across the thread and
  process backends and independent of completion order;
* ``explore_sizing`` never worsens the lexicographic
  ``(timing violation, area)`` QoR of its input.

These tests pit production against the references on
hypothesis-generated netlists and on the full OpenCores corpus.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import get_benchmark
from repro.designs.opencores import benchmark_names
from repro.hdl import elaborate
from repro.rand import rng as seeded_rng
from repro.synth import (
    Constraints,
    DCShell,
    PassContext,
    explore_sizing,
    get_wireload,
    nangate45,
    sizing_neighbors,
)
from repro.synth.explore import (
    ExploreConfig,
    anneal_chain,
    default_budget,
    default_chains,
    reduce_chains,
    run_chains,
)
from repro.synth.techmap import map_to_library

from ..oracles.passes import scalar_context
from .test_soa_parity import _engine, random_mapped_netlist

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")
NEIGHBORS = sizing_neighbors(LIBRARY)


def _random_lanes(netlist, rng, count=6, max_gates=3):
    """Randomized multi-gate move sets against the current bindings."""
    sizable = [
        (name, cell.lib_cell)
        for name, cell in netlist.cells.items()
        if cell.lib_cell is not None and NEIGHBORS.get(cell.lib_cell)
    ]
    if not sizable:
        return []
    lanes = []
    for _ in range(count):
        width = min(len(sizable), 1 + rng.randrange(max_gates))
        chosen = {}
        for _ in range(width * 4):
            if len(chosen) >= width:
                break
            name, bound = sizable[rng.randrange(len(sizable))]
            if name in chosen:
                continue
            options = NEIGHBORS[bound]
            chosen[name] = options[rng.randrange(len(options))]
        lanes.append(sorted(chosen.items()))
    return lanes


def _committed_reference(engine, lanes):
    """(cps, area) per lane by committing, measuring and reverting."""
    cells = engine.netlist.cells
    out = []
    for lane in lanes:
        previous = [(cells[name], cells[name].lib_cell) for name, _ in lane]
        for name, lib_name in lane:
            cells[name].lib_cell = lib_name
        out.append((engine.trial_cps(), engine.total_area()))
        for cell, prev in previous:
            cell.lib_cell = prev
    return out


@functools.lru_cache(maxsize=None)
def _mapped_benchmark(name):
    bench = get_benchmark(name)
    netlist = elaborate(bench.verilog, bench.top)
    map_to_library(netlist, LIBRARY)
    return netlist, bench.clock_period


class TestTrialMetricsBatch:
    @settings(max_examples=20, deadline=None)
    @given(random_mapped_netlist(), st.integers(0, 2**32 - 1))
    def test_matches_committed_state(self, case, seed):
        """Grouped lanes == commit-measure-revert, vector and scalar."""
        netlist, constraints = case
        lanes = _random_lanes(netlist, seeded_rng(seed, "lanes"))
        if not lanes:
            return
        for vector in (True, False):
            engine = _engine(netlist, constraints, vector)
            engine.analyze(with_paths=False)
            got = engine.trial_metrics_batch(lanes)
            expected = _committed_reference(engine, lanes)
            assert got == expected, ("vector" if vector else "scalar")

    @pytest.mark.parametrize("design", benchmark_names())
    def test_opencores_grouped_matches_fallback(self, design):
        """Grouped kernel scoring vs commit-measure-revert: bit-exact
        CP/area on the full corpus for randomized multi-gate move sets,
        measured on the SoA engine and on the scalar oracle engine."""
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.95)
        engine = _engine(netlist, constraints, True)
        engine.analyze(with_paths=False)
        lanes = _random_lanes(netlist, seeded_rng(0, "corpus", design))
        grouped = engine.trial_metrics_batch(lanes)
        assert grouped == _committed_reference(engine, lanes)
        scalar = _engine(netlist, constraints, False)
        assert grouped == _committed_reference(scalar, lanes)


def _chain_outcome(netlist, constraints, config, seed, reference=False):
    """One chain on a clone; ``reference`` scores on the scalar oracle."""
    local = netlist.clone()
    context = (
        scalar_context(local, LIBRARY, WIRELOAD, constraints)
        if reference else None
    )
    result = anneal_chain(
        local, LIBRARY, WIRELOAD, constraints,
        dataclasses.replace(config, seed=seed), context=context,
    )
    return result, {
        name: cell.lib_cell for name, cell in local.cells.items()
    }


class TestAnnealChain:
    @settings(max_examples=10, deadline=None)
    @given(random_mapped_netlist(), st.integers(0, 2**16 - 1))
    def test_grouped_and_fallback_chains_identical(self, case, seed):
        """Same seed, grouped kernel vs scalar commit-measure-revert
        scoring: same walk, same final netlist."""
        netlist, constraints = case
        config = ExploreConfig(budget=16, chains=1, batch=4, max_gates=2)
        grouped = _chain_outcome(netlist, constraints, config, seed)
        reference = _chain_outcome(
            netlist, constraints, config, seed, reference=True
        )
        assert grouped == reference

    @pytest.mark.parametrize("design", benchmark_names())
    def test_opencores_chain_matches_reference(self, design):
        netlist, period = _mapped_benchmark(design)
        constraints = Constraints(clock_period=period * 0.9)
        config = ExploreConfig(budget=24, chains=1, batch=8)
        grouped = _chain_outcome(netlist, constraints, config, 5)
        reference = _chain_outcome(
            netlist, constraints, config, 5, reference=True
        )
        assert grouped == reference
        assert grouped[0].accepted > 0  # the walk actually moved

    def test_chain_never_worsens_start_state(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.6)
        config = ExploreConfig(budget=24, chains=1)
        engine = _engine(netlist, constraints, True)
        start_cps = engine.trial_cps()
        start_area = engine.total_area()
        result = anneal_chain(netlist, LIBRARY, WIRELOAD, constraints, config)
        start_key = (max(0.0, -start_cps), start_area)
        assert result.cost <= start_key
        assert result.trials == 24


class TestMultiStart:
    def test_thread_and_process_backends_identical(self, monkeypatch):
        netlist, period = _mapped_benchmark("riscv32i")
        constraints = Constraints(clock_period=period * 0.7)
        config = ExploreConfig(budget=16, chains=2, batch=8, seed=11)
        outcomes = {}
        for backend in ("thread", "process"):
            monkeypatch.setenv("REPRO_PARALLEL_BACKEND", backend)
            outcomes[backend] = run_chains(
                netlist.clone(), LIBRARY, WIRELOAD, constraints, config,
                jobs=2,
            )
        assert outcomes["thread"] == outcomes["process"]
        assert len(outcomes["thread"]) == 2

    def test_reduction_is_order_independent(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        constraints = Constraints(clock_period=period * 0.7)
        config = ExploreConfig(budget=12, chains=3, seed=4)
        results = run_chains(
            netlist.clone(), LIBRARY, WIRELOAD, constraints, config, jobs=1
        )
        winner = reduce_chains(results)
        assert winner is not None
        for rotation in range(len(results)):
            shuffled = results[rotation:] + results[:rotation]
            assert reduce_chains(shuffled) == winner


_HASH_SEED_RUN = """
import sys
from repro.designs import get_benchmark
from repro.eval import baseline_script
from repro.synth import DCShell

bench = get_benchmark("ethmac")
lines = baseline_script(bench).splitlines()
lines.insert(
    next(i for i, line in enumerate(lines) if line.startswith("report")),
    "explore_sizing -budget 24 -chains 2 -seed 1",
)
shell = DCShell()
shell.add_design(bench.name, bench.verilog, bench.top)
result = shell.run_script("\\n".join(lines))
assert result.success, result.error
report = shell._engine().analyze()
print(repr(shell.qor()))
print(repr(sorted(report.endpoint_slacks.items())))
"""


class TestHashSeedDeterminism:
    def test_explore_qor_independent_of_hash_seed(self):
        """String-hash order must not reach the netlist: the same compile
        plus explore in two interpreters with different ``PYTHONHASHSEED``
        gives the same QoR and the same full-precision endpoint slacks."""
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src), env.get("PYTHONPATH", "")]
            )
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_RUN],
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestGating:
    def test_env_defaults_latched_by_resolved(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPLORE_CHAINS", "5")
        monkeypatch.setenv("REPRO_EXPLORE_BUDGET", "77")
        config = ExploreConfig().resolved()
        assert (config.chains, config.budget) == (5, 77)
        explicit = ExploreConfig(budget=9, chains=1).resolved()
        assert (explicit.chains, explicit.budget) == (1, 9)

    def test_default_helpers(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPLORE_CHAINS", raising=False)
        monkeypatch.delenv("REPRO_EXPLORE_BUDGET", raising=False)
        assert default_chains() == 2
        assert default_budget() == 240


class TestExploreSizingPass:
    def test_pass_never_worsens_qor(self):
        netlist, period = _mapped_benchmark("riscv32i")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.6)
        context = PassContext(netlist, LIBRARY, WIRELOAD, constraints)
        result = explore_sizing(
            netlist, LIBRARY, WIRELOAD, constraints,
            budget=20, seed=2, chains=2, context=context,
        )
        before = (max(0.0, -result.wns_before), result.area_before)
        after = (max(0.0, -result.wns_after), result.area_after)
        assert after <= before

    def test_dcshell_command(self):
        bench = get_benchmark("dynamic_node")
        shell = DCShell()
        shell.add_design("dynamic_node", bench.verilog, bench.top)
        result = shell.run_script(
            "\n".join(
                [
                    "read_verilog dynamic_node",
                    f"create_clock -period {bench.clock_period * 0.6}",
                    "compile",
                    "explore_sizing -budget 16 -chains 1 -seed 3",
                    "report_qor",
                ]
            )
        )
        assert result.success, result.error
        out = next(
            out for line, out in result.transcript
            if line.startswith("explore_sizing")
        )
        assert out.startswith("exploration:")

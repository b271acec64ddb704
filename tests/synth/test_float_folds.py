"""Whole-design float totals do not depend on the Python version.

CPython 3.12 made ``sum()`` of floats compensated (Neumaier summation),
so a ``sum()`` total no longer equals the kernels' strict left-to-right
``cumsum`` folds in its low bits.  These tests replace ``builtins.sum``
with such a compensated sum and check that the area and power totals
still agree across the kernel path, the pending-resize fallback and the
scalar oracle — i.e. that none of them goes through ``sum()``.
"""

import builtins
import math

import pytest

from repro.designs import get_benchmark
from repro.synth import Constraints, TimingEngine, get_wireload, nangate45
from repro.synth.dcshell import DCShell

from ..oracles.timing import ScalarTimingEngine

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")
_BUILTIN_SUM = builtins.sum


def _compensated_sum(values, start=0):
    """``sum()`` with the Neumaier compensation CPython 3.12 uses for floats."""
    items = list(values)
    if not all(isinstance(v, float) for v in items):
        return _BUILTIN_SUM(items, start)
    total = float(start)
    comp = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_compensated_sum_differs_from_left_fold():
    values = [0.1] * 10
    left = 0.0
    for v in values:
        left += v
    assert _compensated_sum(values) == 1.0 != left


@pytest.fixture(scope="module")
def compiled():
    bench = get_benchmark("aes")
    shell = DCShell()
    shell.add_design("aes", bench.verilog, bench.top)
    result = shell.run_script(
        f"read_verilog aes\ncreate_clock -period {bench.clock_period}\ncompile"
    )
    assert result.success, result.error
    return shell.netlist, Constraints(clock_period=bench.clock_period)


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", _compensated_sum)


def _resizable(netlist):
    for cell in netlist.cells.values():
        if cell.lib_cell is None:
            continue
        variants = LIBRARY.variants(LIBRARY.cell(cell.lib_cell).function)
        for variant in variants:
            if variant.name != cell.lib_cell:
                return cell, variant.name
    raise AssertionError("no resizable cell")


def test_total_area_same_with_pending_resize(compiled, compensated):
    netlist, constraints = compiled
    netlist = netlist.clone()
    engine = TimingEngine(netlist, LIBRARY, WIRELOAD, constraints)
    engine.analyze(with_paths=False)
    committed = engine.total_area()  # kernel cumsum
    cell, other = _resizable(netlist)
    original = cell.lib_cell
    cell.lib_cell = other
    pending = engine.total_area()  # Python fold over the cells
    engine.analyze(with_paths=False)
    assert engine.total_area() == pending
    cell.lib_cell = original
    assert engine.total_area() == committed


def test_production_area_and_power_equal_oracle(compiled, compensated):
    netlist, constraints = compiled
    production = TimingEngine(netlist, LIBRARY, WIRELOAD, constraints)
    oracle = ScalarTimingEngine(netlist, LIBRARY, WIRELOAD, constraints)
    production.analyze(with_paths=False)
    oracle.analyze(with_paths=False)
    assert production.total_area() == oracle.total_area()
    assert production.total_leakage() == oracle.total_leakage()
    assert production.dynamic_power() == oracle.dynamic_power()
    assert production.analyze().tns == oracle.analyze().tns

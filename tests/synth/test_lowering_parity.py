"""Parity: the vectorized SoA lowering == the per-cell reference lowering.

``SoAStructure`` extracts flat index arrays in one pass over the cells
and one over the nets and derives pin counts, pair segments, fanouts,
endpoint orders and levels in numpy.  Every field must equal the
per-cell dict walk in ``tests/oracles/soa.py`` — values and dtypes —
except the order of cells within a level, which is compared as a set
(with each cell's output net and input pins).  Cyclic netlists must be
rejected by both with ``NetlistError``.  The QoR snapshot's counts and
leakage, read from the lowering and the kernel's binding rows, must
equal the netlist-object walks they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import get_benchmark
from repro.designs.opencores import benchmark_names
from repro.hdl.netlist import Netlist, NetlistError
from repro.synth.dcshell import DCShell
from repro.synth.soa import SoAStructure
from repro.synth.timing import strict_sum

from ..oracles.soa import ReferenceLowering

_ARRAYS = (
    "pair_net", "pair_cell", "pair_pins", "pair_ptr", "fanout", "ext_cap",
    "net_is_output", "net_is_clock", "net_is_input", "net_has_driver",
    "cell_out", "cell_is_seq", "cell_is_const", "cell_level",
    "pi_nets", "pi_is_clock",
    "seq_cells", "seq_out", "seq_d",
    "const_out", "const0_out", "const1_out", "po_nets",
)
_PLAIN = (
    "net_names", "net_index", "cell_names", "cell_index",
    "num_nets", "num_cells", "cell_gate", "seq_names", "po_names",
)


def _level_sets(structure):
    """Per level: ``{cell: (output net, input nets)}``."""
    levels = []
    for lvl in structure.levels:
        ptr = lvl.in_ptr.tolist()
        nets = lvl.in_net.tolist()
        levels.append(
            {
                cell: (out, tuple(nets[ptr[i] : ptr[i + 1]]))
                for i, (cell, out) in enumerate(
                    zip(lvl.cells.tolist(), lvl.out.tolist())
                )
            }
        )
    return levels


def assert_lowerings_equal(got, ref):
    for name in _PLAIN:
        assert getattr(got, name) == getattr(ref, name), name
    for name in _ARRAYS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        assert np.array_equal(a, b), name
    assert len(got.levels) == len(ref.levels)
    for lvl in got.levels:
        for field in ("cells", "out", "in_ptr", "in_net"):
            assert getattr(lvl, field).dtype == np.intp, field
    assert _level_sets(got) == _level_sets(ref)


def _lower_both(netlist):
    """Both lowerings, or the ``NetlistError`` messages both raised."""
    outcomes = []
    for lower in (SoAStructure, ReferenceLowering):
        try:
            outcomes.append(lower(netlist))
        except NetlistError as exc:
            outcomes.append(str(exc))
    return outcomes


_GATES = ["AND2", "OR2", "XOR2", "NAND2", "MUX2", "AOI21", "NOT", "BUF"]


@st.composite
def generic_netlist(draw, max_gates=24):
    """A generic netlist with the pin patterns the lowering must count.

    Repeated input nets on one cell, registers (one clocked by a net it
    also reads as data), constants, undriven nets, primary outputs that
    cells read, and — after random input rewires — possibly
    combinational cycles.
    """
    netlist = Netlist("gen")
    netlist.add_net("clk", is_input=True, is_clock=True)
    nets = ["clk"]
    for i in range(draw(st.integers(1, 4))):
        nets.append(netlist.add_net(f"in{i}", is_input=True).name)
    for i in range(draw(st.integers(0, 2))):
        nets.append(netlist.add_net(f"floating{i}").name)  # never driven
    for i in range(draw(st.integers(0, 2))):
        gate = draw(st.sampled_from(["CONST0", "CONST1"]))
        nets.append(netlist.add_cell(gate, [], f"k{i}").output)
    regs = []
    for r in range(draw(st.integers(0, 3))):
        data = "clk" if draw(st.booleans()) else draw(st.sampled_from(nets))
        regs.append(netlist.add_cell("DFF", [data], f"q{r}", clock="clk"))
        nets.append(f"q{r}")
    pos = []
    gates = []
    for g in range(draw(st.integers(1, max_gates))):
        gate = draw(st.sampled_from(_GATES))
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3, "AOI21": 3}.get(gate, 2)
        inputs = [draw(st.sampled_from(nets)) for _ in range(arity)]
        is_po = draw(st.integers(0, 5)) == 0
        out = f"g{g}"
        if is_po:
            netlist.add_net(out, is_output=True)
            pos.append(out)
        gates.append(netlist.add_cell(gate, inputs, out))
        nets.append(out)
    if not pos:
        port = netlist.add_net("out", is_output=True)
        netlist.add_cell("BUF", [nets[-1]], port.name)
    for reg in regs:
        netlist.rewire_input(reg.name, reg.inputs[0], draw(st.sampled_from(nets)))
    for _ in range(draw(st.integers(0, 2))):
        # a gate output as the new input may close a combinational loop
        cell = draw(st.sampled_from(gates))
        old = draw(st.sampled_from(cell.inputs))
        pool = [g.output for g in gates] if draw(st.booleans()) else nets
        netlist.rewire_input(cell.name, old, draw(st.sampled_from(pool)))
    return netlist


class TestGeneratedNetlists:
    @settings(max_examples=60, deadline=None)
    @given(generic_netlist())
    def test_lowering_matches_reference(self, netlist):
        got, ref = _lower_both(netlist)
        if isinstance(ref, str):
            assert got == ref == "combinational cycle detected"
            return
        assert not isinstance(got, str), got
        assert_lowerings_equal(got, ref)

    def test_comb_cycle_rejected_by_both(self):
        netlist = Netlist("loop")
        netlist.add_net("a", is_input=True)
        netlist.add_cell("AND2", ["a", "y"], "x")
        netlist.add_cell("NOT", ["x"], "y")
        port = netlist.add_net("o", is_output=True)
        netlist.add_cell("BUF", ["y"], port.name)
        assert _lower_both(netlist) == ["combinational cycle detected"] * 2

    def test_register_breaks_cycle(self):
        netlist = Netlist("loop")
        netlist.add_net("clk", is_input=True, is_clock=True)
        netlist.add_net("a", is_input=True)
        netlist.add_cell("AND2", ["a", "q"], "x")
        netlist.add_cell("DFF", ["x"], "q", clock="clk")
        port = netlist.add_net("o", is_output=True)
        netlist.add_cell("AND2", ["x", "x"], port.name)
        got, ref = _lower_both(netlist)
        assert_lowerings_equal(got, ref)
        assert got.pair_pins.tolist().count(2.0) == 1  # x read twice by o


@pytest.fixture(scope="module", params=benchmark_names())
def compiled(request):
    design = request.param
    bench = get_benchmark(design)
    shell = DCShell()
    shell.add_design(design, bench.verilog, bench.top)
    result = shell.run_script(
        f"read_verilog {design}\n"
        f"create_clock -period {bench.clock_period}\n"
        "compile_ultra"
    )
    assert result.success, result.error
    return shell


def _strict_leakage(shell) -> float:
    """Leakage as the left-to-right fold over the cells' bindings."""
    library = shell.library
    return strict_sum(
        (
            library.cell(cell.lib_cell)
            if cell.lib_cell is not None and cell.lib_cell in library
            else library.weakest(cell.gate)
        ).leakage
        for cell in shell.netlist.cells.values()
        if cell.gate not in ("CONST0", "CONST1")
    )


def _assert_snapshot_matches_walks(shell):
    snap = shell.qor()
    stats = shell.netlist.stats()
    assert snap.num_cells == stats["cells"]
    assert snap.num_registers == stats["sequential"]
    assert snap.max_fanout == stats["max_fanout"]
    assert type(snap.max_fanout) is int
    assert shell._engine().total_leakage() == _strict_leakage(shell)
    assert snap.leakage_nw == round(_strict_leakage(shell), 1)


class TestOpenCoresLowering:
    def test_compiled_design_matches_reference(self, compiled):
        netlist = compiled.netlist
        assert_lowerings_equal(SoAStructure(netlist), ReferenceLowering(netlist))

    def test_qor_snapshot_matches_netlist_walks(self, compiled):
        """Snapshot counts and leakage read from the SoA arrays equal the
        ``Netlist.stats`` walk and the strict fold, before and after a
        resize the kernel has not folded yet."""
        _assert_snapshot_matches_walks(compiled)
        engine = compiled._engine()
        library = compiled.library
        cell = next(
            c for c in compiled.netlist.cells.values()
            if c.lib_cell is not None
            and len(library.variants(library.cell(c.lib_cell).function)) > 1
        )
        original = cell.lib_cell
        cell.lib_cell = next(
            v.name for v in library.variants(library.cell(original).function)
            if v.name != original
        )
        try:
            assert engine.total_leakage() == _strict_leakage(compiled)  # pending
            _assert_snapshot_matches_walks(compiled)
        finally:
            cell.lib_cell = original
        _assert_snapshot_matches_walks(compiled)

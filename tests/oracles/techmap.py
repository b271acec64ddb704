"""Rescanning cleanup references: every pass re-walks the whole netlist.

The production passes in :mod:`repro.synth.techmap` seed their worklists
from the cells that can change, stop as soon as another round is
provably a no-op, skip passes already at their fixpoint and journal one
``structure`` event per :func:`~repro.synth.techmap.cleanup`.  The
passes here are the direct formulations they replaced: full-netlist
sweeps repeated until nothing changes, one journal event per edit.
Both must make the same folds, merges and removals in the same order,
so the netlists they leave agree in cell and net dict order, every
field, sink orders, port lists and the uid counter
(``tests/synth/test_cleanup_parity.py``).
"""

from __future__ import annotations

from repro import perf
from repro.hdl.netlist import Netlist
from repro.synth.library import TechLibrary


def map_to_library(netlist: Netlist, library: TechLibrary) -> int:
    """Bind each generic gate to the weakest drive variant of its function."""
    mapped = 0
    for cell in netlist.cells.values():
        if cell.gate in ("CONST0", "CONST1"):
            cell.lib_cell = None
            continue
        cell.lib_cell = library.weakest(cell.gate).name
        mapped += 1
    return mapped


def _replace_net_everywhere(netlist: Netlist, old: str, new: str) -> None:
    """Redirect all readers of ``old`` (sinks + output port) to ``new``."""
    old_net = netlist.nets[old]
    for sink_name in list(old_net.sinks):
        sink = netlist.cells[sink_name]
        if old in sink.inputs:
            netlist.rewire_input(sink_name, old, new)
        if sink.attrs.get("clock") == old:
            netlist.rewire_clock(sink_name, new)
    if old_net.is_output:
        # Keep the port net: drive it with a buffer from ``new`` instead.
        if old_net.driver is None:
            netlist.add_cell("BUF", [new], old)


def merge_inverters(netlist: Netlist, library: TechLibrary) -> int:
    """Absorb NOT cells into preceding AND2/OR2, forming NAND2/NOR2.

    Applied only when the AND/OR drives nothing but the inverter, so the
    merge is always a strict area/delay win.
    """
    merged = 0
    partner = {"AND2": "NAND2", "OR2": "NOR2", "NAND2": "AND2", "NOR2": "OR2",
               "XOR2": "XNOR2", "XNOR2": "XOR2"}
    for not_name in [n for n, c in netlist.cells.items() if c.gate == "NOT"]:
        not_cell = netlist.cells.get(not_name)
        if not_cell is None or not_cell.gate != "NOT":
            continue
        src_net = not_cell.inputs[0]
        driver = netlist.driver_cell(src_net)
        if driver is None or driver.gate not in partner:
            continue
        if netlist.fanout(src_net) != 1 or netlist.nets[src_net].is_output:
            continue
        new_gate = partner[driver.gate]
        if not library.variants(new_gate):
            continue
        out_net = not_cell.output
        inputs = list(driver.inputs)
        netlist.remove_cell(not_name)
        netlist.remove_cell(driver.name)
        cell = netlist.add_cell(new_gate, inputs, out_net)
        cell.lib_cell = library.weakest(new_gate).name
        merged += 1
    return merged


def remove_buffers(
    netlist: Netlist, keep_port_buffers: bool = True, flatten: bool = False
) -> int:
    """Collapse BUF cells (and INV pairs) by rewiring sinks to the source.

    Buffers driving primary outputs are kept when ``keep_port_buffers`` so
    port nets always have a driver.  Buffers inserted intentionally by
    fanout optimization (attr ``fanout_buffer``) are preserved; buffers
    marking hierarchy boundaries (attr ``hierarchy``) are preserved unless
    ``flatten`` is set — this is what ungroup/set_flatten buy you.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in [n for n, c in netlist.cells.items() if c.gate == "BUF"]:
            cell = netlist.cells.get(name)
            if cell is None:
                continue
            if cell.attrs.get("fanout_buffer"):
                continue
            if cell.attrs.get("hierarchy") and not flatten:
                continue
            out_net = netlist.nets[cell.output]
            if out_net.is_output and keep_port_buffers:
                continue
            src = cell.inputs[0]
            out = cell.output
            netlist.remove_cell(name)
            _replace_net_everywhere(netlist, out, src)
            removed += 1
            changed = True
    # NOT(NOT(x)) -> x
    for name in [n for n, c in netlist.cells.items() if c.gate == "NOT"]:
        outer = netlist.cells.get(name)
        if outer is None or outer.gate != "NOT":
            continue
        inner = netlist.driver_cell(outer.inputs[0])
        if inner is None or inner.gate != "NOT":
            continue
        out_net = netlist.nets[outer.output]
        if out_net.is_output:
            continue
        src = inner.inputs[0]
        out = outer.output
        netlist.remove_cell(name)
        _replace_net_everywhere(netlist, out, src)
        removed += 1
    return removed


def propagate_constants(netlist: Netlist) -> int:
    """Fold gates fed by CONST0/CONST1 drivers.  Iterates to fixpoint.

    Visits are worklist-driven: only cells with a constant-driven input or
    tied-together input pins can fold, and a cell only *becomes* foldable
    when a fold rewires one of its inputs — so the pending set is seeded
    from the constant drivers and refilled with the rewired readers of
    each fold.  The per-sweep walk still follows ``netlist.cells``
    insertion order, checking live pending membership, which reproduces
    the fold sequence of the original full rescan exactly (a rescan's
    visit to a non-pending cell was always a no-op): identical folds in
    identical order, hence identical generated net/cell names.  The
    number of cells actually visited lands on the
    ``techmap.const_cells_visited`` perf counter.
    """
    folded = 0
    visits = 0
    const_net = {}
    for cell in netlist.cells.values():
        if cell.gate == "CONST0":
            const_net[0] = cell.output
        elif cell.gate == "CONST1":
            const_net[1] = cell.output

    def value_of(net_name: str) -> int | None:
        driver = netlist.driver_cell(net_name)
        if driver is None:
            return None
        if driver.gate == "CONST0":
            return 0
        if driver.gate == "CONST1":
            return 1
        return None

    def ensure_const(value: int) -> str:
        if value not in const_net:
            net = netlist.add_net()
            netlist.add_cell("CONST1" if value else "CONST0", [], net.name)
            const_net[value] = net.name
        return const_net[value]

    pending: set[str] = set()
    for name, cell in netlist.cells.items():
        if cell.gate in ("CONST0", "CONST1", "DFF"):
            continue
        if len(cell.inputs) == 2 and cell.inputs[0] == cell.inputs[1]:
            pending.add(name)
        elif any(value_of(n) is not None for n in cell.inputs):
            pending.add(name)
    changed = True
    while changed and pending:
        changed = False
        for name in list(netlist.cells):
            if name not in pending:
                continue
            pending.discard(name)
            cell = netlist.cells.get(name)
            if cell is None or cell.gate in ("CONST0", "CONST1", "DFF"):
                continue
            if cell.attrs.get("port_tie"):
                continue  # constant tie driving a port: already final
            visits += 1
            vals = [value_of(n) for n in cell.inputs]
            same = len(cell.inputs) == 2 and cell.inputs[0] == cell.inputs[1]
            result = _fold(cell.gate, vals, same_inputs=same)
            if result is None:
                continue
            kind, payload = result
            out = cell.output
            pass_net = cell.inputs[payload] if kind in ("wire", "not") else None
            if netlist.nets[out].is_output:
                # Port nets must keep a driver; a constant result becomes a
                # BUF tie-off that is never re-folded (else the fold loop
                # would oscillate removing and re-adding it).
                netlist.remove_cell(name)
                if kind == "const":
                    netlist.add_cell(
                        "BUF", [ensure_const(payload)], out, port_tie=True
                    )
                else:
                    netlist.add_cell(
                        "BUF" if kind == "wire" else "NOT", [pass_net], out
                    )
                folded += 1
                changed = True
                continue
            # Readers about to be rewired may become foldable; queue them
            # before the rewire detaches them from this net.
            readers = list(netlist.nets[out].sinks)
            netlist.remove_cell(name)
            if kind == "const":
                source = ensure_const(payload)
            elif kind == "wire":
                source = pass_net
            else:  # "not"
                inv_net = netlist.add_net()
                netlist.add_cell("NOT", [pass_net], inv_net.name)
                source = inv_net.name
            _replace_net_everywhere(netlist, out, source)
            pending.update(readers)
            folded += 1
            changed = True
    perf.incr("techmap.const_cells_visited", visits)
    return folded


def _fold(gate: str, vals: list[int | None], same_inputs: bool = False):
    """Constant-folding rules; returns (kind, payload) or None."""
    if same_inputs:
        # Both pins tied to one net: idempotent/annihilating identities.
        identities = {
            "AND2": ("wire", 0),
            "OR2": ("wire", 0),
            "XOR2": ("const", 0),
            "XNOR2": ("const", 1),
            "NAND2": ("not", 0),
            "NOR2": ("not", 0),
        }
        if gate in identities:
            return identities[gate]
    known = [(i, v) for i, v in enumerate(vals) if v is not None]
    if not known:
        return None
    if all(v is not None for v in vals):
        table = {
            "NOT": lambda v: 1 - v[0],
            "BUF": lambda v: v[0],
            "AND2": lambda v: v[0] & v[1],
            "OR2": lambda v: v[0] | v[1],
            "NAND2": lambda v: 1 - (v[0] & v[1]),
            "NOR2": lambda v: 1 - (v[0] | v[1]),
            "XOR2": lambda v: v[0] ^ v[1],
            "XNOR2": lambda v: 1 - (v[0] ^ v[1]),
            "MUX2": lambda v: v[2] if v[0] else v[1],
        }
        if gate in table:
            return ("const", table[gate](vals))
        return None
    idx, val = known[0]
    other = 1 - idx if gate != "MUX2" else None
    if gate == "AND2":
        return ("const", 0) if val == 0 else ("wire", other)
    if gate == "OR2":
        return ("const", 1) if val == 1 else ("wire", other)
    if gate == "NAND2":
        return ("const", 1) if val == 0 else ("not", other)
    if gate == "NOR2":
        return ("const", 0) if val == 1 else ("not", other)
    if gate == "XOR2":
        return ("wire", other) if val == 0 else ("not", other)
    if gate == "XNOR2":
        return ("not", other) if val == 0 else ("wire", other)
    if gate == "MUX2" and idx == 0:
        # select pin constant: pass through the chosen data pin
        return ("wire", 2 if val == 1 else 1)
    return None


def sweep_dead_cells(netlist: Netlist) -> int:
    """Remove cells whose outputs reach no primary output and no register."""
    # Liveness is the transitive fanin of the primary outputs; registers are
    # traversed like any other cell, so unread registers die too.
    live_nets: set[str] = set(netlist.primary_outputs)
    stack = list(live_nets)
    live_cells: set[str] = set()
    while stack:
        net_name = stack.pop()
        driver = netlist.nets[net_name].driver
        if driver is None or driver in live_cells:
            continue
        live_cells.add(driver)
        cell = netlist.cells[driver]
        for net_in in cell.inputs:
            stack.append(net_in)
        if "clock" in cell.attrs:
            stack.append(cell.attrs["clock"])
    dead = [name for name in netlist.cells if name not in live_cells]
    # Removal order: repeatedly drop cells whose output has no sinks.
    removed = 0
    dead_set = set(dead)
    progress = True
    while dead_set and progress:
        progress = False
        for name in list(dead_set):
            cell = netlist.cells[name]
            out_net = netlist.nets[cell.output]
            if not out_net.sinks and not out_net.is_output:
                netlist.remove_cell(name)
                dead_set.discard(name)
                removed += 1
                progress = True
    return removed


_COMMUTATIVE = frozenset({"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"})


def share_logic(netlist: Netlist) -> int:
    """Structural hashing: merge gates computing identical functions.

    Two combinational gates with the same type and the same input nets
    (order-insensitive for commutative gates) compute the same value; all
    but one are removed and their readers rewired — the classical
    "strash" / common-subexpression-sharing step.  Iterates to a fixpoint
    so chains of duplicates collapse fully.
    """
    merged = 0
    changed = True
    while changed:
        changed = False
        table: dict[tuple, str] = {}
        for name in list(netlist.cells):
            cell = netlist.cells.get(name)
            if cell is None or cell.is_sequential:
                continue
            if cell.gate in ("CONST0", "CONST1"):
                continue
            inputs = (
                tuple(sorted(cell.inputs))
                if cell.gate in _COMMUTATIVE
                else tuple(cell.inputs)
            )
            key = (cell.gate, inputs)
            canonical = table.get(key)
            if canonical is None:
                table[key] = name
                continue
            keeper = netlist.cells[canonical]
            out_net = netlist.nets[cell.output]
            if out_net.is_output:
                # Keep port nets driven; swap roles so the port-driving
                # copy is the canonical one when possible.
                if netlist.nets[keeper.output].is_output:
                    continue  # both drive ports; leave them
                table[key] = name
                cell, keeper = keeper, netlist.cells[name]
            dup_out = cell.output
            netlist.remove_cell(cell.name)
            _replace_net_everywhere(netlist, dup_out, keeper.output)
            merged += 1
            changed = True
    return merged


def cleanup(
    netlist: Netlist,
    library: TechLibrary | None = None,
    flatten: bool = False,
) -> dict[str, int]:
    """Run the structural passes to a fixpoint; returns per-pass counts."""
    totals = {"constants": 0, "buffers": 0, "inverters": 0, "dead": 0, "shared": 0}
    for _ in range(8):
        changed = 0
        changed += (n := propagate_constants(netlist))
        totals["constants"] += n
        changed += (n := remove_buffers(netlist, flatten=flatten))
        totals["buffers"] += n
        changed += (n := share_logic(netlist))
        totals["shared"] += n
        if library is not None:
            changed += (n := merge_inverters(netlist, library))
            totals["inverters"] += n
        changed += (n := sweep_dead_cells(netlist))
        totals["dead"] += n
        if changed == 0:
            break
    return totals

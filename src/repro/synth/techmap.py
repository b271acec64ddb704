"""Technology mapping and structural cleanup passes.

These passes operate in place on a :class:`~repro.hdl.netlist.Netlist`:

* :func:`map_to_library` — bind every generic gate to a library cell.
* :func:`merge_inverters` — NAND/NOR pattern absorption (AND+NOT -> NAND).
* :func:`remove_buffers` — collapse BUF cells and double inverters.
* :func:`propagate_constants` — fold gates with constant inputs.
* :func:`sweep_dead_cells` — drop logic with no path to any output.
* :func:`share_logic` — merge structurally identical gates.

Each returns the number of cells it changed/removed so callers can iterate
to a fixpoint; :func:`cleanup` does, inside one
:meth:`~repro.hdl.netlist.Netlist.bulk_edit` scope.

The passes only look where an edit can happen: constant folding walks a
worklist seeded from the readers of constant nets and tied-input gates,
structural hashing stops after the first round that leaves every hashed
key current, dead-cell removal walks back from the sinkless dead cells,
and :func:`cleanup` skips a pass still at its fixpoint.  Each makes the
same edits in the same order as a full rescan to fixpoint would — the
references in ``tests/oracles/techmap.py`` — so cell and net names,
dict and sink orders and the uid counter come out identical.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .. import perf
from ..hdl.netlist import Cell, Netlist
from .library import TechLibrary

__all__ = [
    "map_to_library",
    "merge_inverters",
    "remove_buffers",
    "propagate_constants",
    "sweep_dead_cells",
    "share_logic",
    "map_complex_gates",
    "cleanup",
]

_CONSTS = ("CONST0", "CONST1")
#: Gates constant folding and structural hashing never touch.
_UNFOLDED = ("CONST0", "CONST1", "DFF")


def map_to_library(netlist: Netlist, library: TechLibrary) -> int:
    """Bind each generic gate to the weakest drive variant of its function."""
    mapped = 0
    weakest: dict[str, str] = {}
    for cell in netlist.cells.values():
        gate = cell.gate
        if gate in _CONSTS:
            cell.lib_cell = None
            continue
        lib_cell = weakest.get(gate)
        if lib_cell is None:
            lib_cell = weakest[gate] = library.weakest(gate).name
        cell.lib_cell = lib_cell
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

    One BUF round suffices: every kept BUF stays kept, and a removal only
    adds a BUF when it empties a port net, which a kept port buffer never
    lets happen.
    """
    cells = netlist.cells
    nets = netlist.nets
    # BUF removal neither adds nor removes NOT cells, so both lists come
    # from one scan
    bufs: list[str] = []
    nots: list[str] = []
    for name, cell in cells.items():
        gate = cell.gate
        if gate == "BUF":
            bufs.append(name)
        elif gate == "NOT":
            nots.append(name)
    removed = 0
    for name in bufs:
        cell = cells.get(name)
        if cell is None:
            continue
        if cell.attrs.get("fanout_buffer"):
            continue
        if cell.attrs.get("hierarchy") and not flatten:
            continue
        out = cell.output
        if nets[out].is_output and keep_port_buffers:
            continue
        src = cell.inputs[0]
        netlist.remove_cell(name)
        _replace_net_everywhere(netlist, out, src)
        removed += 1
    # NOT(NOT(x)) -> x
    for name in nots:
        outer = cells.get(name)
        if outer is None or outer.gate != "NOT":
            continue
        inner = netlist.driver_cell(outer.inputs[0])
        if inner is None or inner.gate != "NOT":
            continue
        out = outer.output
        if nets[out].is_output:
            continue
        src = inner.inputs[0]
        netlist.remove_cell(name)
        _replace_net_everywhere(netlist, out, src)
        removed += 1
    return removed


def propagate_constants(netlist: Netlist) -> int:
    """Fold gates fed by CONST0/CONST1 drivers.  Iterates to fixpoint.

    Only a cell with a constant-driven input or tied-together input pins
    can fold, and a cell only *becomes* foldable when a fold rewires one
    of its inputs, so the pending set is seeded from the readers of the
    constant nets and the tied-input gates and refilled with the rewired
    readers of each fold; with nothing pending the pass returns at once.

    Folds happen in the order of repeated sweeps over ``netlist.cells``
    that visit only pending cells: a sweep takes pending cells in dict
    order, and a cell queued behind the cursor, or created during the
    sweep, waits for the next one.  Cell-order positions (new cells
    append) in a heap give that order without walking the dict, so the
    folds, and hence the generated net/cell names, are exactly those of
    the full rescan.  The number of cells actually visited lands on the
    ``techmap.const_cells_visited`` perf counter.
    """
    cells = netlist.cells
    nets = netlist.nets
    # Constant cells are never removed here, so a net's constant value
    # (its driver's) only appears when ensure_const adds a cell.
    const_value: dict[str, int] = {}
    const_net: dict[int, str] = {}  # the last constant cell of each value
    pending: set[str] = set()
    for name, cell in cells.items():
        gate = cell.gate
        if gate == "CONST0":
            const_value[cell.output] = 0
            const_net[0] = cell.output
        elif gate == "CONST1":
            const_value[cell.output] = 1
            const_net[1] = cell.output
        else:
            inputs = cell.inputs
            if len(inputs) == 2 and inputs[0] == inputs[1] and gate != "DFF":
                pending.add(name)
    for out in const_value:
        for reader in nets[out].sinks:
            cell = cells[reader]
            # registers, clock-only readers and port ties never fold
            if (
                cell.gate != "DFF"
                and out in cell.inputs
                and not cell.attrs.get("port_tie")
            ):
                pending.add(reader)
    if not pending:
        perf.incr("techmap.const_cells_visited", 0)
        return 0

    names = list(cells)  # sweep position -> cell name
    position = dict(zip(names, range(len(names))))

    def created(cell: Cell) -> None:
        position[cell.name] = len(names)
        names.append(cell.name)

    def ensure_const(value: int) -> str:
        if value not in const_net:
            net = netlist.add_net()
            created(netlist.add_cell("CONST1" if value else "CONST0", [], net.name))
            const_value[net.name] = value
            const_net[value] = net.name
        return const_net[value]

    folded = 0
    visits = 0
    sweep = sorted(map(position.__getitem__, pending))  # a valid heap
    while sweep:
        end = len(names)  # cells created from here on wait a sweep
        later: list[int] = []
        while sweep:
            cursor = heappop(sweep)
            name = names[cursor]
            pending.discard(name)
            cell = cells.get(name)
            if cell is None or cell.gate in _UNFOLDED:
                continue
            if cell.attrs.get("port_tie"):
                continue  # constant tie driving a port: already final
            visits += 1
            inputs = cell.inputs
            vals = list(map(const_value.get, inputs))
            same = len(inputs) == 2 and inputs[0] == inputs[1]
            result = _fold(cell.gate, vals, same_inputs=same)
            if result is None:
                continue
            kind, payload = result
            out = cell.output
            pass_net = inputs[payload] if kind in ("wire", "not") else None
            if nets[out].is_output:
                # Port nets must keep a driver; a constant result becomes a
                # BUF tie-off that is never re-folded (else the fold loop
                # would oscillate removing and re-adding it).
                netlist.remove_cell(name)
                if kind == "const":
                    tie = netlist.add_cell(
                        "BUF", [ensure_const(payload)], out, port_tie=True
                    )
                else:
                    tie = netlist.add_cell(
                        "BUF" if kind == "wire" else "NOT", [pass_net], out
                    )
                created(tie)
                folded += 1
                continue
            # Readers about to be rewired may become foldable; queue them
            # before the rewire detaches them from this net.
            readers = list(nets[out].sinks)
            netlist.remove_cell(name)
            if kind == "const":
                source = ensure_const(payload)
            elif kind == "wire":
                source = pass_net
            else:  # "not"
                inv_net = netlist.add_net()
                created(netlist.add_cell("NOT", [pass_net], inv_net.name))
                source = inv_net.name
            _replace_net_everywhere(netlist, out, source)
            for reader in readers:
                if reader in pending:
                    continue
                pending.add(reader)
                at = position[reader]
                if cursor < at < end:
                    heappush(sweep, at)
                else:
                    later.append(at)
            folded += 1
        heapify(later)
        sweep = later
    perf.incr("techmap.const_cells_visited", visits)
    return folded


#: Both pins tied to one net: idempotent/annihilating identities.
_TIED_FOLDS = {
    "AND2": ("wire", 0),
    "OR2": ("wire", 0),
    "XOR2": ("const", 0),
    "XNOR2": ("const", 1),
    "NAND2": ("not", 0),
    "NOR2": ("not", 0),
}

#: Output value of each gate with every input known.
_TRUTH = {
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


def _fold(gate: str, vals: list[int | None], same_inputs: bool = False):
    """Constant-folding rules; returns (kind, payload) or None."""
    if same_inputs and gate in _TIED_FOLDS:
        return _TIED_FOLDS[gate]
    unknown = vals.count(None)
    if unknown == len(vals):
        return None
    if not unknown:
        if gate in _TRUTH:
            return ("const", _TRUTH[gate](vals))
        return None
    idx = 0
    while vals[idx] is None:
        idx += 1
    val = vals[idx]
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
    """Remove cells whose outputs reach no primary output and no register.

    Dead cells go when their output has no readers left, so a dead cycle
    (say, a register loop) stays.  Removal walks back from the sinkless
    dead cells: each removal can only empty the nets the removed cell
    read.  Which cells go does not depend on the order, and removals
    never reorder the surviving cells or sinks.
    """
    cells = netlist.cells
    nets = netlist.nets
    # Liveness is the transitive fanin of the primary outputs; registers are
    # traversed like any other cell, so unread registers die too.
    stack = list(netlist.primary_outputs)
    live_cells: set[str] = set()
    while stack:
        driver = nets[stack.pop()].driver
        if driver is None or driver in live_cells:
            continue
        live_cells.add(driver)
        cell = cells[driver]
        stack.extend(cell.inputs)
        if "clock" in cell.attrs:
            stack.append(cell.attrs["clock"])
    if len(live_cells) == len(cells):
        return 0
    ready: list[str] = []  # dead cells whose output nothing reads
    dead: set[str] = set()  # the other dead cells
    for name, cell in cells.items():
        if name not in live_cells:
            out_net = nets[cell.output]
            if out_net.sinks or out_net.is_output:
                dead.add(name)
            else:
                ready.append(name)
    removed = 0
    while ready:
        cell = cells[ready.pop()]
        netlist.remove_cell(cell.name)
        removed += 1
        read = cell.inputs
        if "clock" in cell.attrs:
            read = [*read, cell.attrs["clock"]]
        for net_name in read:
            net = nets[net_name]
            driver = net.driver
            if driver in dead and not net.sinks and not net.is_output:
                dead.discard(driver)
                ready.append(driver)
    return removed


def map_complex_gates(netlist: Netlist, library: TechLibrary) -> int:
    """Merge AND/OR + inverting-gate pairs into AOI21/OAI21 complex cells.

    ``NOR2(AND2(a,b), c) -> AOI21(a,b,c)`` and
    ``NAND2(OR2(a,b), c) -> OAI21(a,b,c)`` whenever the inner gate has a
    single fanout.  One complex cell replaces two simple ones — an area
    and delay win that real libraries exist to provide.
    """
    merged = 0
    patterns = {"NOR2": ("AND2", "AOI21"), "NAND2": ("OR2", "OAI21")}
    for name in list(netlist.cells):
        outer = netlist.cells.get(name)
        if outer is None or outer.gate not in patterns:
            continue
        inner_kind, complex_kind = patterns[outer.gate]
        if not library.variants(complex_kind):
            continue
        for pin in (0, 1):
            inner_net = outer.inputs[pin]
            inner = netlist.driver_cell(inner_net)
            if (
                inner is None
                or inner.gate != inner_kind
                or netlist.fanout(inner.output) != 1
                or netlist.nets[inner.output].is_output
                or outer.inputs.count(inner_net) != 1
            ):
                continue
            other_net = outer.inputs[1 - pin]
            a, b = inner.inputs
            out_net = outer.output
            netlist.remove_cell(outer.name)
            netlist.remove_cell(inner.name)
            cell = netlist.add_cell(complex_kind, [a, b, other_net], out_net)
            cell.lib_cell = library.weakest(complex_kind).name
            merged += 1
            break
    return merged


_COMMUTATIVE = frozenset({"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"})


def share_logic(netlist: Netlist) -> int:
    """Structural hashing: merge gates computing identical functions.

    Two combinational gates with the same type and the same input nets
    (order-insensitive for commutative gates) compute the same value; all
    but one are removed and their readers rewired — the classical
    "strash" / common-subexpression-sharing step.  Iterates to a fixpoint
    so chains of duplicates collapse fully.

    A round hashes each cell once, in dict order.  A merge that rewires
    a reader not yet hashed this round is seen by that reader's own
    visit; only a rewired reader already in the table can leave a stale
    key.  After a round with no such rewire every key is current and
    each key's survivors are its first cell plus port-driving copies the
    round left alone, so another round would merge nothing: stop.
    """
    cells = netlist.cells
    nets = netlist.nets
    merged = 0
    stale = True
    while stale:
        stale = False
        table: dict[tuple, Cell] = {}
        hashed: set[str] = set()
        # a merge removes the visited cell or an earlier one, so every
        # cell of the snapshot is still present when its turn comes
        for name, cell in list(cells.items()):
            gate = cell.gate
            if gate in _UNFOLDED:
                continue
            inputs = cell.inputs
            if gate in _COMMUTATIVE:
                a, b = inputs
                key = (gate, a, b) if a <= b else (gate, b, a)
            else:
                key = (gate, *inputs)
            hashed.add(name)
            keeper = table.get(key)
            if keeper is None:
                table[key] = cell
                continue
            if nets[cell.output].is_output:
                # Keep port nets driven; swap roles so the port-driving
                # copy is the canonical one when possible.
                if nets[keeper.output].is_output:
                    continue  # both drive ports; leave them
                table[key] = cell
                cell, keeper = keeper, cell
            dup_out = cell.output
            if not stale and not hashed.isdisjoint(nets[dup_out].sinks):
                stale = True
            netlist.remove_cell(cell.name)
            _replace_net_everywhere(netlist, dup_out, keeper.output)
            merged += 1
    return merged


def cleanup(
    netlist: Netlist,
    library: TechLibrary | None = None,
    flatten: bool = False,
) -> dict[str, int]:
    """Run the structural passes to a fixpoint; returns per-pass counts.

    Every pass counts each edit it makes, so a running total of the
    counts tells whether the netlist changed.  :func:`share_logic` and
    :func:`sweep_dead_cells` leave their fixpoint behind them (another
    run would change nothing), so each is skipped while no edit happened
    since it last ran — dead-cell removals aside for ``share_logic``.
    All edits journal as one ``structure`` event.
    """
    totals = {"constants": 0, "buffers": 0, "inverters": 0, "dead": 0, "shared": 0}
    edits = 0
    shared_at = swept_at = -1  # edit total when each pass last finished
    with netlist.bulk_edit():
        for _ in range(8):
            start = edits
            edits += (n := propagate_constants(netlist))
            totals["constants"] += n
            edits += (n := remove_buffers(netlist, flatten=flatten))
            totals["buffers"] += n
            if shared_at != edits:
                edits += (n := share_logic(netlist))
                totals["shared"] += n
                shared_at = edits
            if library is not None:
                edits += (n := merge_inverters(netlist, library))
                totals["inverters"] += n
            if swept_at != edits:
                n = sweep_dead_cells(netlist)
                if shared_at == edits:
                    # Removing cells cannot pair up two survivors' keys,
                    # so share_logic stays at its fixpoint.
                    shared_at += n
                edits += n
                totals["dead"] += n
                swept_at = edits
            if edits == start:
                break
    return totals

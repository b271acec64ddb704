"""Gate-level netlist data structures.

The elaborator lowers RTL to a netlist of *generic* gates; the synthesis
engine (:mod:`repro.synth`) then technology-maps those onto library cells,
optimizes, and times the result.  A :class:`Netlist` is a flat graph:

* :class:`Net` — a single-bit wire with one driver pin and many sink pins.
* :class:`Cell` — a gate instance with ordered input nets and one output
  net (sequential cells also carry clock/reset nets in ``attrs``).

Generic gate types are listed in :data:`GENERIC_GATES`.  After technology
mapping, ``Cell.lib_cell`` names the bound library cell.

Change journal
--------------

Every mutation is recorded in a bounded journal so observers (notably the
incremental timing engine in :mod:`repro.synth.timing`) can find out what
changed since they last looked instead of re-deriving the world:

* structural edits (``add_net``/``add_cell``/``remove_cell``/
  ``rewire_input``/``rewire_clock``/``replace_with``) log a ``structure``
  event and invalidate the cached topological order;
* rebinding a cell's library cell (``cell.lib_cell = ...``) logs a
  ``resize`` event naming the cell — the hot path of gate sizing.

Observers call :meth:`Netlist.journal_since` with their last-seen
:attr:`Netlist.version`; a ``None`` return means the journal was trimmed
past their cursor and they must rebuild from scratch.  Code that mutates
nets or cells directly (bypassing the methods here) must call
:meth:`Netlist.touch` afterwards so observers invalidate.
"""

from __future__ import annotations

import hashlib
import itertools

__all__ = ["GENERIC_GATES", "Net", "Cell", "Netlist", "NetlistError"]


#: Generic gate types produced by elaboration.  ``inputs`` is the pin count.
GENERIC_GATES = {
    "CONST0": 0,
    "CONST1": 0,
    "BUF": 1,
    "NOT": 1,
    "AND2": 2,
    "OR2": 2,
    "NAND2": 2,
    "NOR2": 2,
    "XOR2": 2,
    "XNOR2": 2,
    "MUX2": 3,  # (sel, a, b) -> sel ? b : a
    "AOI21": 3,  # ~((a & b) | c)
    "OAI21": 3,  # ~((a | b) & c)
    "DFF": 1,  # (d) -> q, clock in attrs["clock"]
}

#: Journal entries kept before the oldest half is trimmed.
_JOURNAL_LIMIT = 200_000


class NetlistError(ValueError):
    """Raised for structurally invalid netlist operations."""


class SinkSet(dict):
    """Insertion-ordered set of a net's reader cell names.

    A plain ``set`` of strings iterates in string-hash order, which
    changes with ``PYTHONHASHSEED``.  Net loads accumulate pin caps in
    sink order and the cleanup passes rewire readers in sink order, so
    that order must be a function of the edit sequence alone.
    """

    __slots__ = ()

    def add(self, name: str) -> None:
        self[name] = None

    def discard(self, name: str) -> None:
        self.pop(name, None)

    def __eq__(self, other):
        if isinstance(other, (set, frozenset)):
            return self.keys() == other
        return dict.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = None


class Net:
    """A single-bit net (slotted: netlists hold hundreds of thousands)."""

    __slots__ = ("name", "uid", "driver", "sinks", "is_input", "is_output", "is_clock")

    def __init__(
        self,
        name: str,
        uid: int,
        driver: str | None = None,
        sinks: SinkSet | None = None,
        is_input: bool = False,
        is_output: bool = False,
        is_clock: bool = False,
    ) -> None:
        self.name = name
        self.uid = uid
        self.driver = driver  # cell name, or None for primary inputs
        self.sinks = sinks if sinks is not None else SinkSet()
        self.is_input = is_input
        self.is_output = is_output
        self.is_clock = is_clock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Net(name={self.name!r}, driver={self.driver!r}, "
            f"sinks={sorted(self.sinks)!r})"
        )


class Cell:
    """A gate instance (slotted; ``lib_cell`` writes journal resize events)."""

    __slots__ = ("name", "gate", "inputs", "output", "_lib_cell", "attrs", "_owner")

    def __init__(
        self,
        name: str,
        gate: str,
        inputs: list[str] | None = None,
        output: str = "",
        lib_cell: str | None = None,
        attrs: dict | None = None,
        owner: "Netlist | None" = None,
    ) -> None:
        self.name = name
        self.gate = gate
        self.inputs: list[str] = inputs if inputs is not None else []
        self.output = output
        self._lib_cell = lib_cell  # bound library cell after mapping
        self.attrs: dict = attrs if attrs is not None else {}
        self._owner = owner

    @property
    def lib_cell(self) -> str | None:
        return self._lib_cell

    @lib_cell.setter
    def lib_cell(self, value: str | None) -> None:
        if value == self._lib_cell:
            return
        self._lib_cell = value
        if self._owner is not None:
            self._owner._note_resize(self.name)

    @property
    def is_sequential(self) -> bool:
        return self.gate == "DFF"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cell(name={self.name!r}, gate={self.gate!r}, "
            f"inputs={self.inputs!r}, output={self.output!r}, "
            f"lib_cell={self._lib_cell!r})"
        )


class Netlist:
    """A flat gate-level netlist with named nets and cells."""

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.nets: dict[str, Net] = {}
        self.cells: dict[str, Cell] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self._uid = itertools.count()
        self._journal: list[tuple[str, str | None]] = []
        self._journal_base = 0
        self._topo_cache: list[Cell] | None = None
        self._max_uid_memo: int | None = None

    # -- change journal -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter; equal versions mean nothing changed."""
        return self._journal_base + len(self._journal)

    def journal_since(self, cursor: int) -> list[tuple[str, str | None]] | None:
        """Events recorded since ``cursor``; None when trimmed past it."""
        if cursor < self._journal_base:
            return None
        return self._journal[cursor - self._journal_base :]

    def _append_event(self, kind: str, name: str | None) -> None:
        journal = self._journal
        journal.append((kind, name))
        if len(journal) > _JOURNAL_LIMIT:
            drop = len(journal) // 2
            self._journal_base += drop
            del journal[:drop]

    def _note_structure(self) -> None:
        self._topo_cache = None
        self._max_uid_memo = None
        self._append_event("structure", None)

    def _note_resize(self, cell_name: str) -> None:
        self._append_event("resize", cell_name)

    def touch(self) -> None:
        """Record an out-of-band mutation (direct net/cell attribute edits)."""
        self._note_structure()

    # -- construction --------------------------------------------------------

    def add_net(self, name: str | None = None, **flags: bool) -> Net:
        """Create a net; autogenerates a unique name when ``name`` is None."""
        if name is None:
            name = f"$n{next(self._uid)}"
        elif name in self.nets:
            raise NetlistError(f"duplicate net {name!r}")
        net = Net(name=name, uid=next(self._uid))
        for key, value in flags.items():
            if key not in ("driver", "is_input", "is_output", "is_clock"):
                raise NetlistError(f"unknown net flag {key!r}")
            setattr(net, key, value)
        self.nets[name] = net
        if net.is_input:
            self.primary_inputs.append(name)
        if net.is_output:
            self.primary_outputs.append(name)
        self._note_structure()
        return net

    def get_or_add_net(self, name: str) -> Net:
        if name in self.nets:
            return self.nets[name]
        return self.add_net(name)

    def add_cell(
        self,
        gate: str,
        inputs: list[str],
        output: str,
        name: str | None = None,
        **attrs,
    ) -> Cell:
        """Create a gate driving ``output`` from ``inputs`` (net names)."""
        if gate not in GENERIC_GATES:
            raise NetlistError(f"unknown generic gate {gate!r}")
        expected = GENERIC_GATES[gate]
        if gate != "DFF" and len(inputs) != expected:
            raise NetlistError(
                f"{gate} expects {expected} inputs, got {len(inputs)}"
            )
        if name is None:
            name = f"$g{next(self._uid)}"
        if name in self.cells:
            raise NetlistError(f"duplicate cell {name!r}")
        out_net = self.get_or_add_net(output)
        if out_net.driver is not None:
            raise NetlistError(f"net {output!r} already driven by {out_net.driver!r}")
        if out_net.is_input:
            raise NetlistError(f"cannot drive primary input {output!r}")
        cell = Cell(
            name=name, gate=gate, inputs=list(inputs), output=output,
            attrs=attrs, owner=self,
        )
        out_net.driver = name
        for net_name in inputs:
            self.get_or_add_net(net_name).sinks.add(name)
        if "clock" in attrs:
            clk = self.get_or_add_net(attrs["clock"])
            clk.is_clock = True
            clk.sinks.add(name)
        self.cells[name] = cell
        self._note_structure()
        return cell

    def remove_cell(self, name: str) -> None:
        cell = self.cells.pop(name)
        out = self.nets[cell.output]
        out.driver = None
        for net_name in set(cell.inputs) | ({cell.attrs["clock"]} if "clock" in cell.attrs else set()):
            self.nets[net_name].sinks.discard(name)
        cell._owner = None
        self._note_structure()

    def rewire_input(self, cell_name: str, old_net: str, new_net: str) -> None:
        """Replace every occurrence of ``old_net`` in a cell's input list."""
        cell = self.cells[cell_name]
        if old_net not in cell.inputs:
            raise NetlistError(f"{old_net!r} is not an input of {cell_name!r}")
        cell.inputs = [new_net if n == old_net else n for n in cell.inputs]
        if old_net not in cell.inputs and cell.attrs.get("clock") != old_net:
            self.nets[old_net].sinks.discard(cell_name)
        self.get_or_add_net(new_net).sinks.add(cell_name)
        self._note_structure()

    def rewire_clock(self, cell_name: str, new_clock: str) -> None:
        """Point a sequential cell's clock pin at a different net."""
        cell = self.cells[cell_name]
        old_clock = cell.attrs.get("clock")
        if old_clock is None:
            raise NetlistError(f"{cell_name!r} has no clock pin")
        cell.attrs["clock"] = new_clock
        if old_clock not in cell.inputs:
            self.nets[old_clock].sinks.discard(cell_name)
        self.get_or_add_net(new_clock).sinks.add(cell_name)
        self._note_structure()

    # -- queries --------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_sequential(self) -> int:
        return sum(1 for c in self.cells.values() if c.is_sequential)

    @property
    def num_combinational(self) -> int:
        return self.num_cells - self.num_sequential

    def fanout(self, net_name: str) -> int:
        net = self.nets[net_name]
        return len(net.sinks) + (1 if net.is_output else 0)

    def driver_cell(self, net_name: str) -> Cell | None:
        driver = self.nets[net_name].driver
        return self.cells.get(driver) if driver else None

    def topological_cells(self) -> list[Cell]:
        """Combinational cells in topological order (DFF outputs as sources).

        The order is cached and invalidated by structural mutations; do not
        mutate the returned list.

        Raises:
            NetlistError: if the combinational logic contains a cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for cell in self.cells.values():
            if cell.is_sequential:
                continue
            deps = 0
            for net_name in cell.inputs:
                drv = self.nets[net_name].driver
                if drv is not None and not self.cells[drv].is_sequential:
                    deps += 1
                    dependents.setdefault(drv, []).append(cell.name)
            indegree[cell.name] = deps
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[Cell] = []
        while ready:
            name = ready.pop()
            order.append(self.cells[name])
            for dep in dependents.get(name, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(indegree):
            raise NetlistError("combinational cycle detected")
        self._topo_cache = order
        return order

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError` if broken."""
        for name, net in self.nets.items():
            if net.driver is not None and net.driver not in self.cells:
                raise NetlistError(f"net {name!r} driven by missing cell {net.driver!r}")
            for sink in net.sinks:
                if sink not in self.cells:
                    raise NetlistError(f"net {name!r} sinks missing cell {sink!r}")
                cell = self.cells[sink]
                if name not in cell.inputs and cell.attrs.get("clock") != name:
                    raise NetlistError(
                        f"net {name!r} lists sink {sink!r} that does not read it"
                    )
        for name, cell in self.cells.items():
            if self.nets[cell.output].driver != name:
                raise NetlistError(f"cell {name!r} output net driver mismatch")
            for net_name in cell.inputs:
                if name not in self.nets[net_name].sinks:
                    raise NetlistError(
                        f"cell {name!r} input {net_name!r} missing sink backlink"
                    )
        self.topological_cells()  # raises on combinational cycles

    def stats(self) -> dict:
        """Summary statistics used by reports and CircuitMentor features."""
        gate_counts: dict[str, int] = {}
        for cell in self.cells.values():
            gate_counts[cell.gate] = gate_counts.get(cell.gate, 0) + 1
        max_fanout = max((self.fanout(n) for n in self.nets), default=0)
        return {
            "cells": self.num_cells,
            "sequential": self.num_sequential,
            "combinational": self.num_combinational,
            "nets": len(self.nets),
            "inputs": len(self.primary_inputs),
            "outputs": len(self.primary_outputs),
            "max_fanout": max_fanout,
            "gate_counts": gate_counts,
        }

    def fingerprint(self) -> str:
        """Stable content hash over cells, nets and ports.

        Two netlists with identical structure, bindings and attributes hash
        equal regardless of construction order; used as the netlist half of
        synthesis-cache keys.
        """
        h = hashlib.sha256()
        h.update(self.name.encode())
        for name in sorted(self.cells):
            cell = self.cells[name]
            attrs = ",".join(f"{k}={cell.attrs[k]!r}" for k in sorted(cell.attrs))
            h.update(
                f"C|{name}|{cell.gate}|{cell.lib_cell}|"
                f"{','.join(cell.inputs)}|{cell.output}|{attrs}\n".encode()
            )
        for name in sorted(self.nets):
            net = self.nets[name]
            h.update(
                f"N|{name}|{int(net.is_input)}{int(net.is_output)}"
                f"{int(net.is_clock)}\n".encode()
            )
        h.update(("P|" + ",".join(self.primary_inputs)).encode())
        h.update(("O|" + ",".join(self.primary_outputs)).encode())
        return h.hexdigest()

    def _max_uid(self) -> int:
        """Highest uid ever handed out, recovered from nets and names.

        Autogenerated cell/net names (``$g<uid>``/``$n<uid>``) consume the
        same counter as net uids, so both sources are scanned; clones and
        unpickled netlists resume the counter past this value so their next
        ``add_net``/``add_cell`` cannot collide with an existing name.

        Memoized until the next structural edit: pristine frontend-cache
        entries are cloned once per compile, and the scan would otherwise
        dominate the hit path.
        """
        if self._max_uid_memo is not None:
            return self._max_uid_memo
        max_uid = max((net.uid for net in self.nets.values()), default=-1)
        for name in itertools.chain(self.nets, self.cells):
            if name.startswith(("$n", "$g")) and name[2:].isdigit():
                uid = int(name[2:])
                if uid > max_uid:
                    max_uid = uid
        self._max_uid_memo = max_uid
        return max_uid

    def __getstate__(self) -> dict:
        # itertools.count is not picklable; __setstate__ re-derives it.  The
        # journal and topo cache are dropped: an unpickled netlist is a fresh
        # object no observer holds a cursor into.
        state = self.__dict__.copy()
        del state["_uid"]
        state["_journal"] = []
        state["_journal_base"] = 0
        state["_topo_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("_max_uid_memo", None)
        self.__dict__.update(state)
        self._uid = itertools.count(self._max_uid() + 1)

    def replace_with(self, other: "Netlist") -> None:
        """Adopt ``other``'s contents in place (used to roll back passes)."""
        self.name = other.name
        self.nets = other.nets
        self.cells = other.cells
        self.primary_inputs = other.primary_inputs
        self.primary_outputs = other.primary_outputs
        self._uid = other._uid
        for cell in self.cells.values():
            cell._owner = self
        self._note_structure()

    def clone(self) -> "Netlist":
        """Deep-copy the netlist (cells, nets, port lists).

        Hot path: the elaborated-netlist cache hands out a clone per
        read_verilog, so objects are built by direct slot assignment
        instead of the (kwarg-processing) constructors.
        """
        other = Netlist(self.name)
        nets = other.nets
        for name, net in self.nets.items():
            copy = Net.__new__(Net)
            copy.name = net.name
            copy.uid = net.uid
            copy.driver = net.driver
            copy.sinks = SinkSet(net.sinks)
            copy.is_input = net.is_input
            copy.is_output = net.is_output
            copy.is_clock = net.is_clock
            nets[name] = copy
        cells = other.cells
        for name, cell in self.cells.items():
            copy = Cell.__new__(Cell)
            copy.name = cell.name
            copy.gate = cell.gate
            copy.inputs = list(cell.inputs)
            copy.output = cell.output
            copy._lib_cell = cell._lib_cell
            copy.attrs = dict(cell.attrs)
            copy._owner = other
            cells[name] = copy
        other.primary_inputs = list(self.primary_inputs)
        other.primary_outputs = list(self.primary_outputs)
        max_uid = self._max_uid()
        other._max_uid_memo = max_uid
        other._uid = itertools.count(max_uid + 1)
        return other

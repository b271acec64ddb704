"""Per-cell reference lowering: the dict walk behind ``SoAStructure``.

:class:`ReferenceLowering` builds every array of
:class:`repro.synth.soa.SoAStructure` the straightforward way — one
Python iteration per net sink and per cell, and levels assigned by
walking ``netlist.topological_cells()`` — so the parity suite in
``tests/synth/test_lowering_parity.py`` can check the vectorized
extract-then-derive lowering field by field.  Cells within one level
come out in topological-sort order here and in cell-index order in
production; the suite compares levels as per-level cell sets, since the
kernels that consume a level are elementwise over its cells.
"""

from __future__ import annotations

import numpy as np

_CONSTS = ("CONST0", "CONST1")


class _Level:
    __slots__ = ("cells", "out", "in_ptr", "in_net")

    def __init__(self, cells, out, in_ptr, in_net) -> None:
        self.cells = cells
        self.out = out
        self.in_ptr = in_ptr
        self.in_net = in_net


class ReferenceLowering:
    """The fields of ``SoAStructure``, built by per-cell Python loops."""

    def __init__(self, netlist) -> None:
        nets = netlist.nets
        cells = netlist.cells
        self.net_names = list(nets)
        self.net_index = {name: i for i, name in enumerate(self.net_names)}
        self.cell_names = list(cells)
        self.cell_index = {name: i for i, name in enumerate(self.cell_names)}
        self.num_nets = len(self.net_names)
        self.num_cells = len(self.cell_names)
        net_index = self.net_index
        cell_index = self.cell_index

        # -- per-net electricals: (net, sink) pin pairs in the exact order the
        # scalar load loop visits them, so bincount accumulates identically.
        pair_net: list[int] = []
        pair_cell: list[int] = []
        pair_pins: list[float] = []
        fanout = np.zeros(self.num_nets, dtype=np.int64)
        net_is_output = np.zeros(self.num_nets, dtype=bool)
        net_is_clock = np.zeros(self.num_nets, dtype=bool)
        net_is_input = np.zeros(self.num_nets, dtype=bool)
        net_has_driver = np.zeros(self.num_nets, dtype=bool)
        for ni, (name, net) in enumerate(nets.items()):
            net_is_output[ni] = net.is_output
            net_is_clock[ni] = net.is_clock
            net_is_input[ni] = net.is_input
            net_has_driver[ni] = net.driver is not None
            pins_total = 0
            for sink_name in net.sinks:
                sink = cells[sink_name]
                pins = sink.inputs.count(name)
                if sink.attrs.get("clock") == name:
                    pins += 1
                if pins:
                    pair_net.append(ni)
                    pair_cell.append(cell_index[sink_name])
                    pair_pins.append(float(pins))
                pins_total += pins
            if net.is_output:
                pins_total += 1
            fanout[ni] = pins_total
        self.pair_net = np.asarray(pair_net, dtype=np.intp)
        self.pair_cell = np.asarray(pair_cell, dtype=np.intp)
        self.pair_pins = np.asarray(pair_pins, dtype=np.float64)
        # CSR over the (sorted-by-net) pair arrays: pairs of net ``ni`` live
        # in ``pair_ptr[ni]:pair_ptr[ni + 1]`` — the per-net segment view the
        # batched trial evaluator uses to re-accumulate single net loads.
        self.pair_ptr = np.searchsorted(
            self.pair_net, np.arange(self.num_nets + 1)
        )
        self.fanout = fanout
        self.ext_cap = np.where(net_is_output, 2.0, 0.0)
        self.net_is_output = net_is_output
        self.net_is_clock = net_is_clock
        self.net_is_input = net_is_input
        self.net_has_driver = net_has_driver

        # -- per-cell skeleton -------------------------------------------------
        cell_out = np.zeros(self.num_cells, dtype=np.intp)
        cell_is_seq = np.zeros(self.num_cells, dtype=bool)
        cell_is_const = np.zeros(self.num_cells, dtype=bool)
        self.cell_gate = []
        seq_cells: list[int] = []
        seq_out: list[int] = []
        seq_d: list[int] = []
        seq_names: list[str] = []
        const_out: list[int] = []
        const0_out: list[int] = []
        const1_out: list[int] = []
        for ci, (name, cell) in enumerate(cells.items()):
            cell_out[ci] = net_index[cell.output]
            self.cell_gate.append(cell.gate)
            if cell.is_sequential:
                cell_is_seq[ci] = True
                seq_cells.append(ci)
                seq_out.append(net_index[cell.output])
                seq_d.append(net_index[cell.inputs[0]])
                seq_names.append(name)
            elif cell.gate in _CONSTS:
                cell_is_const[ci] = True
                const_out.append(net_index[cell.output])
                if cell.gate == "CONST0":
                    const0_out.append(net_index[cell.output])
                else:
                    const1_out.append(net_index[cell.output])
        self.cell_out = cell_out
        self.cell_is_seq = cell_is_seq
        self.cell_is_const = cell_is_const
        self.seq_cells = np.asarray(seq_cells, dtype=np.intp)
        self.seq_out = np.asarray(seq_out, dtype=np.intp)
        self.seq_d = np.asarray(seq_d, dtype=np.intp)
        self.seq_names = seq_names
        self.const_out = np.asarray(const_out, dtype=np.intp)
        self.const0_out = np.asarray(const0_out, dtype=np.intp)
        self.const1_out = np.asarray(const1_out, dtype=np.intp)

        # -- levelization: level(cell) = max level of its input nets; a net
        # driven by a comb cell carries that cell's level + 1, sources carry 0.
        net_level = np.zeros(self.num_nets, dtype=np.int64)
        cell_level = np.full(self.num_cells, -1, dtype=np.int64)
        buckets: list[dict] = []  # per level: {"cells": [], "out": [], "in": [], "ptr": []}
        for cell in netlist.topological_cells():
            if cell.gate in _CONSTS:
                continue
            ci = cell_index[cell.name]
            lvl = 0
            in_ids = [net_index[n] for n in cell.inputs]
            for ni in in_ids:
                if net_level[ni] > lvl:
                    lvl = net_level[ni]
            cell_level[ci] = lvl
            net_level[cell_out[ci]] = lvl + 1
            while len(buckets) <= lvl:
                buckets.append({"cells": [], "out": [], "in": [], "ptr": [0]})
            bucket = buckets[lvl]
            bucket["cells"].append(ci)
            bucket["out"].append(cell_out[ci])
            bucket["in"].extend(in_ids)
            bucket["ptr"].append(len(bucket["in"]))
        self.cell_level = cell_level
        self.levels = [
            _Level(
                np.asarray(b["cells"], dtype=np.intp),
                np.asarray(b["out"], dtype=np.intp),
                np.asarray(b["ptr"], dtype=np.intp),
                np.asarray(b["in"], dtype=np.intp),
            )
            for b in buckets
        ]

        # -- launch / endpoint orderings (match scalar dict construction) -----
        self.pi_nets = np.asarray(
            [net_index[n] for n in netlist.primary_inputs], dtype=np.intp
        )
        self.pi_is_clock = np.asarray(
            [nets[n].is_clock for n in netlist.primary_inputs], dtype=bool
        )
        self.po_names = list(netlist.primary_outputs)
        self.po_nets = np.asarray(
            [net_index[n] for n in self.po_names], dtype=np.intp
        )

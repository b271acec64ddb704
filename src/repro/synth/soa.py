"""Structure-of-arrays compute kernels for the synthesis backend.

A per-cell walk over the netlist's dicts costs one Python iteration per
cell pin, on every compile.  This module lowers the timing graph once
into levelized numpy arrays and runs the hot analyses of
:class:`~repro.synth.timing.TimingEngine` and
:class:`~repro.synth.power.PowerAnalyzer` as per-level vectorized
kernels:

* **Lowering** (:class:`SoAStructure`) — two steps.  *Extract* makes one
  pass over ``netlist.cells`` and one over ``netlist.nets`` into flat
  index arrays: a cell-order input CSR, output nets, gate names and
  clock pins per cell, the net flags, and the ``(net, sink)`` pairs in
  ``net.sinks`` order.  *Derive* computes everything else from those
  arrays in numpy: pin counts per pair, the per-net pair segments,
  fanouts and external caps, the register/constant/port endpoint
  orders, and the levels, from a frontier Kahn sort over the
  comb→comb reader CSR (so every cell's inputs come from strictly lower
  levels).  The structure depends only on netlist *topology*; the
  kernel that owns it keeps it across resizes and a structural edit
  builds a new kernel.
* **Binding** (:class:`SoAKernel`) — per-cell library parameters
  (input cap, drive resistance, intrinsic delay / clk-to-q, setup,
  leakage, drive index) live in a row matrix indexed by a per-cell row
  vector, resolved once per distinct ``(gate, lib_cell)`` binding; a
  resize rewrites one row index.
* **Kernels** — full STA arrival propagation is one
  ``np.maximum.reduceat`` + add per level; endpoint slack, WNS/CPS/TNS
  reduction and activity/power estimation are single vector
  expressions.  Journal resizes re-run only the levels at or above the
  first dirtied level.

Parity contract
---------------

Every kernel evaluates *the same arithmetic expressions on the same
operands in the same accumulation order* as a per-cell dict walk: net
pin caps accumulate in ``net.sinks`` iteration order (bincount adds
sequentially in pair order), delays are ``base + res * load / 1000.0``
elementwise, and max-reduction is exact regardless of order.  WNS/CPS/
TNS, endpoint slacks and switching activities are therefore
bit-identical to the scalar reference engines in ``tests/oracles``; only
whole-design power *sums* may differ at float rounding level (numpy
pairwise summation), which vanishes under the reports' 3-decimal
rounding.  ``tests/synth/test_soa_parity.py`` enforces this.

The order of cells *within* a level is free (the lowering lists them by
cell index; ``tests/oracles/soa.py`` keeps the topological-sort order of
the per-cell reference): cells of one level never read each other's
outputs, and every consumer of a level — the arrival kernel, the trial
sweep and the power schedule — is elementwise over its cells, so any
permutation produces the same values.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import attrgetter, is_not

import numpy as np

from .. import perf
from ..hdl.netlist import NetlistError

__all__ = [
    "SoAStructure",
    "SoAKernel",
    "lowering_stats",
    "vector_power",
]

_CONSTS = ("CONST0", "CONST1")

#: Gate kinds the lowering tells apart (every other gate is combinational).
_KIND = {"DFF": 1, "CONST0": 2, "CONST1": 3}


class _Level:
    """One propagation level: cells whose inputs are all resolved."""

    __slots__ = ("cells", "out", "in_ptr", "in_net")

    def __init__(self, cells, out, in_ptr, in_net) -> None:
        self.cells = cells  # cell indices at this level
        self.out = out  # their output net indices
        self.in_ptr = in_ptr  # CSR starts into in_net (len = cells + 1)
        self.in_net = in_net  # flat input net indices (cell.inputs order)


def _csr_ptr(counts: np.ndarray) -> np.ndarray:
    """CSR row pointer (length ``len(counts) + 1``) for per-row counts."""
    ptr = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _csr_gather(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of CSR ``rows`` (concatenated) and their row pointer."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    sub_ptr = _csr_ptr(counts)
    flat = np.repeat(starts - sub_ptr[:-1], counts) + np.arange(
        sub_ptr[-1], dtype=np.intp
    )
    return flat, sub_ptr


class SoAStructure:
    """Topology-only lowering of one netlist into dense arrays.

    Valid until the next *structural* journal event; resizes never
    invalidate it (pin counts, fanouts and levels are binding-free).

    Raises:
        NetlistError: if the combinational logic contains a cycle, or a
            register has no data input.
    """

    __slots__ = (
        "net_names", "net_index", "cell_names", "cell_index",
        "num_nets", "num_cells",
        "pair_net", "pair_cell", "pair_pins", "pair_ptr", "fanout", "ext_cap",
        "net_is_output", "net_is_clock", "net_is_input", "net_has_driver",
        "cell_out", "cell_gate", "cell_is_seq", "cell_is_const", "cell_level",
        "levels",
        "pi_nets", "pi_is_clock",
        "seq_cells", "seq_out", "seq_d", "seq_names",
        "const_out", "const0_out", "const1_out",
        "po_names", "po_nets",
        "_power_schedule",
    )

    def __init__(self, netlist) -> None:
        # -- extract: one pass over the cells, one over the nets ---------------
        nets = netlist.nets
        cells = netlist.cells
        self.net_names = net_names = list(nets)
        self.cell_names = cell_names = list(cells)
        self.num_nets = num_nets = len(net_names)
        self.num_cells = num_cells = len(cell_names)
        self.net_index = net_index = dict(zip(net_names, range(num_nets)))
        self.cell_index = cell_index = dict(zip(cell_names, range(num_cells)))
        net_at = net_index.__getitem__

        cell_objs = list(cells.values())
        self.cell_gate = gates = list(map(attrgetter("gate"), cell_objs))
        input_lists = list(map(attrgetter("inputs"), cell_objs))
        attrs = list(map(attrgetter("attrs"), cell_objs))
        cell_out = np.fromiter(
            map(net_at, map(attrgetter("output"), cell_objs)),
            dtype=np.intp, count=num_cells,
        )
        in_count = np.fromiter(map(len, input_lists), dtype=np.intp, count=num_cells)
        in_ptr = _csr_ptr(in_count)
        in_net = np.fromiter(
            map(net_at, chain.from_iterable(input_lists)),
            dtype=np.intp, count=int(in_ptr[-1]),
        )
        cell_clock = np.full(num_cells, -1, dtype=np.intp)  # clock net or -1
        for ci in compress(range(num_cells), attrs):  # cells with attrs only
            clock = attrs[ci].get("clock")
            if clock is not None and clock in net_index:
                cell_clock[ci] = net_index[clock]
        kind = np.fromiter(
            map(_KIND.get, gates, repeat(0)), dtype=np.int8, count=num_cells
        )
        del cell_objs, input_lists, attrs

        net_objs = list(nets.values())

        def net_flag(attr):
            return np.fromiter(
                map(attrgetter(attr), net_objs), dtype=bool, count=num_nets
            )

        net_is_input = net_flag("is_input")
        net_is_output = net_flag("is_output")
        net_is_clock = net_flag("is_clock")
        net_has_driver = np.fromiter(
            map(is_not, map(attrgetter("driver"), net_objs), repeat(None)),
            dtype=bool, count=num_nets,
        )
        sink_lists = list(map(attrgetter("sinks"), net_objs))
        sink_count = np.fromiter(map(len, sink_lists), dtype=np.intp, count=num_nets)
        raw_cell = np.fromiter(
            map(cell_index.__getitem__, chain.from_iterable(sink_lists)),
            dtype=np.intp, count=int(sink_count.sum()),
        )
        raw_net = np.repeat(np.arange(num_nets, dtype=np.intp), sink_count)
        del net_objs, sink_lists

        # -- derive: (net, sink) pin counts, pair segments, fanouts ------------
        # A sink's pin count on a net is its clock pin plus the input pins
        # reading that net; gates have at most a few inputs, so compare
        # pin k of every pair's cell, over the pairs whose cell has one.
        pins = (cell_clock[raw_cell] == raw_net).astype(np.int64)
        first = in_ptr[raw_cell]
        arity = in_count[raw_cell]
        live = np.flatnonzero(arity > 0)
        k = 0
        while live.size:
            pins[live] += in_net[first[live] + k] == raw_net[live]
            k += 1
            live = live[arity[live] > k]
        del first, arity, live
        # Pairs in exact (net, net.sinks) order so bincount accumulates pin
        # caps identically to the scalar load loop; pin-less sinks drop out.
        keep = pins > 0
        self.pair_net = raw_net[keep]
        self.pair_cell = raw_cell[keep]
        self.pair_pins = pins[keep].astype(np.float64)
        del raw_net, raw_cell, pins, keep
        # CSR over the (sorted-by-net) pair arrays: pairs of net ``ni`` live
        # in ``pair_ptr[ni]:pair_ptr[ni + 1]`` — the per-net segment view the
        # batched trial evaluator uses to re-accumulate single net loads.
        self.pair_ptr = np.searchsorted(self.pair_net, np.arange(num_nets + 1))
        self.fanout = (
            np.bincount(
                self.pair_net, weights=self.pair_pins, minlength=num_nets
            ).astype(np.int64)
            + net_is_output
        )
        self.ext_cap = np.where(net_is_output, 2.0, 0.0)
        self.net_is_output = net_is_output
        self.net_is_clock = net_is_clock
        self.net_is_input = net_is_input
        self.net_has_driver = net_has_driver

        # -- derive: per-cell kinds and endpoint orders (cells dict order) ------
        is_const0 = kind == _KIND["CONST0"]
        is_const1 = kind == _KIND["CONST1"]
        cell_is_seq = kind == _KIND["DFF"]
        cell_is_const = is_const0 | is_const1
        seq_cells = np.flatnonzero(cell_is_seq)
        if (in_count[seq_cells] == 0).any():
            raise NetlistError("register without a data input")
        self.cell_out = cell_out
        self.cell_is_seq = cell_is_seq
        self.cell_is_const = cell_is_const
        self.seq_cells = seq_cells
        self.seq_out = cell_out[seq_cells]
        self.seq_d = in_net[in_ptr[seq_cells]]
        self.seq_names = [cell_names[ci] for ci in seq_cells.tolist()]
        self.const_out = cell_out[cell_is_const]
        self.const0_out = cell_out[is_const0]
        self.const1_out = cell_out[is_const1]

        # -- derive: levels -----------------------------------------------------
        # level(cell) = 0 without combinational drivers, else one more than
        # its deepest one.  Registers and constants launch at level 0 and
        # are not levelized.  A frontier Kahn sort over comb->comb edges
        # assigns exactly that: a cell joins frontier k when the last of
        # its drivers left frontier k - 1.
        comb = ~(cell_is_seq | cell_is_const)
        comb_ext = np.append(comb, False)  # index num_cells: undriven net
        net_driver = np.full(num_nets, num_cells, dtype=np.intp)
        net_driver[cell_out] = np.arange(num_cells, dtype=np.intp)
        pin_cell = np.repeat(np.arange(num_cells, dtype=np.intp), in_count)
        pin_driver = net_driver[in_net]
        edge = comb[pin_cell] & comb_ext[pin_driver]
        src = pin_driver[edge]
        dst = pin_cell[edge]
        del net_driver, pin_cell, pin_driver, edge
        indegree = np.bincount(dst, minlength=num_cells)
        order = np.argsort(src, kind="stable")
        readers = dst[order]
        reader_ptr = _csr_ptr(np.bincount(src, minlength=num_cells))
        del src, dst, order
        cell_level = np.full(num_cells, -1, dtype=np.int64)
        last_seen = np.empty(num_cells, dtype=np.intp)
        frontier = np.flatnonzero(comb & (indegree == 0))
        depth = 0
        placed = 0
        while frontier.size:
            cell_level[frontier] = depth
            placed += frontier.size
            reached = readers[_csr_gather(reader_ptr, frontier)[0]]
            np.subtract.at(indegree, reached, 1)
            reached = reached[indegree[reached] == 0]
            # a cell read on several pins appears once per pin: keep one
            pos = np.arange(reached.size)
            last_seen[reached] = pos
            frontier = reached[last_seen[reached] == pos]
            depth += 1
        if placed != int(np.count_nonzero(comb)):
            raise NetlistError("combinational cycle detected")
        self.cell_level = cell_level
        # All levels' cells (by level, then cell index) with their input CSR
        # gathered once; each level is a slice of these arrays.
        comb_cells = np.flatnonzero(comb)
        by_level = comb_cells[np.argsort(cell_level[comb_cells], kind="stable")]
        num_levels = int(cell_level[by_level[-1]]) + 1 if by_level.size else 0
        bounds = np.searchsorted(
            cell_level[by_level], np.arange(num_levels + 1)
        ).tolist()
        flat, lvl_ptr = _csr_gather(in_ptr, by_level)
        lvl_in = in_net[flat]
        lvl_out = cell_out[by_level]
        self.levels = [
            _Level(
                by_level[a:b],
                lvl_out[a:b],
                lvl_ptr[a : b + 1] - lvl_ptr[a],
                lvl_in[lvl_ptr[a] : lvl_ptr[b]],
            )
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

        # -- launch / endpoint orderings (match scalar dict construction) -----
        self.pi_nets = np.fromiter(
            map(net_at, netlist.primary_inputs),
            dtype=np.intp, count=len(netlist.primary_inputs),
        )
        self.pi_is_clock = net_is_clock[self.pi_nets]
        self.po_names = list(netlist.primary_outputs)
        self.po_nets = np.fromiter(
            map(net_at, self.po_names), dtype=np.intp, count=len(self.po_names)
        )
        self._power_schedule = None

    # -- power schedule (lazy: pure-STA users never pay for it) ---------------

    def power_schedule(self):
        """Per-level, per-gate-kind groups for activity propagation.

        Returns a list of ``(kind, cell_idx, out_net, in_cols)`` tuples in
        dependency order; ``in_cols`` is an ``(arity, k)`` array of input
        net indices in pin order.  Constant generators come first.
        """
        if self._power_schedule is not None:
            return self._power_schedule
        schedule = []
        if len(self.const0_out):
            schedule.append(("CONST0", None, self.const0_out, None))
        if len(self.const1_out):
            schedule.append(("CONST1", None, self.const1_out, None))
        for lvl in self.levels:
            groups: dict[str, list[int]] = {}
            for pos, ci in enumerate(lvl.cells):
                groups.setdefault(self.cell_gate[ci], []).append(pos)
            for kind, positions in groups.items():
                pos_arr = np.asarray(positions, dtype=np.intp)
                cells_arr = lvl.cells[pos_arr]
                out_arr = lvl.out[pos_arr]
                starts = lvl.in_ptr[pos_arr]
                arity = int(lvl.in_ptr[pos_arr[0] + 1] - starts[0])
                in_cols = np.stack(
                    [lvl.in_net[starts + pin] for pin in range(arity)]
                ) if arity else np.zeros((0, len(pos_arr)), dtype=np.intp)
                schedule.append((kind, cells_arr, out_arr, in_cols))
        self._power_schedule = schedule
        return schedule


def lowering_stats() -> dict:
    """Lowering/kernel activity, shaped for ``perf.snapshot()["caches"]``."""
    return {
        "lower_s": round(perf.elapsed("sta.lower"), 6),
        "kernel_s": round(perf.elapsed("sta.kernel"), 6),
        "levels_run": perf.counter("sta.vector_levels"),
        "trials": perf.counter("sta.trial"),
        "trial_batches": perf.counter("sta.trial_batch"),
    }


perf.register_stats_provider("vector_sta", lowering_stats)


# -- kernel --------------------------------------------------------------------

# Library-parameter matrix columns.
_CAP, _RES, _BASE, _SETUP, _LEAK, _DRIVE, _AREA = range(7)


class SoAKernel:
    """Vectorized STA state for one (netlist, library, wireload, constraints).

    The environment is assumed frozen for the kernel's lifetime — the
    owning engine rebuilds the kernel when its signature changes.
    """

    def __init__(self, netlist, library, wireload, constraints) -> None:
        self.netlist = netlist
        self.library = library
        self.wireload = wireload
        self.constraints = constraints
        with perf.timer("sta.lower"):
            self.s = s = SoAStructure(netlist)
        # library binding: per-cell row index into a parameter matrix,
        # resolved once per distinct (gate, lib_cell) binding in order of
        # first appearance (so row numbers follow the cells dict order)
        self._rows: list[tuple] = []
        self._row_of: dict = {}
        self._params: np.ndarray | None = None
        bindings = list(
            map(attrgetter("gate", "lib_cell"), netlist.cells.values())
        )
        row_of_binding = dict.fromkeys(bindings)
        for gate, lib_cell in row_of_binding:
            row_of_binding[gate, lib_cell] = self._row_for_binding(gate, lib_cell)
        self.cell_row = np.fromiter(
            map(row_of_binding.__getitem__, bindings),
            dtype=np.intp, count=len(bindings),
        )
        # constraint vectors (constraints object frozen per kernel)
        launch = ~self._pi_clock_mask()
        self.pi_launch = s.pi_nets[launch]
        self._pi_offsets = np.asarray(
            [
                constraints.arrival_offset(s.net_names[ni])
                for ni in self.pi_launch
            ],
            dtype=np.float64,
        )
        self._po_margin = np.asarray(
            [constraints.required_margin(name) for name in s.po_names],
            dtype=np.float64,
        )
        self._wire_cap = self._wire_caps()
        self.loads: np.ndarray | None = None
        self.delay: np.ndarray | None = None
        self.arrivals: np.ndarray | None = None
        self._seq_pos: dict[int, int] | None = None
        self._pi_pos: dict[int, int] | None = None
        self._lvl_pos: dict[int, tuple[int, int]] | None = None
        self._reader_min: np.ndarray | None = None

    # -- binding -------------------------------------------------------------

    def _resolve_row(self, cell) -> int:
        """Row index holding ``cell``'s bound library parameters."""
        return self._row_for_binding(cell.gate, cell.lib_cell)

    def _row_for_binding(self, gate: str, lib_cell: str | None) -> int:
        """Row index for a (gate, lib_cell) binding — hypothetical or real."""
        if gate in _CONSTS:
            key = ("__const__",)
        elif lib_cell is not None and lib_cell in self.library:
            key = lib_cell
        else:
            key = ("__weakest__", gate)
        row = self._row_of.get(key)
        if row is not None:
            return row
        if key == ("__const__",):
            params = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            lib = (
                self.library.cell(key)
                if isinstance(key, str)
                else self.library.weakest(gate)
            )
            base = lib.clk_to_q if lib.is_sequential else lib.intrinsic
            params = (
                lib.input_cap, lib.drive_res, base,
                lib.setup, lib.leakage, float(lib.drive), lib.area,
            )
        row = len(self._rows)
        self._rows.append(params)
        self._row_of[key] = row
        self._params = None
        return row

    @property
    def params(self) -> np.ndarray:
        if self._params is None:
            self._params = np.asarray(self._rows, dtype=np.float64).reshape(
                len(self._rows), 7
            )
        return self._params

    def _pi_clock_mask(self) -> np.ndarray:
        s = self.s
        if self.constraints.clock_port is not None:
            names = [s.net_names[ni] for ni in s.pi_nets]
            return np.asarray(
                [name == self.constraints.clock_port for name in names], dtype=bool
            )
        return s.pi_is_clock

    # -- electricals ---------------------------------------------------------

    def _wire_caps(self) -> np.ndarray:
        model = self.wireload
        table = np.asarray(model.table, dtype=np.float64)
        fanout = self.s.fanout
        clipped = table[np.clip(fanout, 1, len(table)) - 1]
        beyond = table[-1] + model.slope * (fanout - len(table))
        return np.where(
            fanout <= 0, 0.0, np.where(fanout <= len(table), clipped, beyond)
        )

    def compute_loads(self) -> np.ndarray:
        """Per-net load in fF: sink pin caps + external load + wireload."""
        s = self.s
        caps = self.params[:, _CAP][self.cell_row]
        pin_cap = np.bincount(
            s.pair_net, weights=s.pair_pins * caps[s.pair_cell], minlength=s.num_nets
        )
        self.loads = (pin_cap + s.ext_cap) + self._wire_cap
        return self.loads

    def compute_delays(self) -> np.ndarray:
        """Per-cell propagation delay (intrinsic/clk-to-q + RC term)."""
        params = self.params
        rows = self.cell_row
        self.delay = (
            params[:, _BASE][rows]
            + params[:, _RES][rows] * self.loads[self.s.cell_out] / 1000.0
        )
        return self.delay

    # -- arrival propagation -------------------------------------------------

    def _source_arrivals(self, arrivals: np.ndarray) -> None:
        s = self.s
        c = self.constraints
        arrivals[self.pi_launch] = (
            self._pi_offsets + c.input_drive_res * self.loads[self.pi_launch] / 1000.0
        )
        arrivals[s.seq_out] = self.delay[s.seq_cells]
        arrivals[s.const_out] = 0.0

    def propagate(self, from_level: int = 0) -> np.ndarray:
        """Run the per-level arrival kernels from ``from_level`` up."""
        s = self.s
        with perf.timer("sta.kernel"):
            if self.arrivals is None:
                self.arrivals = np.zeros(s.num_nets, dtype=np.float64)
            arrivals = self.arrivals
            self._source_arrivals(arrivals)
            delay = self.delay
            for lvl in s.levels[from_level:]:
                worst = np.maximum.reduceat(arrivals[lvl.in_net], lvl.in_ptr[:-1])
                arrivals[lvl.out] = worst + delay[lvl.cells]
        perf.incr("sta.vector_levels", len(s.levels) - from_level)
        return arrivals

    def run_full(self) -> None:
        """Bind, compute electricals and propagate every level."""
        perf.incr("sta.vector_full")
        self.compute_loads()
        self.compute_delays()
        self.arrivals = None
        self.propagate(0)

    def update_resizes(self, resized) -> None:
        """Fold journal resizes in: rebind rows, re-run dirty levels only."""
        perf.incr("sta.vector_incremental")
        s = self.s
        cells = self.netlist.cells
        nets = self.netlist.nets
        min_level = len(s.levels)
        sources_dirty = False
        for name in resized:
            cell = cells[name]
            ci = s.cell_index[name]
            self.cell_row[ci] = self._resolve_row(cell)
            affected = list(cell.inputs)
            clock = cell.attrs.get("clock")
            if clock is not None:
                affected.append(clock)
            for net_in in affected:
                driver = nets[net_in].driver
                if driver is None:
                    sources_dirty = True
                    continue
                di = s.cell_index[driver]
                if s.cell_is_seq[di] or s.cell_is_const[di]:
                    sources_dirty = True
                else:
                    min_level = min(min_level, int(s.cell_level[di]))
            if s.cell_is_seq[ci]:
                sources_dirty = True  # clk-to-q and setup changed
            elif not s.cell_is_const[ci]:
                min_level = min(min_level, int(s.cell_level[ci]))
        self.compute_loads()
        self.compute_delays()
        self.propagate(0 if sources_dirty else min_level)

    # -- batched trial evaluation ---------------------------------------------

    def _seq_position(self, ci: int) -> int | None:
        """Position of cell ``ci`` within the seq endpoint arrays, if any."""
        if self._seq_pos is None:
            self._seq_pos = {
                int(c): i for i, c in enumerate(self.s.seq_cells.tolist())
            }
        return self._seq_pos.get(ci)

    def _pi_position(self, ni: int) -> int | None:
        """Position of net ``ni`` within the launch-point arrays, if any."""
        if self._pi_pos is None:
            self._pi_pos = {
                int(n): i for i, n in enumerate(self.pi_launch.tolist())
            }
        return self._pi_pos.get(ni)

    def _level_position(self, ci: int) -> tuple[int, int]:
        """``(level, position within that level)`` for comb cell ``ci``."""
        if self._lvl_pos is None:
            self._lvl_pos = {}
            for li, lvl in enumerate(self.s.levels):
                for pos, c in enumerate(lvl.cells.tolist()):
                    self._lvl_pos[int(c)] = (li, pos)
        return self._lvl_pos[ci]

    def _reader_min_level(self) -> np.ndarray:
        """Per net, the lowest level with a cell reading it (else #levels)."""
        if self._reader_min is None:
            s = self.s
            rm = np.full(s.num_nets, len(s.levels), dtype=np.intp)
            for li in range(len(s.levels) - 1, -1, -1):
                rm[s.levels[li].in_net] = li
            self._reader_min = rm
        return self._reader_min

    @staticmethod
    def _normalize_trials(trials) -> list[list[tuple[str, str]]]:
        """Each lane as a list of ``(cell, lib_cell)`` rebinds."""
        lanes = []
        for lane in trials:
            if isinstance(lane[0], str):
                lanes.append([lane])
            else:
                lanes.append(list(lane))
        return lanes

    def trial_cps_batch(self, trials) -> list[float]:
        """CPS verdicts for hypothetical cell rebinds, no mutation.

        ``trials`` is a sequence of lanes; each lane is one
        ``(cell_name, lib_cell_name)`` pair or a list of such pairs
        (a grouped rebind, evaluated as if all of them were committed
        together).  Every lane is evaluated against the *committed*
        arrays: loads of the rebound cells' input/clock nets are
        re-accumulated over their pair segments in bincount order,
        dirtied delays and launch arrivals are patched with the scalar
        forms of the committed expressions, and arrivals re-propagate as
        2-D per-level kernels restricted to the union dirty cone of the
        batch (a 1-D boolean sweep finds it; the workspace starts as a
        copy of the committed arrivals, so anything outside the cone
        already holds its exact committed value, and a cone cell that is
        clean in some lane recomputes to the identical value there).
        The returned values are bit-identical to committing each lane
        alone and reading ``analyze().cps`` — same expressions, same
        operands, same accumulation order — but neither the netlist nor
        the committed kernel state is touched, so rejected candidates
        cost no revert.
        """
        if self.arrivals is None:
            self.run_full()
        s = self.s
        lanes = self._normalize_trials(trials)
        k = len(lanes)
        perf.incr("sta.trial", k)
        perf.incr("sta.trial_batch")
        cells = self.netlist.cells
        nets = self.netlist.nets
        resolved: list[dict[int, int]] = []  # per lane: cell index -> new row
        for lane in lanes:
            rows_map = {}
            for name, lib_name in lane:
                ci = s.cell_index[name]
                rows_map[ci] = self._row_for_binding(cells[name].gate, lib_name)
            resolved.append(rows_map)
        params = self.params  # after row resolution: may have appended rows
        caps = params[:, _CAP]
        with perf.timer("sta.kernel"):
            arrivals2 = np.repeat(self.arrivals[None, :], k, axis=0)
            net_dirty = np.zeros(s.num_nets, dtype=bool)
            forced = np.zeros(s.num_cells, dtype=bool)
            # comb-delay patches grouped by level: {li: [(t, pos, delay)]}
            patches: dict[int, list[tuple[int, int, float]]] = {}
            setup_patches: list[tuple[int, int, int]] = []  # (t, seq pos, row)
            pair_cell, pair_pins, pair_ptr = s.pair_cell, s.pair_pins, s.pair_ptr
            c = self.constraints
            reader_min = self._reader_min_level()
            start_level = len(s.levels)
            for t, rows_map in enumerate(resolved):
                lane_loads: dict[int, float] = {}
                dirty_cells = set(rows_map)
                for ci in rows_map:
                    cell = cells[s.cell_names[ci]]
                    affected = list(cell.inputs)
                    clock = cell.attrs.get("clock")
                    if clock is not None:
                        affected.append(clock)
                    for net_in in affected:
                        ni = s.net_index[net_in]
                        if ni in lane_loads:
                            continue
                        # Exact per-net load: accumulate the pair segment in
                        # the order bincount adds it, swapping in trial caps.
                        # cumsum is a strict left-to-right float64 fold, so
                        # its final element is bit-identical to bincount's
                        # per-bin accumulation over the same segment.
                        a, b = int(pair_ptr[ni]), int(pair_ptr[ni + 1])
                        seg_cells = pair_cell[a:b]
                        seg_rows = self.cell_row[seg_cells]
                        for pc, row in rows_map.items():
                            hits = np.flatnonzero(seg_cells == pc)
                            if hits.size:
                                seg_rows = seg_rows.copy()
                                seg_rows[hits] = row
                        weights = pair_pins[a:b] * caps[seg_rows]
                        pin_cap = (
                            float(np.cumsum(weights)[-1]) if b > a else 0.0
                        )
                        lane_loads[ni] = (
                            (pin_cap + s.ext_cap[ni]) + self._wire_cap[ni]
                        )
                        driver = nets[net_in].driver
                        if driver is None:
                            # PI arrival depends on the net load.
                            pos = self._pi_position(ni)
                            if pos is not None:
                                arrivals2[t, ni] = (
                                    self._pi_offsets[pos]
                                    + c.input_drive_res
                                    * lane_loads[ni] / 1000.0
                                )
                                net_dirty[ni] = True
                                start_level = min(
                                    start_level, int(reader_min[ni])
                                )
                            continue
                        di = s.cell_index[driver]
                        if not s.cell_is_const[di]:
                            # Const outputs launch at 0.0 regardless of load.
                            dirty_cells.add(int(di))
                for dc in dirty_cells:
                    if s.cell_is_const[dc]:
                        continue
                    row = rows_map.get(dc)
                    if row is None:
                        row = int(self.cell_row[dc])
                    out = int(s.cell_out[dc])
                    load = lane_loads.get(out)
                    if load is None:
                        load = float(self.loads[out])
                    d = params[row, _BASE] + params[row, _RES] * load / 1000.0
                    if s.cell_is_seq[dc]:
                        # Launch arrival of the register output is clk-to-q.
                        arrivals2[t, out] = d
                        net_dirty[out] = True
                        start_level = min(start_level, int(reader_min[out]))
                    else:
                        li, pos = self._level_position(dc)
                        patches.setdefault(li, []).append((t, pos, d))
                        forced[dc] = True
                        start_level = min(start_level, li)
                for ci, row in rows_map.items():
                    pos = self._seq_position(ci)
                    if pos is not None:
                        setup_patches.append((t, pos, row))
            # 1-D boolean sweep finds each level's dirty cells, then a 2-D
            # kernel recomputes just those columns; everything else keeps
            # its committed value from the workspace copy.  Levels before
            # the first possible reader of a dirtied launch point (or the
            # first forced cell) cannot change and are skipped outright.
            for li in range(start_level, len(s.levels)):
                lvl = s.levels[li]
                # Cheap pre-check: most levels outside the cone see no
                # dirty inputs (and forced cells only exist at patch
                # levels), so skip before paying the per-cell reduceat.
                flags = net_dirty[lvl.in_net]
                lvl_patches = patches.get(li)
                if lvl_patches is None and not flags.any():
                    continue
                dirty = np.logical_or.reduceat(flags, lvl.in_ptr[:-1])
                if lvl_patches is not None:
                    dirty |= forced[lvl.cells]
                if not dirty.any():
                    continue
                idx = None
                nd = int(np.count_nonzero(dirty))
                if nd * 4 >= dirty.size or dirty.size <= 48:
                    # Dense or small level: recompute every column with one
                    # reduceat.  Clean columns see only committed inputs and
                    # committed delays, so they reproduce the committed
                    # arrival bit-for-bit — over-computing is free parity-
                    # wise and skips the gather construction below.  Only
                    # truly dirty outputs propagate dirtiness.
                    sub_in_net = lvl.in_net
                    sub_ptr = lvl.in_ptr[:-1]
                    sub_out = lvl.out
                    sub_cells = lvl.cells
                    dirty_out = lvl.out if nd == dirty.size else lvl.out[dirty]
                else:
                    idx = np.flatnonzero(dirty)
                    starts = lvl.in_ptr[idx]
                    counts = lvl.in_ptr[idx + 1] - starts
                    sub_ptr = np.cumsum(counts) - counts
                    gather = (
                        np.repeat(starts - sub_ptr, counts)
                        + np.arange(int(counts.sum()))
                    )
                    sub_in_net = lvl.in_net[gather]
                    sub_out = lvl.out[idx]
                    sub_cells = lvl.cells[idx]
                    dirty_out = sub_out
                worst = np.maximum.reduceat(
                    arrivals2[:, sub_in_net], sub_ptr, axis=1
                )
                out2 = worst + self.delay[sub_cells][None, :]
                if lvl_patches:
                    for t, pos, d in lvl_patches:
                        j = (
                            pos if idx is None
                            else int(np.searchsorted(idx, pos))
                        )
                        out2[t, j] = worst[t, j] + d
                arrivals2[:, sub_out] = out2
                net_dirty[dirty_out] = True
            # endpoint reduction: exact min over PO + register slacks
            period = c.effective_period
            worst2 = np.full(k, np.inf)
            if len(s.po_nets):
                po_slack2 = (
                    (period - self._po_margin)[None, :]
                    - arrivals2[:, s.po_nets]
                )
                worst2 = po_slack2.min(axis=1)
            if len(s.seq_cells):
                reg_req = period - params[:, _SETUP][self.cell_row[s.seq_cells]]
                reg_slack2 = reg_req[None, :] - arrivals2[:, s.seq_d]
                for t, pos, row in setup_patches:
                    reg_slack2[t, pos] = (
                        (period - params[row, _SETUP])
                        - arrivals2[t, s.seq_d[pos]]
                    )
                worst2 = np.minimum(worst2, reg_slack2.min(axis=1))
        if not len(s.po_nets) and not len(s.seq_cells):
            return [0.0] * k
        return [round(float(w), 4) for w in worst2]

    def trial_metrics_batch(self, trials) -> list[tuple[float, float]]:
        """``(CPS, total area)`` verdicts for hypothetical rebinds.

        Same lane format and parity contract as :meth:`trial_cps_batch`
        (the CPS half *is* that sweep), extended with the area the design
        would have after committing each lane: the committed binding rows
        are patched per lane and folded through the same strict
        left-to-right ``cumsum`` as :meth:`committed_area`, so entry
        ``i`` is bit-identical to committing ``trials[i]`` and reading
        ``(analyze().cps, total_area())`` — with no mutation and no
        revert.  This is the scoring kernel of the design-space explorer
        (:mod:`repro.synth.explore`): one sweep evaluates a whole batch
        of multi-gate move sets.
        """
        cps = self.trial_cps_batch(trials)
        lanes = self._normalize_trials(trials)
        cells = self.netlist.cells
        s = self.s
        patched_rows = []
        for lane in lanes:
            rows = self.cell_row.copy()
            for name, lib_name in lane:
                ci = s.cell_index[name]
                rows[ci] = self._row_for_binding(cells[name].gate, lib_name)
            patched_rows.append(rows)
        # Gather areas only after every row is resolved: resolution may
        # append parameter rows, rebuilding the params matrix.
        areas = self.params[:, _AREA]
        out: list[tuple[float, float]] = []
        for rows, lane_cps in zip(patched_rows, cps):
            vals = areas[rows]
            area = float(np.cumsum(vals)[-1]) if vals.size else 0.0
            out.append((lane_cps, area))
        return out

    # -- reductions ----------------------------------------------------------

    def committed_cps(self) -> float:
        """Worst endpoint slack over the committed arrays, report-rounded.

        Bit-identical to ``TimingReport.cps`` from :meth:`TimingEngine.
        analyze` — the same slack values feed the same exact ``min`` and
        the same ``round(..., 4)`` — without materializing the endpoint
        dictionaries.
        """
        s = self.s
        period = self.constraints.effective_period
        worst = None
        if len(s.po_nets):
            worst = ((period - self._po_margin) - self.arrivals[s.po_nets]).min()
        if len(s.seq_cells):
            reg_req = period - self.params[:, _SETUP][self.cell_row[s.seq_cells]]
            reg_worst = (reg_req - self.arrivals[s.seq_d]).min()
            worst = reg_worst if worst is None else min(worst, reg_worst)
        if worst is None:
            return 0.0
        return round(float(worst), 4)

    def committed_area(self) -> float:
        """Total cell area under the committed bindings.

        Bit-identical to the scalar engine's Python fold over netlist
        order: ``cumsum`` is a strict left-to-right float64 accumulation,
        cells appear in insertion order, and const rows carry area 0.0
        (adding exact ``+0.0`` terms where the scalar fold skips).
        """
        return self._committed_total(_AREA)

    def committed_leakage(self) -> float:
        """Total leakage (nW) under the committed bindings; see
        :meth:`committed_area` for why it equals the strict fold."""
        return self._committed_total(_LEAK)

    def _committed_total(self, column: int) -> float:
        values = self.params[:, column][self.cell_row]
        if not values.size:
            return 0.0
        return float(np.cumsum(values)[-1])

    def endpoint_arrays(self):
        """Endpoint slacks/required in scalar construction order.

        Returns ``(po_names, po_required, po_slack, reg_names,
        reg_required, reg_slack)``; register endpoints follow the cells
        dict order exactly like the scalar pass.
        """
        s = self.s
        period = self.constraints.effective_period
        po_required = period - self._po_margin
        po_slack = po_required - self.arrivals[s.po_nets]
        reg_required = period - self.params[:, _SETUP][self.cell_row[s.seq_cells]]
        reg_slack = reg_required - self.arrivals[s.seq_d]
        return s.po_names, po_required, po_slack, s.seq_names, reg_required, reg_slack

    def arrival_of(self, net_name: str) -> float:
        """Arrival time at a net (0.0 for unknown/launch-less nets)."""
        idx = self.s.net_index.get(net_name)
        if idx is None or self.arrivals is None:
            return 0.0
        return float(self.arrivals[idx])


# -- vectorized power --------------------------------------------------------


def _group_prob(kind: str, p):
    """P(out=1) per gate kind from input 1-probability arrays."""
    if kind == "BUF":
        return p[0]
    if kind == "NOT":
        return 1.0 - p[0]
    if kind == "AND2":
        return p[0] * p[1]
    if kind == "NAND2":
        return 1.0 - p[0] * p[1]
    if kind == "OR2":
        return 1.0 - (1 - p[0]) * (1 - p[1])
    if kind == "NOR2":
        return (1 - p[0]) * (1 - p[1])
    if kind in ("XOR2", "XNOR2"):
        x = p[0] * (1 - p[1]) + (1 - p[0]) * p[1]
        return x if kind == "XOR2" else 1.0 - x
    if kind == "MUX2":
        sel, a, b = p
        return (1 - sel) * a + sel * b
    if kind == "AOI21":
        return (1 - p[0] * p[1]) * (1 - p[2])
    if kind == "OAI21":
        return 1 - (1 - (1 - p[0]) * (1 - p[1])) * p[2]
    raise ValueError(f"unknown gate {kind!r}")


def _group_sens(kind: str, p):
    """Boolean-difference sensitivities: P(an input toggle reaches out)."""
    if kind in ("BUF", "NOT"):
        return [np.ones_like(p[0])]
    if kind in ("AND2", "NAND2"):
        return [p[1], p[0]]
    if kind in ("OR2", "NOR2"):
        return [1 - p[1], 1 - p[0]]
    if kind in ("XOR2", "XNOR2"):
        one = np.ones_like(p[0])
        return [one, one]
    if kind == "MUX2":
        sel, a, b = p
        return [a * (1 - b) + (1 - a) * b, 1 - sel, sel]
    if kind == "AOI21":
        return [p[1] * (1 - p[2]), p[0] * (1 - p[2]), 1 - p[0] * p[1]]
    if kind == "OAI21":
        return [(1 - p[1]) * p[2], (1 - p[0]) * p[2], 1 - (1 - p[0]) * (1 - p[1])]
    raise ValueError(f"unknown gate {kind!r}")


def vector_power(
    kernel: SoAKernel,
    input_probability: float,
    input_activity: float,
    voltage: float,
    internal_energy_fj: float,
):
    """Activity propagation + power integration over SoA arrays.

    Keeps the per-cell sweep's structure exactly — including the
    sequential (Gauss-Seidel, cells dict order) register sweep and the
    convergence early-exit — so switching activities are bit-identical
    to a per-cell dict sweep.

    Returns ``(dynamic, internal, leakage, clock_tree, activities)``
    with unrounded sums and the net-activity dict.
    """
    perf.incr("power.vector")
    s = kernel.s
    if kernel.loads is None:
        kernel.compute_loads()
    prob = np.full(s.num_nets, input_probability, dtype=np.float64)
    act = np.full(s.num_nets, input_activity, dtype=np.float64)
    clock_pis = s.pi_nets[s.pi_is_clock]
    prob[clock_pis] = 0.5
    act[clock_pis] = 2.0

    schedule = s.power_schedule()
    seq_pairs = list(zip(s.seq_out.tolist(), s.seq_d.tolist()))
    for iteration in range(2):
        changed = False
        for q, d in seq_pairs:
            p_new = prob[d]
            a_new = min(act[d], 1.0)
            if prob[q] != p_new or act[q] != a_new:
                changed = True
                prob[q] = p_new
                act[q] = a_new
        if iteration and not changed:
            perf.incr("power.fixpoint_early_exit")
            break
        for kind, _cells, out, in_cols in schedule:
            if kind == "CONST0":
                prob[out] = 0.0
                act[out] = 0.0
                continue
            if kind == "CONST1":
                prob[out] = 1.0
                act[out] = 0.0
                continue
            p = [prob[col] for col in in_cols]
            a = [act[col] for col in in_cols]
            prob[out] = _group_prob(kind, p)
            sens = _group_sens(kind, p)
            total = sens[0] * a[0]
            for pin in range(1, len(sens)):
                total = total + sens[pin] * a[pin]
            act[out] = np.minimum(total, 4.0)

    period = kernel.constraints.clock_period
    freq_ghz = 1.0 / max(period, 1e-9)
    v2 = voltage**2
    assigned = s.net_is_input | s.net_has_driver
    act_eff = np.where(assigned, act, 0.0)
    energy = 0.5 * kernel.loads * v2 * freq_ghz * act_eff
    clock_tree = float(energy[s.net_is_clock].sum())
    dynamic = float(energy[~s.net_is_clock].sum())
    cell_mask = ~s.cell_is_const
    rows = kernel.cell_row[cell_mask]
    params = kernel.params
    leakage = float((params[:, _LEAK][rows] / 1000.0).sum())
    internal = float(
        (
            internal_energy_fj
            * params[:, _DRIVE][rows]
            * act_eff[s.cell_out[cell_mask]]
            * freq_ghz
        ).sum()
    )
    activities = {
        s.net_names[ni]: float(act[ni]) for ni in np.flatnonzero(assigned)
    }
    return dynamic, internal, leakage, clock_tree, activities

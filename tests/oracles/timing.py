"""Scalar STA reference: the per-cell dict walk behind ``TimingEngine``.

:class:`ScalarTimingEngine` keeps :class:`~repro.synth.timing.TimingEngine`'s
electrical model (bound cells, net loads, cell delays, journal sync) and
replaces every analysis with the formulation the SoA kernels must
reproduce bit for bit:

* full rebuild — arrivals propagated through ``netlist.topological_cells()``
  with the worst input recorded per net;
* incremental update — resizes re-propagated through a heap of dirty
  cells in topological order, stopping where values stop changing;
* path trace — walks the predecessors recorded during propagation;
* trials — every lane applied through the change journal, measured with
  the incremental update and reverted.

It never builds a kernel, so ``total_area`` takes the engine's Python fold.
"""

from __future__ import annotations

import heapq

from repro import perf
from repro.synth.timing import PathPoint, TimingEngine, TimingPath

_CONSTS = ("CONST0", "CONST1")


class ScalarTimingEngine(TimingEngine):
    """Dict-walk STA with the same public surface as ``TimingEngine``."""

    def __init__(self, netlist, library, wireload, constraints) -> None:
        super().__init__(netlist, library, wireload, constraints)
        self._arrivals: dict[str, float] | None = None
        self._pred: dict[str, tuple[str, str] | None] = {}
        self._topo_index: dict[str, int] = {}

    def _invalidate(self) -> None:
        super()._invalidate()
        self._arrivals = None
        self._pred = {}
        self._topo_index = {}

    def _is_clock_net(self, net_name: str) -> bool:
        net = self.netlist.nets[net_name]
        if self.constraints.clock_port is not None:
            return net_name == self.constraints.clock_port
        return net.is_clock

    # -- analysis ------------------------------------------------------------

    def _fold(self) -> None:
        if self._arrivals is None:
            perf.incr("sta.full")
            self._rebuild()
        elif self._pending_resizes:
            perf.incr("sta.incremental")
            self._incremental_update(self._pending_resizes)
            self._pending_resizes = set()
        else:
            perf.incr("sta.cached")

    def analyze(self, with_paths: bool = True):
        self._sync()
        self._fold()
        return self._build_report(with_paths)

    def trial_cps(self) -> float:
        self._sync()
        self._fold()
        if not self._ep_slack:
            return 0.0
        return round(min(self._ep_slack.values()), 4)

    def _apply_measure_revert(self, trials, measure) -> list:
        cells = self.netlist.cells
        results = []
        for lane in trials:
            perf.incr("sta.trial")
            rebinds = [lane] if isinstance(lane[0], str) else list(lane)
            previous = [(cells[name], cells[name].lib_cell) for name, _ in rebinds]
            for name, lib_name in rebinds:
                cells[name].lib_cell = lib_name
            results.append(measure())
            # the reverts are journaled and folded into the next evaluation
            for cell, prev in previous:
                cell.lib_cell = prev
        return results

    def trial_cps_batch(self, trials) -> list[float]:
        return self._apply_measure_revert(trials, self.trial_cps)

    def trial_metrics_batch(self, trials) -> list[tuple[float, float]]:
        return self._apply_measure_revert(
            trials, lambda: (self.trial_cps(), self.total_area())
        )

    # -- full propagation ----------------------------------------------------

    def _rebuild(self) -> None:
        arrivals: dict[str, float] = {}
        predecessor: dict[str, tuple[str, str] | None] = {}

        for name in self.netlist.primary_inputs:
            if self._is_clock_net(name):
                continue
            # The external driver is not free: charge its drive resistance
            # against the input net's load so port fanout costs delay.
            drive = self.constraints.input_drive_res * self._load_of(name) / 1000.0
            arrivals[name] = self.constraints.arrival_offset(name) + drive
            predecessor[name] = None
        for cell in self.netlist.cells.values():
            if cell.is_sequential:
                arrivals[cell.output] = self._delay_of(cell)
                predecessor[cell.output] = None
            elif cell.gate in _CONSTS:
                arrivals[cell.output] = 0.0
                predecessor[cell.output] = None

        topo = self.netlist.topological_cells()
        self._topo_index = {cell.name: i for i, cell in enumerate(topo)}
        for cell in topo:
            if cell.gate in _CONSTS:
                continue
            worst_in = None
            worst_arrival = 0.0
            for net_in in cell.inputs:
                arr = arrivals.get(net_in, 0.0)
                if worst_in is None or arr > worst_arrival:
                    worst_in, worst_arrival = net_in, arr
            delay = self._delay_of(cell)
            arrivals[cell.output] = worst_arrival + delay
            predecessor[cell.output] = (cell.name, worst_in) if worst_in else None

        period = self.constraints.effective_period
        endpoint_slacks: dict[str, float] = {}
        endpoint_required: dict[str, float] = {}
        endpoint_net: dict[str, str] = {}
        for name in self.netlist.primary_outputs:
            required = period - self.constraints.required_margin(name)
            arrival = arrivals.get(name, 0.0)
            endpoint_slacks[f"out:{name}"] = required - arrival
            endpoint_required[f"out:{name}"] = required
            endpoint_net[f"out:{name}"] = name
        for cell in self.netlist.cells.values():
            if not cell.is_sequential:
                continue
            lib = self._bound_of(cell)
            data_net = cell.inputs[0]
            required = period - lib.setup
            arrival = arrivals.get(data_net, 0.0)
            key = f"reg:{cell.name}"
            endpoint_slacks[key] = required - arrival
            endpoint_required[key] = required
            endpoint_net[key] = data_net

        self._arrivals = arrivals
        self._pred = predecessor
        self._ep_slack = endpoint_slacks
        self._ep_required = endpoint_required
        self._ep_net = endpoint_net
        self._pending_resizes = set()

    # -- incremental propagation ---------------------------------------------

    def _incremental_update(self, resized: set[str]) -> None:
        """Re-propagate arrivals through the downstream cone of resizes.

        Only valid when the netlist structure (and thus the cached
        topological order) is unchanged since the last rebuild.
        """
        arrivals = self._arrivals
        assert arrivals is not None
        cells = self.netlist.cells
        nets = self.netlist.nets
        topo_index = self._topo_index
        period = self.constraints.effective_period

        heap: list[tuple[int, str]] = []
        queued: set[str] = set()

        def queue_cell(name: str) -> None:
            if name not in queued:
                queued.add(name)
                heapq.heappush(heap, (topo_index[name], name))

        def refresh_endpoint(key: str) -> None:
            self._ep_slack[key] = self._ep_required[key] - arrivals.get(
                self._ep_net[key], 0.0
            )

        def on_net_changed(net_name: str) -> None:
            net = nets[net_name]
            for sink_name in net.sinks:
                sink = cells[sink_name]
                if sink.is_sequential:
                    if sink.inputs and sink.inputs[0] == net_name:
                        refresh_endpoint(f"reg:{sink_name}")
                    continue  # clock pins do not propagate data arrivals
                if sink.gate in _CONSTS:
                    continue
                queue_cell(sink_name)
            if net.is_output:
                refresh_endpoint(f"out:{net_name}")

        def refresh_source(net_name: str) -> None:
            """Recompute the arrival at a net produced by a non-combinational
            source (port / register / constant) after its load changed."""
            driver = nets[net_name].driver
            if driver is None:
                if net_name in arrivals and not self._is_clock_net(net_name):
                    drive = (
                        self.constraints.input_drive_res
                        * self._load_of(net_name)
                        / 1000.0
                    )
                    new = self.constraints.arrival_offset(net_name) + drive
                    if new != arrivals[net_name]:
                        arrivals[net_name] = new
                        on_net_changed(net_name)
                return
            cell = cells[driver]
            if cell.gate in _CONSTS:
                return  # constants launch at 0.0 regardless of load
            if cell.is_sequential:
                new = self._delay_of(cell)
                if new != arrivals[net_name]:
                    arrivals[net_name] = new
                    on_net_changed(net_name)
                return
            queue_cell(driver)

        # Seed: nets whose load changed (the resized cells' input pins) need
        # their sources re-timed; the resized cells themselves need their own
        # delay re-applied; resized registers also shift their setup check.
        affected_nets: set[str] = set()
        for name in resized:
            cell = cells[name]
            affected_nets.update(cell.inputs)
            clock = cell.attrs.get("clock")
            if clock is not None:
                affected_nets.add(clock)
        for net_name in affected_nets:
            refresh_source(net_name)
        for name in resized:
            cell = cells[name]
            if cell.gate in _CONSTS:
                continue
            if cell.is_sequential:
                key = f"reg:{name}"
                self._ep_required[key] = period - self._bound_of(cell).setup
                refresh_endpoint(key)
                new = self._delay_of(cell)
                if new != arrivals[cell.output]:
                    arrivals[cell.output] = new
                    on_net_changed(cell.output)
            else:
                queue_cell(name)

        while heap:
            _, name = heapq.heappop(heap)
            cell = cells[name]
            worst_in = None
            worst_arrival = 0.0
            for net_in in cell.inputs:
                arr = arrivals.get(net_in, 0.0)
                if worst_in is None or arr > worst_arrival:
                    worst_in, worst_arrival = net_in, arr
            new_arrival = worst_arrival + self._delay_of(cell)
            new_pred = (name, worst_in) if worst_in else None
            out = cell.output
            if new_arrival != arrivals.get(out) or new_pred != self._pred.get(out):
                arrivals[out] = new_arrival
                self._pred[out] = new_pred
                on_net_changed(out)

    # -- path trace ------------------------------------------------------------

    def _trace_path(
        self, end_net: str, endpoint: str, required: float
    ) -> TimingPath:
        arrivals = self._arrivals
        points: list[PathPoint] = []
        net = end_net
        while True:
            pred = self._pred.get(net)
            arrival = arrivals.get(net, 0.0)
            if pred is None:
                points.append(
                    PathPoint(cell="<launch>", net=net, incr=arrival, arrival=arrival)
                )
                break
            cell_name, prev_net = pred
            incr = arrival - arrivals.get(prev_net, 0.0)
            points.append(PathPoint(cell=cell_name, net=net, incr=incr, arrival=arrival))
            net = prev_net
        points.reverse()
        return TimingPath(
            startpoint=points[0].net,
            endpoint=endpoint,
            points=points,
            arrival=arrivals.get(end_net, 0.0),
            required=required,
        )

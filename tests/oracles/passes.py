"""Scalar pass-loop references: apply, analyze, revert — one trial at a time.

The production passes in :mod:`repro.synth.optimizer` score candidates in
batched kernel sweeps and seed the buffering worklist from one fanout
scan.  The loops here are the direct formulations they must reproduce:
same candidate order, same acceptance tests, hence the same accepted
changes, the same final netlist and the same QoR.

:func:`scalar_flow` routes a whole :class:`~repro.synth.dcshell.DCShell`
session through these loops and :class:`~.timing.ScalarTimingEngine`.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro import perf
from repro.synth import dcshell
from repro.synth.optimizer import PassResult
from repro.synth.passes import PassContext

from .timing import ScalarTimingEngine


def scalar_context(netlist, library, wireload, constraints) -> PassContext:
    """A pass context whose shared engine is the scalar reference."""
    return PassContext(
        netlist, library, wireload, constraints,
        engine=ScalarTimingEngine(netlist, library, wireload, constraints),
    )


def _context(context, netlist, library, wireload, constraints):
    if context is not None:
        return context
    return scalar_context(netlist, library, wireload, constraints)


def size_gates(
    netlist, library, wireload, constraints,
    max_rounds=30, scan=12, context=None,
) -> PassResult:
    """Greedy critical-path upsizing, one applied trial per candidate."""
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    report = engine.analyze()
    wns_before, area_before = report.cps, engine.total_area()
    upgrade = ctx.upgrade_table()
    changes = 0
    for _ in range(max_rounds):
        if report.critical_path is None or report.cps >= 0:
            break
        points = sorted(
            report.critical_path.points, key=lambda p: p.incr, reverse=True
        )
        improved_report = None
        for point in points[:scan]:
            cell = netlist.cells.get(point.cell)
            if cell is None or cell.lib_cell is None:
                continue
            bigger = upgrade[cell.lib_cell]
            if bigger is None:
                continue
            previous = cell.lib_cell
            cell.lib_cell = bigger.name
            perf.incr("opt.trials")
            trial = engine.analyze(with_paths=False)
            if trial.cps > report.cps + 1e-12:
                improved_report = engine.analyze()
                changes += 1
                break
            cell.lib_cell = previous
        if improved_report is None:
            break
        report = improved_report
    final_cps = engine.analyze(with_paths=False).cps
    return PassResult(
        name="size_gates",
        changes=changes,
        wns_before=wns_before,
        wns_after=final_cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


def recover_area(
    netlist, library, wireload, constraints,
    slack_margin=0.05, context=None,
) -> PassResult:
    """Chunked downsizing, each chunk verified with a full report."""
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    before_cps = engine.analyze(with_paths=False).cps
    area_before = engine.total_area()
    changes = 0
    if before_cps < slack_margin:
        return PassResult(
            "recover_area", 0, before_cps, before_cps, area_before, area_before
        )
    candidates = []
    for cell in netlist.cells.values():
        if cell.lib_cell is None:
            continue
        current = library.cell(cell.lib_cell)
        weaker = [
            v for v in library.variants(current.function)
            if v.drive < current.drive
        ]
        if weaker:
            candidates.append((cell, cell.lib_cell, weaker[-1]))
    chunk = max(1, len(candidates) // 20)
    for start in range(0, len(candidates), chunk):
        batch = candidates[start : start + chunk]
        for cell, _, weaker_cell in batch:
            cell.lib_cell = weaker_cell.name
        perf.incr("opt.trials")
        if engine.analyze(with_paths=False).cps < slack_margin:
            for cell, current_name, _ in batch:
                cell.lib_cell = current_name
        else:
            changes += len(batch)
    final_cps = engine.analyze(with_paths=False).cps
    return PassResult(
        name="recover_area",
        changes=changes,
        wns_before=before_cps,
        wns_after=final_cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


def buffer_high_fanout(
    netlist, library, wireload, constraints,
    max_fanout=None, context=None,
) -> PassResult:
    """Buffer-tree insertion with a worklist of every net."""
    limit = max_fanout or constraints.max_fanout or 16
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    before = engine.analyze(with_paths=False)
    area_before = engine.total_area()
    buf_cell = library.variants("BUF")[-1]
    changes = 0
    worklist = list(netlist.nets)
    while worklist:
        net_name = worklist.pop()
        net = netlist.nets.get(net_name)
        if net is None or not net.sinks:
            continue
        driver = netlist.driver_cell(net_name)
        if driver is not None and driver.gate in ("CONST0", "CONST1"):
            continue
        weighted = [
            (s, netlist.cells[s].inputs.count(net_name))
            for s in sorted(net.sinks)
            if net_name in netlist.cells[s].inputs
        ]
        if sum(w for _, w in weighted) <= limit:
            continue
        groups: list[list[str]] = []
        current: list[str] = []
        current_pins = 0
        for sink_name, pins in weighted:
            if current and current_pins + pins > limit:
                groups.append(current)
                current, current_pins = [], 0
            current.append(sink_name)
            current_pins += pins
        if current:
            groups.append(current)
        for group in groups:
            branch = netlist.add_net()
            cell = netlist.add_cell(
                "BUF", [net_name], branch.name, fanout_buffer=True
            )
            cell.lib_cell = buf_cell.name
            for sink_name in group:
                netlist.rewire_input(sink_name, net_name, branch.name)
            changes += 1
        worklist.append(net_name)
    final = engine.analyze(with_paths=False)
    return PassResult(
        name="buffer_high_fanout",
        changes=changes,
        wns_before=before.cps,
        wns_after=final.cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


@contextlib.contextmanager
def scalar_flow():
    """Run ``DCShell`` sessions on the scalar engine and pass loops."""
    with mock.patch.multiple(
        dcshell,
        PassContext=scalar_context,
        size_gates=size_gates,
        recover_area=recover_area,
        buffer_high_fanout=buffer_high_fanout,
    ):
        yield

"""Report generation: QoR summaries and DC-style text reports.

The :class:`QoRSnapshot` is the structured result the evaluation harness
consumes (Table III/IV columns); the text renderers imitate Design
Compiler's report formats so the LLM pipeline has realistic report text to
read (paper Fig. 2: reports feed back into script customization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timing import TimingEngine, TimingReport

__all__ = ["QoRSnapshot", "render_timing_report", "render_area_report", "render_qor_report"]


@dataclass(frozen=True)
class QoRSnapshot:
    """Quality-of-results summary for one synthesized design."""

    design: str
    wns: float
    cps: float
    tns: float
    area: float
    num_violations: int
    num_cells: int
    num_registers: int
    max_fanout: int
    leakage_nw: float
    dynamic_uw: float

    @property
    def timing_met(self) -> bool:
        return self.num_violations == 0

    def row(self) -> dict:
        """Table III/IV style row."""
        return {
            "design": self.design,
            "WNS": round(self.wns, 2),
            "CPS": round(self.cps, 2),
            "TNS": round(self.tns, 2),
            "Area": round(self.area, 2),
        }


def snapshot(design: str, engine: TimingEngine, report: TimingReport) -> QoRSnapshot:
    """Build a :class:`QoRSnapshot` from an analyzed engine.

    Counts come from the engine's SoA lowering instead of a walk over
    the netlist objects: a net's fanout as :meth:`Netlist.fanout` counts
    it is its distinct sinks (its pair segment) plus the output port.
    """
    s = engine.structure()
    fanouts = np.diff(s.pair_ptr) + s.net_is_output
    return QoRSnapshot(
        design=design,
        wns=report.wns,
        cps=report.cps,
        tns=report.tns,
        area=round(engine.total_area(), 2),
        num_violations=report.num_violations,
        num_cells=s.num_cells,
        num_registers=len(s.seq_cells),
        max_fanout=int(fanouts.max(initial=0)),
        leakage_nw=round(engine.total_leakage(), 1),
        dynamic_uw=round(engine.dynamic_power(), 1),
    )


def render_timing_report(design: str, report: TimingReport, max_points: int = 20) -> str:
    """DC ``report_timing``-style text for the critical path."""
    lines = [
        "****************************************",
        "Report : timing",
        f"Design : {design}",
        "****************************************",
        "",
    ]
    path = report.critical_path
    if path is None:
        lines.append("No constrained paths.")
        return "\n".join(lines)
    lines.append(f"  Startpoint: {path.startpoint}")
    lines.append(f"  Endpoint:   {path.endpoint}")
    lines.append("")
    lines.append(f"  {'Point':<40}{'Incr':>8}{'Path':>8}")
    lines.append("  " + "-" * 56)
    points = path.points
    if len(points) > max_points:
        head = points[: max_points // 2]
        tail = points[-(max_points // 2):]
        shown = list(head) + [None] + list(tail)
    else:
        shown = list(points)
    for point in shown:
        if point is None:
            lines.append("  ...")
            continue
        label = f"{point.cell} ({point.net})"
        lines.append(f"  {label:<40}{point.incr:>8.3f}{point.arrival:>8.3f}")
    lines.append("  " + "-" * 56)
    lines.append(f"  data arrival time  {path.arrival:>10.3f}")
    lines.append(f"  data required time {path.required:>10.3f}")
    verdict = "MET" if path.slack >= 0 else "VIOLATED"
    lines.append(f"  slack ({verdict}) {path.slack:>10.3f}")
    return "\n".join(lines)


def render_area_report(design: str, engine: TimingEngine) -> str:
    """DC ``report_area``-style text."""
    netlist = engine.netlist
    stats = netlist.stats()
    comb_area = 0.0
    seq_area = 0.0
    buf_area = 0.0
    for cell in netlist.cells.values():
        if cell.gate in ("CONST0", "CONST1"):
            continue
        area = engine._bound_cell(cell).area
        if cell.is_sequential:
            seq_area += area
        else:
            comb_area += area
            if cell.gate == "BUF":
                buf_area += area
    lines = [
        "****************************************",
        "Report : area",
        f"Design : {design}",
        "****************************************",
        "",
        f"Number of cells:          {stats['cells']:>12}",
        f"Number of sequential:     {stats['sequential']:>12}",
        f"Number of nets:           {stats['nets']:>12}",
        f"Combinational area:       {comb_area:>12.2f}",
        f"Buf/Inv area:             {buf_area:>12.2f}",
        f"Noncombinational area:    {seq_area:>12.2f}",
        f"Total cell area:          {comb_area + seq_area:>12.2f}",
    ]
    return "\n".join(lines)


def render_qor_report(snap: QoRSnapshot) -> str:
    """DC ``report_qor``-style text."""
    lines = [
        "****************************************",
        "Report : qor",
        f"Design : {snap.design}",
        "****************************************",
        "",
        "  Timing Path Group 'clk'",
        "  -----------------------------------",
        f"  Critical Path Slack:     {snap.cps:>10.2f}",
        f"  Worst Negative Slack:    {snap.wns:>10.2f}",
        f"  Total Negative Slack:    {snap.tns:>10.2f}",
        f"  No. of Violating Paths:  {snap.num_violations:>10}",
        "",
        "  Area",
        "  -----------------------------------",
        f"  Design Area:             {snap.area:>10.2f}",
        f"  Leaf Cell Count:         {snap.num_cells:>10}",
        f"  Register Count:          {snap.num_registers:>10}",
        f"  Max Fanout:              {snap.max_fanout:>10}",
        "",
        "  Power",
        "  -----------------------------------",
        f"  Leakage Power (nW):      {snap.leakage_nw:>10.1f}",
        f"  Dynamic Power (uW):      {snap.dynamic_uw:>10.1f}",
    ]
    return "\n".join(lines)

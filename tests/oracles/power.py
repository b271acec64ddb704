"""Scalar power reference: per-cell probability/activity propagation.

The formulation :func:`repro.synth.soa.vector_power` reproduces: signal
probabilities and transition densities pushed through
``netlist.topological_cells()`` one cell at a time with the per-gate
rules below, registers swept in cells-dict order, and the second sweep
skipped when the register sweep changes nothing.  Activities must match
the SoA kernel bit for bit; whole-design sums may differ by summation
order within the report's 3-decimal rounding.
"""

from __future__ import annotations

from repro import perf
from repro.synth.power import PowerAnalyzer, PowerReport

from .timing import ScalarTimingEngine


def prob_out(gate: str, p: list[float]) -> float:
    """P(out=1) for ``gate`` given input 1-probabilities."""
    if gate == "CONST0":
        return 0.0
    if gate == "CONST1":
        return 1.0
    if gate == "BUF":
        return p[0]
    if gate == "NOT":
        return 1.0 - p[0]
    if gate == "AND2":
        return p[0] * p[1]
    if gate == "NAND2":
        return 1.0 - p[0] * p[1]
    if gate == "OR2":
        return 1.0 - (1 - p[0]) * (1 - p[1])
    if gate == "NOR2":
        return (1 - p[0]) * (1 - p[1])
    if gate in ("XOR2", "XNOR2"):
        x = p[0] * (1 - p[1]) + (1 - p[0]) * p[1]
        return x if gate == "XOR2" else 1.0 - x
    if gate == "MUX2":
        sel, a, b = p
        return (1 - sel) * a + sel * b
    if gate == "AOI21":
        return (1 - p[0] * p[1]) * (1 - p[2])
    if gate == "OAI21":
        return 1 - (1 - (1 - p[0]) * (1 - p[1])) * p[2]
    if gate == "DFF":
        return p[0]
    raise ValueError(f"unknown gate {gate!r}")


def sensitivities(gate: str, p: list[float]) -> list[float]:
    """Boolean-difference sensitivities: P(a toggle on input i reaches out)."""
    if gate in ("CONST0", "CONST1"):
        return []
    if gate in ("BUF", "NOT", "DFF"):
        return [1.0]
    if gate in ("AND2", "NAND2"):
        return [p[1], p[0]]
    if gate in ("OR2", "NOR2"):
        return [1 - p[1], 1 - p[0]]
    if gate in ("XOR2", "XNOR2"):
        return [1.0, 1.0]
    if gate == "MUX2":
        sel, a, b = p
        # sel toggles propagate when a != b; data propagates when selected.
        return [a * (1 - b) + (1 - a) * b, 1 - sel, sel]
    if gate == "AOI21":
        return [p[1] * (1 - p[2]), p[0] * (1 - p[2]), 1 - p[0] * p[1]]
    if gate == "OAI21":
        return [(1 - p[1]) * p[2], (1 - p[0]) * p[2], 1 - (1 - p[0]) * (1 - p[1])]
    raise ValueError(f"unknown gate {gate!r}")


class ScalarPowerAnalyzer(PowerAnalyzer):
    """``PowerAnalyzer`` with the per-cell dict sweep instead of the kernel."""

    def analyze(
        self,
        input_probability: float = 0.5,
        input_activity: float = 0.2,
    ) -> PowerReport:
        netlist = self.netlist
        engine = ScalarTimingEngine(
            netlist, self.library, self.wireload, self.constraints
        )
        prob: dict[str, float] = {}
        act: dict[str, float] = {}
        for name in netlist.primary_inputs:
            net = netlist.nets[name]
            if net.is_clock:
                prob[name] = 0.5
                act[name] = 2.0  # two edges per cycle
            else:
                prob[name] = input_probability
                act[name] = input_activity
        # Registers first: their outputs are sources for the comb cone.
        # Iterate twice so reg->comb->reg probability reaches fixpoint-ish;
        # when the second register sweep changes nothing, the combinational
        # values are already a pure function of unchanged sources, so the
        # second comb sweep would reproduce every value — skip it.
        for iteration in range(2):
            changed = False
            for cell in netlist.cells.values():
                if cell.is_sequential:
                    d = cell.inputs[0]
                    p_new = prob.get(d, input_probability)
                    a_new = min(act.get(d, input_activity), 1.0)
                    q = cell.output
                    if prob.get(q) != p_new or act.get(q) != a_new:
                        changed = True
                        prob[q] = p_new
                        act[q] = a_new
            if iteration and not changed:
                perf.incr("power.fixpoint_early_exit")
                break
            for cell in netlist.topological_cells():
                p_in = [prob.get(n, input_probability) for n in cell.inputs]
                a_in = [act.get(n, input_activity) for n in cell.inputs]
                prob[cell.output] = prob_out(cell.gate, p_in)
                sens = sensitivities(cell.gate, p_in)
                act[cell.output] = min(
                    sum(s * a for s, a in zip(sens, a_in)), 4.0
                )

        freq_ghz = 1.0 / max(self.constraints.clock_period, 1e-9)
        v2 = self.voltage**2
        dynamic = 0.0
        internal = 0.0
        leakage = 0.0
        clock_tree = 0.0
        for name, net in netlist.nets.items():
            cap_ff = engine.net_load(name)
            activity = act.get(name, 0.0)
            # 0.5 * C[fF] * V^2 * f[GHz] * D  -> uW
            energy = 0.5 * cap_ff * v2 * freq_ghz * activity
            if net.is_clock:
                clock_tree += energy
            else:
                dynamic += energy
        for cell in netlist.cells.values():
            if cell.gate in ("CONST0", "CONST1"):
                continue
            lib = engine._bound_cell(cell)
            leakage += lib.leakage / 1000.0  # nW -> uW
            activity = act.get(cell.output, 0.0)
            internal += self.internal_energy_fj * lib.drive * activity * freq_ghz
        return PowerReport(
            dynamic_uw=round(dynamic, 3),
            internal_uw=round(internal, 3),
            leakage_uw=round(leakage, 3),
            clock_tree_uw=round(clock_tree, 3),
            net_activities=act,
        )

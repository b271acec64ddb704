"""Activity-propagation power analysis (the PrimePower-flavoured extension).

The paper's future work points at coupling the flow with power signoff
(PrimePower [52]).  This module implements the classical static approach:

* **signal probability** P(net = 1) propagated through gate functions
  (inputs assumed independent — the standard first-order approximation);
* **transition density** D(net) in transitions/cycle, propagated via the
  Boolean-difference rule  D(out) = sum_i P(dOut/dIn_i) * D(in_i)
  approximated per gate type;
* **dynamic power** per net: 0.5 * C_load * Vdd^2 * f * D(net);
* **internal + leakage power** per cell from the library.

Registers reset probabilities to their D-input steady state and emit one
output transition per input transition capped at 1/cycle.

Propagation and integration run on the structure-of-arrays kernels
(:func:`repro.synth.soa.vector_power`); activities are bit-identical to a
per-cell dict sweep (the scalar reference analyzer in ``tests/oracles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl.netlist import Netlist
from . import soa
from .library import TechLibrary
from .sdc import Constraints
from .wireload import WireLoadModel

__all__ = ["PowerReport", "PowerAnalyzer"]


@dataclass
class PowerReport:
    """Design-level power summary (uW unless noted)."""

    dynamic_uw: float
    internal_uw: float
    leakage_uw: float
    clock_tree_uw: float
    net_activities: dict[str, float] = field(default_factory=dict)

    @property
    def total_uw(self) -> float:
        return self.dynamic_uw + self.internal_uw + self.leakage_uw + self.clock_tree_uw

    def render(self, design: str) -> str:
        lines = [
            "****************************************",
            "Report : power (activity propagation)",
            f"Design : {design}",
            "****************************************",
            "",
            f"  Net Switching Power:   {self.dynamic_uw:>12.2f} uW",
            f"  Cell Internal Power:   {self.internal_uw:>12.2f} uW",
            f"  Cell Leakage Power:    {self.leakage_uw:>12.2f} uW",
            f"  Clock Tree Power:      {self.clock_tree_uw:>12.2f} uW",
            f"  Total Power:           {self.total_uw:>12.2f} uW",
        ]
        return "\n".join(lines)


class PowerAnalyzer:
    """Static power analysis over a mapped netlist."""

    def __init__(
        self,
        netlist: Netlist,
        library: TechLibrary,
        wireload: WireLoadModel,
        constraints: Constraints,
        voltage: float = 1.1,
        internal_energy_fj: float = 0.8,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.wireload = wireload
        self.constraints = constraints
        self.voltage = voltage
        self.internal_energy_fj = internal_energy_fj

    def analyze(
        self,
        input_probability: float = 0.5,
        input_activity: float = 0.2,
    ) -> PowerReport:
        """Propagate probabilities/activities and integrate power.

        Args:
            input_probability: P(=1) assumed at primary inputs.
            input_activity: transitions per cycle at primary inputs.
        """
        kernel = soa.SoAKernel(
            self.netlist, self.library, self.wireload, self.constraints
        )
        dynamic, internal, leakage, clock_tree, activities = soa.vector_power(
            kernel,
            input_probability,
            input_activity,
            self.voltage,
            self.internal_energy_fj,
        )
        return PowerReport(
            dynamic_uw=round(dynamic, 3),
            internal_uw=round(internal, 3),
            leakage_uw=round(leakage, 3),
            clock_tree_uw=round(clock_tree, 3),
            net_activities=activities,
        )

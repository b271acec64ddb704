"""Tests for the activity-propagation power analyzer."""

import pytest

from repro.hdl import elaborate
from repro.synth import Constraints, get_wireload, nangate45
from repro.synth.power import PowerAnalyzer
from repro.synth.techmap import map_to_library

# The per-gate probability model, stated per cell; the SoA kernel's
# vectorized rules are held to it by tests/synth/test_soa_parity.py.
from ..oracles.power import prob_out, sensitivities


def analyzer_for(src, top, period=1.0):
    nl = elaborate(src, top)
    map_to_library(nl, nangate45())
    return PowerAnalyzer(
        nl, nangate45(), get_wireload("5K_heavy_1k"), Constraints(clock_period=period)
    )


class TestProbabilityModel:
    def test_and_gate(self):
        assert prob_out("AND2", [0.5, 0.5]) == pytest.approx(0.25)

    def test_or_gate(self):
        assert prob_out("OR2", [0.5, 0.5]) == pytest.approx(0.75)

    def test_xor_gate(self):
        assert prob_out("XOR2", [0.5, 0.5]) == pytest.approx(0.5)

    def test_not_gate(self):
        assert prob_out("NOT", [0.2]) == pytest.approx(0.8)

    def test_mux_balanced(self):
        assert prob_out("MUX2", [0.5, 0.0, 1.0]) == pytest.approx(0.5)

    def test_consts(self):
        assert prob_out("CONST0", []) == 0.0
        assert prob_out("CONST1", []) == 1.0

    @pytest.mark.parametrize("gate", ["AND2", "OR2", "XOR2", "NAND2", "NOR2"])
    def test_probabilities_bounded(self, gate):
        for pa in (0.0, 0.3, 1.0):
            for pb in (0.0, 0.7, 1.0):
                p = prob_out(gate, [pa, pb])
                assert 0.0 <= p <= 1.0

    def test_sensitivities_bounded(self):
        for gate in ("AND2", "OR2", "XOR2", "MUX2"):
            n = 3 if gate == "MUX2" else 2
            sens = sensitivities(gate, [0.4] * n)
            assert all(0.0 <= s <= 1.0 for s in sens)

    def test_and_sensitivity_gated_by_other_input(self):
        # A transition through an AND only propagates when the other
        # input is 1.
        sens = sensitivities("AND2", [0.5, 0.0])
        assert sens[0] == 0.0


class TestPowerAnalysis:
    COMB = "module m(input [7:0] a, b, output [7:0] y); assign y = a ^ b; endmodule"
    SEQ = """
    module m(input clk, input [7:0] d, output reg [7:0] q);
      always @(posedge clk) q <= d;
    endmodule
    """

    def test_report_components_positive(self):
        report = analyzer_for(self.COMB, "m").analyze()
        assert report.dynamic_uw > 0
        assert report.leakage_uw > 0
        assert report.total_uw > report.dynamic_uw

    def test_clock_power_separated(self):
        report = analyzer_for(self.SEQ, "m").analyze()
        assert report.clock_tree_uw > 0

    def test_zero_activity_zero_switching(self):
        report = analyzer_for(self.COMB, "m").analyze(input_activity=0.0)
        assert report.dynamic_uw == 0.0
        assert report.leakage_uw > 0  # leakage is activity-independent

    def test_power_scales_with_activity(self):
        low = analyzer_for(self.COMB, "m").analyze(input_activity=0.1)
        high = analyzer_for(self.COMB, "m").analyze(input_activity=0.4)
        assert high.dynamic_uw > low.dynamic_uw

    def test_power_scales_with_frequency(self):
        slow = analyzer_for(self.COMB, "m", period=10.0).analyze()
        fast = analyzer_for(self.COMB, "m", period=1.0).analyze()
        assert fast.dynamic_uw > slow.dynamic_uw

    def test_render(self):
        text = analyzer_for(self.SEQ, "m").analyze().render("m")
        assert "Total Power" in text
        assert "Clock Tree" in text

    def test_report_power_command_uses_analyzer(self):
        from repro.synth import DCShell

        shell = DCShell()
        shell.add_design("m", self.SEQ)
        result = shell.run_script(
            "read_verilog m\ncreate_clock -period 1.0 clk\ncompile\nreport_power"
        )
        assert result.success
        power_text = [o for l, o in result.transcript if l == "report_power"][0]
        assert "Net Switching Power" in power_text

"""Unit tests for the Verilog parser."""

import pytest

from repro.hdl.ast_nodes import (
    BinaryOp,
    CaseStatement,
    Concat,
    Identifier,
    IfStatement,
    Number,
    RangeSelect,
    TernaryOp,
    UnaryOp,
)
from repro.hdl.parser import ParseError, parse_number, parse_source


class TestNumberParsing:
    def test_unsized_decimal(self):
        n = parse_number("42")
        assert n.value == 42
        assert n.width is None

    def test_sized_hex(self):
        n = parse_number("8'hFF")
        assert n.value == 255
        assert n.width == 8

    def test_sized_binary(self):
        assert parse_number("4'b1010").value == 10

    def test_signed_marker(self):
        assert parse_number("8'sd5").value == 5

    def test_x_bits_treated_as_zero(self):
        assert parse_number("4'b1x0z").value == 8

    def test_underscores_ignored(self):
        assert parse_number("32'hDEAD_BEEF").value == 0xDEADBEEF


class TestModuleHeader:
    def test_ansi_ports(self):
        sf = parse_source("module m(input a, output reg [7:0] q); endmodule")
        mod = sf.modules[0]
        assert [p.name for p in mod.ports] == ["a", "q"]
        assert mod.ports[1].is_reg
        assert mod.ports[1].direction == "output"

    def test_shared_direction_port_group(self):
        sf = parse_source("module m(input [3:0] a, b, output y); endmodule")
        mod = sf.modules[0]
        assert [p.direction for p in mod.ports] == ["input", "input", "output"]
        assert mod.ports[1].range is not None

    def test_non_ansi_ports_resolved_in_body(self):
        src = """
        module m(a, y);
          input [1:0] a;
          output y;
        endmodule
        """
        mod = parse_source(src).modules[0]
        assert mod.port("a").direction == "input"
        assert mod.port("y").direction == "output"

    def test_parameter_list(self):
        sf = parse_source("module m #(parameter W = 8, D = 4)(); endmodule")
        mod = sf.modules[0]
        assert [p.name for p in mod.params] == ["W", "D"]

    def test_module_source_text_captured(self):
        src = "module m();\nendmodule"
        mod = parse_source(src).modules[0]
        assert "module m" in mod.source_text
        assert "endmodule" in mod.source_text


class TestDeclarationsAndAssigns:
    def test_wire_with_implicit_assign(self):
        mod = parse_source("module m(); wire w = 1'b1; endmodule").modules[0]
        assert len(mod.assigns) == 1
        assert mod.nets[0].name == "w"

    def test_memory_declaration(self):
        mod = parse_source("module m(); reg [7:0] mem [0:255]; endmodule").modules[0]
        assert mod.nets[0].array_range is not None

    def test_localparam(self):
        mod = parse_source("module m(); localparam N = 3; endmodule").modules[0]
        assert mod.params[0].local

    def test_continuous_assign_target_select(self):
        mod = parse_source("module m(output [7:0] y, input a); assign y[3:0] = {4{a}}; endmodule").modules[0]
        assert isinstance(mod.assigns[0].target, RangeSelect)


class TestExpressions:
    def expr(self, text):
        mod = parse_source(f"module m(); assign x = {text}; endmodule").modules[0]
        return mod.assigns[0].value

    def test_precedence_mul_over_add(self):
        e = self.expr("a + b * c")
        assert isinstance(e, BinaryOp)
        assert e.op == "+"
        assert isinstance(e.right, BinaryOp)
        assert e.right.op == "*"

    def test_precedence_shift_vs_compare(self):
        e = self.expr("a << 1 < b")
        assert e.op == "<"

    def test_ternary(self):
        e = self.expr("s ? a : b")
        assert isinstance(e, TernaryOp)

    def test_nested_ternary_right_assoc(self):
        e = self.expr("s ? a : t ? b : c")
        assert isinstance(e.if_false, TernaryOp)

    def test_concat_and_replication(self):
        e = self.expr("{a, 2'b01}")
        assert isinstance(e, Concat)
        rep = self.expr("{4{a}}")
        assert rep.count.value == 4

    def test_unary_reduction(self):
        e = self.expr("^data")
        assert isinstance(e, UnaryOp)
        assert e.op == "^"

    def test_indexed_part_select_desugars(self):
        e = self.expr("bus[base +: 4]")
        assert isinstance(e, RangeSelect)

    def test_bit_and_range_select(self):
        e = self.expr("v[3]")
        assert e.index.value == 3
        e2 = self.expr("v[7:4]")
        assert isinstance(e2, RangeSelect)

    def test_parenthesised_grouping(self):
        e = self.expr("(a + b) * c")
        assert e.op == "*"
        assert e.left.op == "+"


class TestAlwaysBlocks:
    def test_sequential_event(self):
        src = "module m(input c); reg q; always @(posedge c) q <= 1'b1; endmodule"
        blk = parse_source(src).modules[0].always_blocks[0]
        assert blk.event.is_sequential
        assert blk.event.clock == "c"

    def test_star_sensitivity(self):
        src = "module m(input a); reg y; always @(*) y = a; endmodule"
        blk = parse_source(src).modules[0].always_blocks[0]
        assert blk.event.is_star
        assert not blk.event.is_sequential

    def test_multi_edge_sensitivity(self):
        src = "module m(input c, r); reg q; always @(posedge c or negedge r) q <= 1'b0; endmodule"
        blk = parse_source(src).modules[0].always_blocks[0]
        assert blk.event.clock == "c"
        assert len(blk.event.edges) == 2

    def test_if_else_chain(self):
        src = """
        module m(input c, a, b); reg q;
        always @(posedge c)
          if (a) q <= 1'b0;
          else if (b) q <= 1'b1;
          else q <= q;
        endmodule
        """
        blk = parse_source(src).modules[0].always_blocks[0]
        stmt = blk.body[0]
        assert isinstance(stmt, IfStatement)
        assert isinstance(stmt.else_body[0], IfStatement)

    def test_case_with_default(self):
        src = """
        module m(input [1:0] s); reg y;
        always @(*) case (s)
          2'd0: y = 1'b0;
          2'd1, 2'd2: y = 1'b1;
          default: y = 1'b0;
        endcase
        endmodule
        """
        stmt = parse_source(src).modules[0].always_blocks[0].body[0]
        assert isinstance(stmt, CaseStatement)
        assert len(stmt.items) == 3
        assert stmt.items[1].labels and len(stmt.items[1].labels) == 2
        assert stmt.items[2].labels == []

    def test_named_begin_block(self):
        src = "module m(input c); reg q; always @(posedge c) begin : blk q <= 1'b1; end endmodule"
        blk = parse_source(src).modules[0].always_blocks[0]
        assert len(blk.body) == 1


class TestInstances:
    def test_named_connections(self):
        src = "module m(); sub u1 (.a(x), .b(y[3:0])); endmodule"
        inst = parse_source(src).modules[0].instances[0]
        assert inst.module_name == "sub"
        assert [c.port for c in inst.connections] == ["a", "b"]

    def test_positional_connections(self):
        src = "module m(); sub u1 (x, y); endmodule"
        inst = parse_source(src).modules[0].instances[0]
        assert all(c.port is None for c in inst.connections)

    def test_parameter_overrides(self):
        src = "module m(); sub #(.W(16)) u1 (.a(x)); endmodule"
        inst = parse_source(src).modules[0].instances[0]
        assert inst.param_overrides[0][0] == "W"

    def test_unconnected_port(self):
        src = "module m(); sub u1 (.a(x), .b()); endmodule"
        inst = parse_source(src).modules[0].instances[0]
        assert inst.connections[1].expr is None

    def test_multiple_instances_one_statement(self):
        src = "module m(); sub u1 (.a(x)), u2 (.a(y)); endmodule"
        insts = parse_source(src).modules[0].instances
        assert [i.instance_name for i in insts] == ["u1", "u2"]


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_source("module m() endmodule")

    def test_garbage_at_top_level(self):
        with pytest.raises(ParseError):
            parse_source("wire w;")

    def test_unclosed_module(self):
        with pytest.raises(ParseError):
            parse_source("module m(); wire w;")

    def test_error_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_source("module m();\n  assign = 1;\nendmodule")

    @pytest.mark.parametrize("literal", ["8'b102", "8'o19", "8'dA", "8'hG1"])
    def test_digit_outside_base_raises_with_location(self, literal):
        with pytest.raises(ParseError, match="malformed number"):
            parse_number(literal)
        src = f"module m(output y);\n  assign y = {literal};\nendmodule"
        with pytest.raises(ParseError, match=r"line 2:14\b"):
            parse_source(src)

    def test_bad_binary_literal_on_one_line(self):
        with pytest.raises(ParseError, match=r"8'b102.* at line 1:32$"):
            parse_source("module m(output y); assign y = 8'b102; endmodule")

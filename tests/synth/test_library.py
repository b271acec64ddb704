"""Tests for the technology library and liberty parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth import LibCell, TechLibrary, nangate45, parse_liberty, write_liberty
from repro.synth.liberty import LibertyError


class TestTechLibrary:
    def test_builtin_covers_all_generic_gates(self):
        lib = nangate45()
        from repro.hdl.netlist import GENERIC_GATES

        mappable = set(GENERIC_GATES) - {"CONST0", "CONST1"}
        assert mappable <= lib.functions()

    def test_drive_variants_sorted(self):
        lib = nangate45()
        drives = [c.drive for c in lib.variants("NAND2")]
        assert drives == sorted(drives)

    def test_weakest_and_upsize(self):
        lib = nangate45()
        weak = lib.weakest("AND2")
        assert weak.drive == 1
        up = lib.next_size_up(weak)
        assert up.drive > weak.drive
        top = lib.variants("AND2")[-1]
        assert lib.next_size_up(top) is None

    def test_stronger_cells_faster_under_load(self):
        lib = nangate45()
        weak = lib.weakest("NAND2")
        strong = lib.variants("NAND2")[-1]
        assert strong.delay(50.0) < weak.delay(50.0)
        assert strong.area > weak.area

    def test_dff_has_sequential_params(self):
        lib = nangate45()
        dff = lib.weakest("DFF")
        assert dff.is_sequential
        assert dff.setup > 0
        assert dff.clk_to_q > 0

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            nangate45().cell("NAND99_X9")

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            nangate45().weakest("LUT6")

    def test_duplicate_cell_rejected(self):
        cell = LibCell("X_X1", "BUF", 1, 1.0, 1.0, 4.0, 0.02, 1.0)
        with pytest.raises(ValueError):
            TechLibrary("t", [cell, cell])

    def test_inverter_cheapest_gate(self):
        lib = nangate45()
        inv = lib.weakest("NOT")
        for function in ("AND2", "XOR2", "MUX2"):
            assert inv.area <= lib.weakest(function).area


class TestLiberty:
    def test_round_trip(self):
        lib = nangate45()
        text = write_liberty(lib)
        parsed = parse_liberty(text)
        assert parsed.name == lib.name
        assert len(parsed.cells()) == len(lib.cells())
        for cell in lib.cells():
            other = parsed.cell(cell.name)
            assert other.area == pytest.approx(cell.area)
            assert other.drive_res == pytest.approx(cell.drive_res)
            assert other.function == cell.function
            if cell.is_sequential:
                assert other.setup == pytest.approx(cell.setup)

    def test_parse_minimal_library(self):
        text = """
        library (mini) {
          cell (INV_X1) {
            area : 0.5;
            function_class : "NOT";
            drive_strength : 1;
            pin (o) { direction : output; drive_resistance : 4.0; intrinsic_delay : 0.01; }
            pin (a) { direction : input; capacitance : 1.0; }
          }
        }
        """
        lib = parse_liberty(text)
        assert lib.name == "mini"
        assert lib.cell("INV_X1").function == "NOT"

    def test_comments_ignored(self):
        text = """
        /* header */
        library (c) {
          // one cell
          cell (B_X1) {
            area : 1.0;
            function_class : "BUF";
            pin (o) { direction : output; }
            pin (a) { direction : input; capacitance : 1.0; }
          }
        }
        """
        assert parse_liberty(text).cell("B_X1").area == 1.0

    def test_missing_output_pin_rejected(self):
        text = """
        library (bad) {
          cell (B_X1) { area : 1.0; pin (a) { direction : input; } }
        }
        """
        with pytest.raises(LibertyError):
            parse_liberty(text)

    def test_non_library_top_rejected(self):
        with pytest.raises(LibertyError):
            parse_liberty("cell (X) { }")

    def test_garbage_rejected(self):
        with pytest.raises(LibertyError):
            parse_liberty("library (x) { @@@ }")


def _one_cell(body: str) -> str:
    """A library with one cell ``X`` whose attributes/pins are ``body``."""
    return (
        "library (t) {\n"
        "  cell (X) {\n"
        f"{body}\n"
        "    pin (o) { direction : output; }\n"
        "  }\n"
        "}\n"
    )


def _located(text: str) -> LibertyError:
    with pytest.raises(LibertyError) as info:
        parse_liberty(text)
    err = info.value
    assert err.line is not None and err.col is not None
    assert f"at {err.line}:{err.col}" in str(err)
    return err


_MUTATIONS = ["", "{", "}", "(", ";", ":", "x", "1e999", '"', "/*", "\n"]


class TestLibertyErrorContract:
    """Every malformed input raises ``LibertyError`` at a line and column."""

    def test_round_trip_is_exact(self):
        lib = nangate45()
        text = write_liberty(lib)
        parsed = parse_liberty(text)
        assert parsed.cells() == lib.cells()
        assert write_liberty(parsed) == text

    @pytest.mark.parametrize(
        "body, name",
        [
            ("    area : big;", "area"),
            ('    drive_strength : "x2";', "drive_strength"),
            ("    pin (a) { direction : input; capacitance : high; }", "capacitance"),
        ],
    )
    def test_non_numeric_value(self, body, name):
        err = _located(_one_cell(body))
        assert name in err.message
        assert (err.line, err.col) == (3, body.index(":", body.index(name)) + 3)

    def test_non_integral_drive_strength(self):
        err = _located(_one_cell("    drive_strength : 1.5;"))
        assert (err.line, err.col) == (3, 22)

    def test_non_finite_value(self):
        err = _located(_one_cell("    area : 1e999;"))
        assert "finite" in err.message

    def test_overlong_integer(self):
        err = _located(_one_cell("    area : " + "9" * 5000 + ";"))
        assert (err.line, err.col) == (3, 12)

    def test_deep_nesting_bounded(self):
        err = _located("library (t) {\n" + "g () {\n" * 5000)
        assert "nested" in err.message
        assert err.line == 65

    def test_duplicate_cell(self):
        text = (
            "library (t) {\n"
            "  cell (X) { pin (o) { direction : output; } }\n"
            "  cell (X) { pin (o) { direction : output; } }\n"
            "}\n"
        )
        err = _located(text)
        assert "duplicate cell 'X'" in err.message
        assert (err.line, err.col) == (3, 3)

    def test_trailing_tokens(self):
        err = _located(_one_cell("") + "cell (Y) { }")
        assert (err.line, err.col) == (7, 1)

    def test_tokenizer_error_located(self):
        err = _located("library (t) {\n  cell (X) { @ }\n}")
        assert (err.line, err.col) == (2, 14)

    def test_structural_errors_located(self):
        assert _located("cell (X) { }").col == 1
        err = _located(
            "library (t) {\n  cell (X) { pin (a) { direction : input; } }\n}"
        )
        assert (err.line, err.col) == (2, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutations_parse_or_raise_located(self, data):
        """Random edits of a valid library: a library or a located error."""
        text = write_liberty(nangate45())
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            cut = data.draw(st.integers(0, 8))
            insert = data.draw(st.sampled_from(_MUTATIONS))
            text = text[:at] + insert + text[at + cut :]
        try:
            lib = parse_liberty(text)
        except LibertyError as err:
            assert err.line is not None and err.col is not None
        else:
            assert isinstance(lib, TechLibrary)

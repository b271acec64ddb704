"""Tests for the Tcl-subset interpreter."""

import pickle

import pytest

from repro.synth import DCShell, DCShellError, TclError, TclInterpreter


@pytest.fixture
def interp():
    return TclInterpreter()


class TestBasics:
    def test_set_and_substitute(self, interp):
        interp.eval_line("set period 2.0")
        assert interp.eval_line("set period") == "2.0"
        interp.eval_line('set msg "clk period is $period"')
        assert interp.variables["msg"] == "clk period is 2.0"

    def test_braced_substitution(self, interp):
        interp.variables["x"] = "5"
        interp.eval_line('set y "${x}ns"')
        assert interp.variables["y"] == "5ns"

    def test_braces_suppress_substitution(self, interp):
        interp.eval_line("set y {$x literal}")
        assert interp.variables["y"] == "$x literal"

    def test_command_substitution(self, interp):
        interp.eval_line("set a [expr 2 + 3]")
        assert interp.variables["a"] == "5"

    def test_nested_command_substitution(self, interp):
        interp.eval_line("set a [expr [expr 1 + 1] * 3]")
        assert interp.variables["a"] == "6"

    def test_puts_captures_output(self, interp):
        interp.eval_line('puts "hello"')
        assert interp.output == ["hello"]

    def test_unknown_command_raises(self, interp):
        with pytest.raises(TclError, match="invalid command"):
            interp.eval_line("fabricate_chip now")

    def test_undefined_variable_raises(self, interp):
        with pytest.raises(TclError, match="no such variable"):
            interp.eval_line("puts $ghost")


class TestScripts:
    def test_multiline_script(self, interp):
        results = interp.eval_script(
            """
            set a 1
            set b 2
            """
        )
        assert len(results) == 2

    def test_comments_and_blank_lines_skipped(self, interp):
        results = interp.eval_script(
            """
            # a comment

            set a 1
            """
        )
        assert len(results) == 1

    def test_semicolon_separation(self, interp):
        interp.eval_script("set a 1; set b 2")
        assert interp.variables == {"a": "1", "b": "2"}

    def test_line_continuation(self, interp):
        interp.eval_script("set a \\\n 42")
        assert interp.variables["a"] == "42"

    def test_error_mentions_command(self, interp):
        with pytest.raises(TclError, match="bogus_cmd"):
            interp.eval_script("set a 1\nbogus_cmd -x")


class TestExpr:
    def test_arithmetic(self, interp):
        assert interp.eval_line("expr 2 * (3 + 4)") == "14"

    def test_float_result(self, interp):
        assert interp.eval_line("expr 5 / 2.0") == "2.5"

    def test_comparison_result(self, interp):
        assert interp.eval_line("expr 3 > 2") == "1"

    def test_dangerous_expression_rejected(self, interp):
        with pytest.raises(TclError):
            interp.eval_line("expr __import__('os')")


class TestErrorLocation:
    """Script errors name the line and column where the command starts."""

    @pytest.mark.parametrize(
        "command, message",
        [
            ("set x {abc", "unmatched brace"),
            ('puts "abc', "unmatched quote"),
            ("set x [expr 1", "unmatched bracket"),
            ("puts ${abc", "unmatched ${"),
            ("bogus_cmd -x", "invalid command name 'bogus_cmd'"),
            ("puts $missing", "can't read 'missing': no such variable"),
        ],
    )
    def test_each_error_kind_located(self, interp, command, message):
        with pytest.raises(TclError) as exc:
            interp.eval_script(f"set a 1\n\n  {command}\nset b 2")
        err = exc.value
        assert (err.message, err.line, err.col) == (message, 3, 3)
        assert str(err) == f"{message} at 3:3"

    def test_line_after_continuation(self, interp):
        script = "set a \\\n  1\nset b \\\n  2; bogus"
        with pytest.raises(TclError) as exc:
            interp.eval_script(script)
        assert (exc.value.line, exc.value.col) == (4, 6)

    def test_column_after_semicolon(self, interp):
        with pytest.raises(TclError) as exc:
            interp.eval_script("set a 1;  set b 2; nope")
        assert (exc.value.line, exc.value.col) == (1, 20)

    def test_nested_command_error_located_at_outer_command(self, interp):
        with pytest.raises(TclError) as exc:
            interp.eval_script("set a 1\nset b [nope 2]")
        assert (exc.value.line, exc.value.col) == (2, 1)

    def test_eval_line_raises_unlocated(self, interp):
        with pytest.raises(TclError) as exc:
            interp.eval_line("nope")
        assert exc.value.line is None and str(exc.value) == "invalid command name 'nope'"

    def test_location_survives_pickling(self, interp):
        with pytest.raises(TclError) as exc:
            interp.eval_script("\nnope")
        clone = pickle.loads(pickle.dumps(exc.value))
        assert (clone.message, clone.line, clone.col, str(clone)) == (
            exc.value.message, 2, 1, str(exc.value)
        )

    def test_dcshell_error_located(self):
        result = DCShell().run_script("set a 1\ncompile")
        assert not result.success
        assert result.error == "compile: no design loaded at 2:1"
        with pytest.raises(DCShellError) as exc:
            DCShell().interp.eval_script("\n  link")
        assert (exc.value.line, exc.value.col) == (2, 3)

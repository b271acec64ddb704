"""Liberty (.lib) subset parser and writer.

Reads the attribute/group structure used by our cells::

    library (nangate45) {
      cell (NAND2_X1) {
        area : 0.798;
        cell_leakage_power : 10.2;
        function_class : "NAND2";
        drive_strength : 1;
        pin (o) {
          direction : output;
          drive_resistance : 4.1;
          intrinsic_delay : 0.018;
        }
        pin (a) { direction : input; capacitance : 1.0; }
      }
    }

The writer emits exactly this dialect, so write->parse round-trips.  Real
Nangate .lib files carry 2-D NLDM tables; this subset collapses them to the
linear model documented in :mod:`repro.synth.library`.
"""

from __future__ import annotations

import math
import re

from .library import LibCell, TechLibrary

__all__ = ["LibertyError", "parse_liberty", "write_liberty"]


class LibertyError(ValueError):
    """Raised on malformed liberty text.

    Carries the 1-based ``line`` and ``col`` of the offending token (also
    appended to the message); both are None when no position applies.
    """

    def __init__(
        self, message: str, line: int | None = None, col: int | None = None
    ) -> None:
        self.message = message
        self.line = line
        self.col = col
        super().__init__(message if line is None else f"{message} at {line}:{col}")

    def __reduce__(self):
        return type(self), (self.message, self.line, self.col)


#: Deepest group nesting accepted (real libraries nest about five deep).
MAX_DEPTH = 64

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+|/\*.*?\*/|//[^\n]*)
  | (?P<NUMBER>-?\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<STRING>"[^"]*")
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<OP>[(){};:,])
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, col)`` tokens, ending with an EOF token."""
    tokens = []
    pos = 0
    line, line_start = 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LibertyError(
                f"cannot tokenize near {text[pos:pos+20]!r}",
                line, pos - line_start + 1,
            )
        if m.lastgroup != "WS":
            tokens.append((m.lastgroup, m.group(), line, pos - line_start + 1))
        newlines = text.count("\n", pos, m.end())
        if newlines:
            line += newlines
            line_start = text.rfind("\n", pos, m.end()) + 1
        pos = m.end()
    tokens.append(("EOF", "", line, pos - line_start + 1))
    return tokens


class _Group:
    """Parsed liberty group: name, argument, attributes, subgroups.

    ``line``/``col`` locate the group's name; ``positions`` maps each
    attribute to the location of its value.
    """

    def __init__(self, kind: str, arg: str, line: int, col: int) -> None:
        self.kind = kind
        self.arg = arg
        self.line = line
        self.col = col
        self.attributes: dict[str, object] = {}
        self.positions: dict[str, tuple[int, int]] = {}
        self.groups: list[_Group] = []

    def first(self, kind: str) -> "_Group | None":
        for g in self.groups:
            if g.kind == kind:
                return g
        return None

    def all(self, kind: str) -> list["_Group"]:
        return [g for g in self.groups if g.kind == kind]

    def number(self, name: str, default: float, integral: bool = False):
        """Attribute ``name`` as a finite number (``default`` when absent)."""
        if name not in self.attributes:
            return default
        value = self.attributes[name]
        line, col = self.positions[name]
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise LibertyError(
                f"{name} must be a number, got {value!r}", line, col
            ) from None
        if not math.isfinite(number):
            raise LibertyError(f"{name} must be finite, got {value!r}", line, col)
        if integral:
            if not number.is_integer():
                raise LibertyError(
                    f"{name} must be an integer, got {value!r}", line, col
                )
            return int(number)
        return number


class _LibertyParser:
    def __init__(self, tokens: list[tuple[str, str, int, int]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def error(self, message: str, token=None) -> LibertyError:
        _, _, line, col = token or self.peek()
        return LibertyError(message, line, col)

    def expect(self, kind: str, value: str | None = None) -> str:
        k, v, _, _ = self.peek()
        if k != kind or (value is not None and v != value):
            raise self.error(f"expected {value or kind}, got {v!r}")
        self.pos += 1
        return v

    def parse_group(self, depth: int = 1) -> _Group:
        _, _, line, col = self.peek()
        if depth > MAX_DEPTH:
            raise LibertyError(f"groups nested deeper than {MAX_DEPTH}", line, col)
        kind = self.expect("NAME")
        self.expect("OP", "(")
        arg = ""
        if self.peek()[0] in ("NAME", "STRING", "NUMBER"):
            arg = self.peek()[1].strip('"')
            self.pos += 1
        self.expect("OP", ")")
        self.expect("OP", "{")
        group = _Group(kind, arg, line, col)
        while self.peek()[:2] != ("OP", "}"):
            name = self.expect("NAME")
            k, v, _, _ = self.peek()
            if (k, v) == ("OP", ":"):
                self.pos += 1
                group.positions[name] = self.peek()[2:]
                value = self._parse_value()
                self.expect("OP", ";")
                group.attributes[name] = value
            elif (k, v) == ("OP", "("):
                self.pos -= 1
                group.groups.append(self.parse_group(depth + 1))
            else:
                raise self.error(f"unexpected {v!r} in group {kind}")
        self.expect("OP", "}")
        return group

    def _parse_value(self):
        token = self.peek()
        k, v, _, _ = token
        self.pos += 1
        if k == "NUMBER":
            try:
                return float(v) if any(c in v for c in ".eE") else int(v)
            except ValueError:  # e.g. more digits than int() accepts
                raise self.error(f"bad number {v[:20]!r}", token) from None
        if k == "STRING":
            return v.strip('"')
        if k == "NAME":
            return v
        raise self.error(f"bad attribute value {v!r}", token)


def parse_liberty(text: str) -> TechLibrary:
    """Parse liberty ``text`` into a :class:`TechLibrary`.

    Raises:
        LibertyError: on any malformed input, located at the offending
            token: bad tokens or syntax, trailing text after the library
            group, nesting deeper than :data:`MAX_DEPTH`, non-numeric or
            non-finite electrical values, a non-integral drive strength,
            a cell without an output pin, or a duplicate cell name.
    """
    parser = _LibertyParser(_lex(text))
    root = parser.parse_group()
    if parser.peek()[0] != "EOF":
        raise parser.error(f"unexpected {parser.peek()[1]!r} after the library group")
    if root.kind != "library":
        raise LibertyError("top-level group must be 'library'", root.line, root.col)
    cells = []
    seen: set[str] = set()
    for cell_group in root.all("cell"):
        if cell_group.arg in seen:
            raise LibertyError(
                f"duplicate cell {cell_group.arg!r}", cell_group.line, cell_group.col
            )
        seen.add(cell_group.arg)
        out_pin = None
        input_cap = 0.0
        for pin in cell_group.all("pin"):
            if pin.attributes.get("direction") == "output":
                out_pin = pin
            elif pin.attributes.get("direction") == "input":
                input_cap = pin.number("capacitance", 1.0)
        if out_pin is None:
            raise LibertyError(
                f"cell {cell_group.arg} has no output pin",
                cell_group.line, cell_group.col,
            )
        cells.append(
            LibCell(
                name=cell_group.arg,
                function=str(cell_group.attributes.get("function_class", "BUF")),
                drive=cell_group.number("drive_strength", 1, integral=True),
                area=cell_group.number("area", 1.0),
                input_cap=input_cap,
                drive_res=out_pin.number("drive_resistance", 4.0),
                intrinsic=out_pin.number("intrinsic_delay", 0.02),
                leakage=cell_group.number("cell_leakage_power", 0.0),
                setup=cell_group.number("setup_time", 0.0),
                clk_to_q=cell_group.number("clk_to_q", 0.0),
            )
        )
    return TechLibrary(root.arg, cells)


def write_liberty(library: TechLibrary) -> str:
    """Serialize ``library`` to liberty text (parseable by this module)."""
    lines = [f"library ({library.name}) {{"]
    for cell in library.cells():
        lines.append(f"  cell ({cell.name}) {{")
        lines.append(f"    area : {cell.area};")
        lines.append(f"    cell_leakage_power : {cell.leakage};")
        lines.append(f'    function_class : "{cell.function}";')
        lines.append(f"    drive_strength : {cell.drive};")
        if cell.is_sequential:
            lines.append(f"    setup_time : {cell.setup};")
            lines.append(f"    clk_to_q : {cell.clk_to_q};")
        lines.append("    pin (o) {")
        lines.append("      direction : output;")
        lines.append(f"      drive_resistance : {cell.drive_res};")
        lines.append(f"      intrinsic_delay : {cell.intrinsic};")
        lines.append("    }")
        lines.append("    pin (a) {")
        lines.append("      direction : input;")
        lines.append(f"      capacitance : {cell.input_cap};")
        lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)

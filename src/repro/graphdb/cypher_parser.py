"""Lexer + parser for the Cypher subset used by SynthRAG.

Supported statements::

    MATCH (a:Label {key: val})-[r:TYPE*1..3]->(b) WHERE a.x > 3
    RETURN a, b.name AS name, count(*) ORDER BY name DESC LIMIT 5

    CREATE (n:Label {key: val})-[:TYPE]->(m:Other)

The grammar covers what the simulated LLM emits for graph-structure
retrieval (paper Table I): node/relationship patterns with labels, types,
property maps, directions, variable-length hops, boolean WHERE clauses with
comparisons / CONTAINS / STARTS WITH / IN, RETURN projections with aliases
and ``count(*)``, ORDER BY and LIMIT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CypherError",
    "NodePattern",
    "RelPattern",
    "PathPattern",
    "Comparison",
    "BoolExpr",
    "PropertyRef",
    "Literal",
    "VariableRef",
    "FuncCall",
    "ReturnItem",
    "Query",
    "parse_cypher",
]


class CypherError(ValueError):
    """Raised on malformed Cypher text.

    Parse errors carry the offending token's 1-based ``line`` and ``col``
    (also appended to the message); both are None when no position applies.
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


def _error_at(text: str, offset: int, message: str) -> CypherError:
    """A :class:`CypherError` located at character ``offset`` of ``text``."""
    line = text.count("\n", 0, offset) + 1
    col = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return CypherError(message, line, col)


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>-?\d+(\.\d+)?)
  | (?P<STRING>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP><=|>=|<>|\.\.|->|<-|[-()\[\]{}:,.*=<>])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "MATCH",
    "WHERE",
    "RETURN",
    "CREATE",
    "ORDER",
    "BY",
    "LIMIT",
    "AND",
    "OR",
    "NOT",
    "AS",
    "ASC",
    "DESC",
    "CONTAINS",
    "STARTS",
    "WITH",
    "IN",
    "TRUE",
    "FALSE",
    "NULL",
    "DISTINCT",
}


def _lex(text: str) -> tuple[list[tuple[str, str]], list[int]]:
    """``(kind, value)`` tokens and the character offset each starts at."""
    tokens: list[tuple[str, str]] = []
    offsets: list[int] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise _error_at(text, pos, f"cannot tokenize {text[pos:pos+12]!r}")
        start, pos = pos, m.end()
        kind = m.lastgroup
        if kind == "WS":
            continue
        value = m.group()
        offsets.append(start)
        if kind == "NAME" and value.upper() in _KEYWORDS:
            tokens.append(("KW", value.upper()))
        else:
            tokens.append((kind, value))
    tokens.append(("EOF", ""))
    offsets.append(len(text))
    return tokens, offsets


# -- AST ---------------------------------------------------------------------


@dataclass
class Literal:
    value: Any


@dataclass
class VariableRef:
    name: str


@dataclass
class PropertyRef:
    variable: str
    key: str


@dataclass
class FuncCall:
    name: str
    arg: str  # "*" or a variable name


@dataclass
class Comparison:
    op: str  # = <> < > <= >= CONTAINS STARTS_WITH IN
    left: Any
    right: Any


@dataclass
class BoolExpr:
    op: str  # AND OR NOT
    operands: list[Any]


@dataclass
class NodePattern:
    variable: str | None = None
    labels: list[str] = field(default_factory=list)
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class RelPattern:
    variable: str | None = None
    rel_type: str | None = None
    direction: str = "out"  # out | in | both
    min_hops: int = 1
    max_hops: int = 1
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class PathPattern:
    nodes: list[NodePattern] = field(default_factory=list)
    rels: list[RelPattern] = field(default_factory=list)


@dataclass
class ReturnItem:
    expr: Any
    alias: str | None = None

    @property
    def name(self) -> str:
        if self.alias:
            return self.alias
        expr = self.expr
        if isinstance(expr, VariableRef):
            return expr.name
        if isinstance(expr, PropertyRef):
            return f"{expr.variable}.{expr.key}"
        if isinstance(expr, FuncCall):
            return f"{expr.name}({expr.arg})"
        return "expr"


@dataclass
class Query:
    kind: str  # "match" | "create"
    patterns: list[PathPattern] = field(default_factory=list)
    where: Any = None
    returns: list[ReturnItem] = field(default_factory=list)
    order_by: list[tuple[Any, bool]] = field(default_factory=list)  # (expr, desc)
    limit: int | None = None
    distinct: bool = False


class _CypherParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens, self.offsets = _lex(text)
        self.pos = 0

    def error(self, message: str, back: int = 0) -> CypherError:
        """An error located at the current token (``back`` tokens earlier)."""
        return _error_at(self.text, self.offsets[self.pos - back], message)

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def accept(self, kind: str, value: str | None = None) -> str | None:
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            self.pos += 1
            return v
        return None

    def expect(self, kind: str, value: str | None = None) -> str:
        result = self.accept(kind, value)
        if result is None:
            k, v = self.peek()
            raise self.error(f"expected {value or kind}, got {v!r}")
        return result

    def expect_int(self) -> int:
        """An integer literal (LIMIT, path-length bounds)."""
        value = self.expect("NUMBER")
        try:
            return int(value)
        except ValueError:
            raise self.error(f"expected an integer, got {value!r}", back=1) from None

    def expect_name(self) -> str:
        """A name position also admits keywords (labels like CONTAINS)."""
        kind, value = self.peek()
        if kind in ("NAME", "KW"):
            self.pos += 1
            return value
        raise self.error(f"expected name, got {value!r}")

    # -- entry -----------------------------------------------------------------

    def parse(self) -> Query:
        if self.accept("KW", "MATCH"):
            query = Query(kind="match")
            query.patterns.append(self.parse_path())
            while self.accept("OP", ","):
                query.patterns.append(self.parse_path())
            if self.accept("KW", "WHERE"):
                query.where = self.parse_bool_expr()
            self.expect("KW", "RETURN")
            if self.accept("KW", "DISTINCT"):
                query.distinct = True
            query.returns.append(self.parse_return_item())
            while self.accept("OP", ","):
                query.returns.append(self.parse_return_item())
            if self.accept("KW", "ORDER"):
                self.expect("KW", "BY")
                while True:
                    expr = self.parse_operand()
                    desc = bool(self.accept("KW", "DESC"))
                    if not desc:
                        self.accept("KW", "ASC")
                    query.order_by.append((expr, desc))
                    if not self.accept("OP", ","):
                        break
            if self.accept("KW", "LIMIT"):
                query.limit = self.expect_int()
            self.expect("EOF")
            return query
        if self.accept("KW", "CREATE"):
            query = Query(kind="create")
            query.patterns.append(self.parse_path())
            while self.accept("OP", ","):
                query.patterns.append(self.parse_path())
            self.expect("EOF")
            return query
        raise self.error("query must start with MATCH or CREATE")

    # -- patterns -----------------------------------------------------------------

    def parse_path(self) -> PathPattern:
        path = PathPattern()
        path.nodes.append(self.parse_node_pattern())
        while self.peek()[1] in ("-", "<-"):
            path.rels.append(self.parse_rel_pattern())
            path.nodes.append(self.parse_node_pattern())
        return path

    def parse_node_pattern(self) -> NodePattern:
        self.expect("OP", "(")
        node = NodePattern()
        if self.peek()[0] == "NAME":
            node.variable = self.expect("NAME")
        while self.accept("OP", ":"):
            node.labels.append(self.expect_name())
        if self.peek()[1] == "{":
            node.properties = self.parse_property_map()
        self.expect("OP", ")")
        return node

    def parse_rel_pattern(self) -> RelPattern:
        rel = RelPattern()
        if self.accept("OP", "<-"):
            rel.direction = "in"
        else:
            self.expect("OP", "-")
        if self.accept("OP", "["):
            if self.peek()[0] == "NAME":
                rel.variable = self.expect("NAME")
            if self.accept("OP", ":"):
                rel.rel_type = self.expect_name()
            if self.accept("OP", "*"):
                if self.peek()[0] == "NUMBER":
                    rel.min_hops = self.expect_int()
                    if self.accept("OP", ".."):
                        rel.max_hops = self.expect_int()
                    else:
                        rel.max_hops = rel.min_hops
                else:
                    rel.min_hops, rel.max_hops = 1, 8
            if self.peek()[1] == "{":
                rel.properties = self.parse_property_map()
            self.expect("OP", "]")
        if self.accept("OP", "->"):
            if rel.direction == "in":
                raise self.error("relationship cannot point both ways", back=1)
            rel.direction = "out"
        else:
            self.expect("OP", "-")
            if rel.direction != "in":
                rel.direction = "both"
        return rel

    def parse_property_map(self) -> dict[str, Any]:
        self.expect("OP", "{")
        props: dict[str, Any] = {}
        while not self.accept("OP", "}"):
            key = self.expect_name()
            self.expect("OP", ":")
            props[key] = self.parse_literal().value
            self.accept("OP", ",")
        return props

    # -- expressions -------------------------------------------------------------

    def parse_bool_expr(self) -> Any:
        left = self.parse_bool_term()
        while self.accept("KW", "OR"):
            right = self.parse_bool_term()
            left = BoolExpr(op="OR", operands=[left, right])
        return left

    def parse_bool_term(self) -> Any:
        left = self.parse_bool_factor()
        while self.accept("KW", "AND"):
            right = self.parse_bool_factor()
            left = BoolExpr(op="AND", operands=[left, right])
        return left

    def parse_bool_factor(self) -> Any:
        if self.accept("KW", "NOT"):
            return BoolExpr(op="NOT", operands=[self.parse_bool_factor()])
        if self.peek()[1] == "(" and self._looks_like_grouped_bool():
            self.expect("OP", "(")
            inner = self.parse_bool_expr()
            self.expect("OP", ")")
            return inner
        return self.parse_comparison()

    def _looks_like_grouped_bool(self) -> bool:
        # Distinguish "(a.x = 1 AND ...)" from a node pattern "(a:L)".
        depth = 0
        for kind, value in self.tokens[self.pos :]:
            if value == "(":
                depth += 1
            elif value == ")":
                depth -= 1
                if depth == 0:
                    return True
            elif depth == 1 and kind == "KW" and value in ("AND", "OR", "NOT"):
                return True
            elif depth == 1 and value == ":":
                return False
        return False

    def parse_comparison(self) -> Comparison:
        left = self.parse_operand()
        kind, value = self.peek()
        if kind == "OP" and value in ("=", "<>", "<", ">", "<=", ">="):
            self.pos += 1
            return Comparison(op=value, left=left, right=self.parse_operand())
        if self.accept("KW", "CONTAINS"):
            return Comparison(op="CONTAINS", left=left, right=self.parse_operand())
        if self.accept("KW", "STARTS"):
            self.expect("KW", "WITH")
            return Comparison(op="STARTS_WITH", left=left, right=self.parse_operand())
        if self.accept("KW", "IN"):
            return Comparison(op="IN", left=left, right=self.parse_list())
        raise self.error(f"expected comparison operator, got {value!r}")

    def parse_list(self) -> Literal:
        self.expect("OP", "[")
        items = []
        while not self.accept("OP", "]"):
            items.append(self.parse_literal().value)
            self.accept("OP", ",")
        return Literal(value=items)

    def parse_operand(self) -> Any:
        kind, value = self.peek()
        if kind == "NAME":
            name = self.expect("NAME")
            if self.accept("OP", "."):
                key = self.expect("NAME")
                return PropertyRef(variable=name, key=key)
            if self.peek()[1] == "(":
                self.expect("OP", "(")
                arg = "*" if self.accept("OP", "*") else self.expect("NAME")
                self.expect("OP", ")")
                return FuncCall(name=name.lower(), arg=arg)
            return VariableRef(name=name)
        return self.parse_literal()

    def parse_literal(self) -> Literal:
        kind, value = self.peek()
        if kind == "NUMBER":
            self.pos += 1
            return Literal(value=float(value) if "." in value else int(value))
        if kind == "STRING":
            self.pos += 1
            return Literal(value=value[1:-1])
        if self.accept("KW", "TRUE"):
            return Literal(value=True)
        if self.accept("KW", "FALSE"):
            return Literal(value=False)
        if self.accept("KW", "NULL"):
            return Literal(value=None)
        raise self.error(f"expected literal, got {value!r}")

    def parse_return_item(self) -> ReturnItem:
        expr = self.parse_operand()
        alias = None
        if self.accept("KW", "AS"):
            alias = self.expect("NAME")
        return ReturnItem(expr=expr, alias=alias)


def parse_cypher(text: str) -> Query:
    """Parse a Cypher-subset query string into a :class:`Query`."""
    return _CypherParser(text).parse()

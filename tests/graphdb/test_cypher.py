"""Tests for the Cypher-subset parser and executor."""

import pytest

from repro.graphdb import (
    CypherError,
    CypherExecutionError,
    GraphStore,
    execute,
    parse_cypher,
)


@pytest.fixture
def circuit_store():
    """A small circuit hierarchy: design -> modules -> gates."""
    s = GraphStore()
    execute(s, "CREATE (d:Design {name: 'cpu', area: 5000})")
    execute(
        s,
        "CREATE (m:Module {name: 'alu', kind: 'arithmetic', area: 1200, delay: 0.8})",
    )
    execute(
        s,
        "CREATE (m:Module {name: 'regfile', kind: 'memory', area: 2400, delay: 0.3})",
    )
    execute(s, "CREATE (m:Module {name: 'decoder', kind: 'control', area: 400, delay: 0.5})")
    d = next(s.nodes("Design"))
    for m in s.nodes("Module"):
        s.create_rel(d.node_id, "CONTAINS", m.node_id)
    alu = s.find_one("Module", name="alu")
    dec = s.find_one("Module", name="decoder")
    rf = s.find_one("Module", name="regfile")
    s.create_rel(dec.node_id, "DRIVES", alu.node_id)
    s.create_rel(alu.node_id, "DRIVES", rf.node_id)
    return s


class TestParser:
    def test_simple_match(self):
        q = parse_cypher("MATCH (n:Module) RETURN n")
        assert q.kind == "match"
        assert q.patterns[0].nodes[0].labels == ["Module"]

    def test_property_map_pattern(self):
        q = parse_cypher("MATCH (n:Module {name: 'alu'}) RETURN n.area")
        assert q.patterns[0].nodes[0].properties == {"name": "alu"}

    def test_relationship_direction(self):
        q = parse_cypher("MATCH (a)<-[r:CONTAINS]-(b) RETURN a, b")
        assert q.patterns[0].rels[0].direction == "in"

    def test_variable_length(self):
        q = parse_cypher("MATCH (a)-[*1..3]->(b) RETURN b")
        rel = q.patterns[0].rels[0]
        assert (rel.min_hops, rel.max_hops) == (1, 3)

    def test_where_and_or(self):
        q = parse_cypher(
            "MATCH (n) WHERE n.area > 100 AND n.kind = 'memory' OR n.delay < 1 RETURN n"
        )
        assert q.where.op == "OR"

    def test_order_limit(self):
        q = parse_cypher("MATCH (n) RETURN n.area AS a ORDER BY a DESC LIMIT 2")
        assert q.limit == 2
        assert q.order_by[0][1] is True

    def test_create_path(self):
        q = parse_cypher("CREATE (a:X)-[:E]->(b:Y)")
        assert q.kind == "create"
        assert len(q.patterns[0].rels) == 1

    def test_bad_query_raises(self):
        with pytest.raises(CypherError):
            parse_cypher("DELETE everything")

    def test_unterminated_pattern_raises(self):
        with pytest.raises(CypherError):
            parse_cypher("MATCH (a:Module RETURN a")

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a)-[*1.3]->(b) RETURN a",
            "MATCH (a)-[*1..2.5]->(b) RETURN a",
            "MATCH (n) RETURN n LIMIT 2.5",
        ],
    )
    def test_non_integer_bound_raises_cypher_error(self, query):
        with pytest.raises(CypherError, match="expected an integer"):
            parse_cypher(query)


class TestMatchExecution:
    def test_label_scan(self, circuit_store):
        rows = execute(circuit_store, "MATCH (m:Module) RETURN m.name AS name")
        assert {r["name"] for r in rows} == {"alu", "regfile", "decoder"}

    def test_property_pattern_filter(self, circuit_store):
        rows = execute(
            circuit_store, "MATCH (m:Module {kind: 'memory'}) RETURN m.name AS name"
        )
        assert [r["name"] for r in rows] == ["regfile"]

    def test_where_comparison(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (m:Module) WHERE m.area >= 1200 RETURN m.name AS name",
        )
        assert {r["name"] for r in rows} == {"alu", "regfile"}

    def test_where_contains(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (m:Module) WHERE m.name CONTAINS 'reg' RETURN m.name AS name",
        )
        assert [r["name"] for r in rows] == ["regfile"]

    def test_where_starts_with(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (m:Module) WHERE m.name STARTS WITH 'de' RETURN m.name AS name",
        )
        assert [r["name"] for r in rows] == ["decoder"]

    def test_where_in_list(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (m:Module) WHERE m.kind IN ['memory', 'control'] RETURN m.name AS name",
        )
        assert {r["name"] for r in rows} == {"regfile", "decoder"}

    def test_relationship_traversal(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (d:Design)-[:CONTAINS]->(m:Module) RETURN m.name AS name",
        )
        assert len(rows) == 3

    def test_reverse_traversal(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (m:Module {name: 'alu'})<-[:CONTAINS]-(d) RETURN d.name AS name",
        )
        assert rows == [{"name": "cpu"}]

    def test_variable_length_path(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (a:Module {name: 'decoder'})-[:DRIVES*1..3]->(b) RETURN b.name AS name",
        )
        assert {r["name"] for r in rows} == {"alu", "regfile"}

    def test_multi_hop_chain_pattern(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (a)-[:DRIVES]->(b)-[:DRIVES]->(c) RETURN a.name AS s, c.name AS e",
        )
        assert rows == [{"s": "decoder", "e": "regfile"}]

    def test_order_by_and_limit(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (m:Module) RETURN m.name AS name, m.area AS area ORDER BY area DESC LIMIT 2",
        )
        assert [r["name"] for r in rows] == ["regfile", "alu"]

    def test_count_aggregation(self, circuit_store):
        rows = execute(circuit_store, "MATCH (m:Module) RETURN count(*) AS n")
        assert rows == [{"n": 3}]

    def test_count_zero_matches(self, circuit_store):
        rows = execute(circuit_store, "MATCH (m:Ghost) RETURN count(*) AS n")
        assert rows == [{"n": 0}]

    def test_distinct(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (d:Design)-[:CONTAINS]->(m) RETURN DISTINCT d.name AS name",
        )
        assert rows == [{"name": "cpu"}]

    def test_whole_node_return(self, circuit_store):
        rows = execute(circuit_store, "MATCH (m:Module {name: 'alu'}) RETURN m")
        assert rows[0]["m"].properties["name"] == "alu"

    def test_unbound_variable_raises(self, circuit_store):
        with pytest.raises(CypherExecutionError):
            execute(circuit_store, "MATCH (m:Module) RETURN ghost.name")

    def test_shared_variable_joins_patterns(self, circuit_store):
        rows = execute(
            circuit_store,
            "MATCH (d:Design)-[:CONTAINS]->(m), (x:Module {name: 'alu'})-[:DRIVES]->(m) "
            "RETURN m.name AS name",
        )
        assert rows == [{"name": "regfile"}]


class TestCreateExecution:
    def test_create_node_with_props(self):
        s = GraphStore()
        execute(s, "CREATE (n:Lib {cell: 'NAND2_X1', area: 0.798})")
        node = s.find_one("Lib")
        assert node.properties["cell"] == "NAND2_X1"
        assert node.properties["area"] == 0.798

    def test_create_relationship(self):
        s = GraphStore()
        execute(s, "CREATE (a:A {name: 'x'})-[:LINK {w: 2}]->(b:B)")
        rel = next(s.rels("LINK"))
        assert rel.properties["w"] == 2

    def test_create_returns_bindings(self):
        s = GraphStore()
        rows = execute(s, "CREATE (n:X {v: 1})")
        assert rows[0]["n"].properties["v"] == 1

    def test_null_and_boolean_literals(self):
        s = GraphStore()
        execute(s, "CREATE (n:X {flag: true, other: null})")
        node = s.find_one("X")
        assert node.properties["flag"] is True
        assert node.properties["other"] is None

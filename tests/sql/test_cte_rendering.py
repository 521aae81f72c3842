"""Figure-7-style CTE rendering: presentation equals semantics."""

import pytest

from repro.backends import load_backend
from repro.checkers.generation import InstanceGenerator
from repro.core.sdt import infer_sdt
from repro.core.transpile import transpile
from repro.cypher.parser import parse_cypher
from repro.relational.instance import Table, tables_equivalent
from repro.sql.pretty import to_cte_sql
from repro.sql.semantics import evaluate_query


def cross_validate(text, schema, query, seeds=6):
    generator = InstanceGenerator(schema)
    generator.rng.seed(99)
    for _ in range(seeds):
        instance = generator.random_instance(3)
        reference = evaluate_query(query, instance)
        with load_backend("sqlite-memory", instance, indexes=False) as backend:
            rendered = backend.execute(text)
        bag = Table(reference.attributes, list(reference.rows))
        assert tables_equivalent(bag, rendered), text


class TestCteRendering:
    def test_multi_match_produces_ctes(self, emp_dept_schema, emp_dept_sdt):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "MATCH (n2:EMP)-[e2:WORK_AT]->(m:DEPT) RETURN n.name, n2.name",
            emp_dept_schema,
        )
        translated = transpile(query, emp_dept_schema, emp_dept_sdt)
        text = to_cte_sql(translated, emp_dept_sdt.schema)
        assert text.startswith("WITH ")
        assert '"T1"' in text and '"T2"' in text
        cross_validate(text, emp_dept_sdt.schema, translated)

    def test_single_match_stays_flat(self, emp_dept_schema, emp_dept_sdt):
        query = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name", emp_dept_schema
        )
        translated = transpile(query, emp_dept_schema, emp_dept_sdt)
        text = to_cte_sql(translated, emp_dept_sdt.schema)
        assert not text.startswith("WITH ")
        cross_validate(text, emp_dept_sdt.schema, translated)

    def test_motivating_example_matches_figure_7_shape(self):
        from repro.benchmarks.curated import curated_benchmarks

        benchmark = next(
            b for b in curated_benchmarks() if b.id == "academic/motivating"
        )
        sdt = infer_sdt(benchmark.graph_schema)
        translated = transpile(benchmark.cypher_query, benchmark.graph_schema, sdt)
        text = to_cte_sql(translated, sdt.schema)
        # Figure 7: two pattern CTEs joined on the shared sentence, grouped.
        assert text.count(" AS (SELECT") == 2
        assert "GROUP BY" in text
        assert "JOIN" in text
        cross_validate(text, sdt.schema, translated)

    @pytest.mark.parametrize(
        "cypher",
        [
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN n.name, m.dname",
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m AS kept "
            "RETURN kept.dname AS d",
            "MATCH (n:EMP) RETURN n.name AS a UNION MATCH (m:EMP) RETURN m.name AS a",
        ],
    )
    def test_other_shapes_cross_validate(self, cypher, emp_dept_schema, emp_dept_sdt):
        query = parse_cypher(cypher, emp_dept_schema)
        translated = transpile(query, emp_dept_schema, emp_dept_sdt)
        text = to_cte_sql(translated, emp_dept_sdt.schema)
        cross_validate(text, emp_dept_sdt.schema, translated)

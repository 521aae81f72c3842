"""SQLite rendering cross-validated against the reference evaluator.

Every rendered query must produce a table equivalent (Definition 4.4) to
what the reference bag-semantics evaluator computes — this pins the
renderer's and evaluator's semantics to each other.
"""

import pytest

from repro.backends import load_backend
from repro.common.values import NULL
from repro.relational.instance import Database, Table, tables_equivalent
from repro.relational.schema import Relation, RelationalSchema
from repro.sql.parser import parse_sql
from repro.sql.pretty import to_sql_text
from repro.sql.semantics import evaluate_query


def run_sql_text(sql_text: str, database: Database) -> Table:
    """Execute *sql_text* on a fresh ``sqlite-memory`` load of *database*."""
    with load_backend("sqlite-memory", database, indexes=False) as backend:
        return backend.execute(sql_text)


@pytest.fixture
def db() -> Database:
    schema = RelationalSchema.of(
        [
            Relation("emp", ("id", "name", "dept")),
            Relation("dept", ("dno", "dname")),
        ]
    )
    database = Database(schema)
    for row in [(1, "A", 10), (2, "B", 10), (3, "C", NULL), (4, "A", 20)]:
        database.insert("emp", row)
    for row in [(10, "CS"), (20, "EE"), (30, "ME")]:
        database.insert("dept", row)
    return database


CROSS_VALIDATION_QUERIES = [
    "SELECT e.name FROM emp AS e",
    "SELECT e.name, e.dept FROM emp AS e WHERE e.dept = 10",
    "SELECT DISTINCT e.name FROM emp AS e",
    "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dno",
    "SELECT e.name, d.dname FROM emp AS e LEFT JOIN dept AS d ON e.dept = d.dno",
    "SELECT e.name, d.dname FROM emp AS e, dept AS d",
    "SELECT e.dept, COUNT(*) AS c FROM emp AS e GROUP BY e.dept",
    "SELECT d.dname, COUNT(*) AS c FROM emp AS e JOIN dept AS d "
    "ON e.dept = d.dno GROUP BY d.dname HAVING COUNT(*) > 1",
    "SELECT e.id + 1 AS bumped FROM emp AS e",
    "SELECT e.name FROM emp AS e WHERE e.dept IS NULL",
    "SELECT e.name FROM emp AS e WHERE e.dept IN (10, 30)",
    "SELECT e.name FROM emp AS e WHERE e.dept IN (SELECT d.dno FROM dept AS d)",
    "SELECT d.dname FROM dept AS d WHERE EXISTS "
    "(SELECT e.id FROM emp AS e WHERE e.dept = d.dno)",
    "SELECT e.name FROM emp AS e UNION SELECT d.dname FROM dept AS d",
    "SELECT e.name FROM emp AS e UNION ALL SELECT d.dname FROM dept AS d",
    "SELECT e.id AS k, e.name AS n FROM emp AS e ORDER BY k DESC LIMIT 3",
    "WITH t AS (SELECT e.id AS i, e.dept AS dd FROM emp AS e WHERE e.id > 1) "
    "SELECT t.i FROM t WHERE t.dd = 10",
]


class TestCrossValidation:
    @pytest.mark.parametrize("sql", CROSS_VALIDATION_QUERIES)
    def test_sqlite_matches_reference(self, sql, db):
        query = parse_sql(sql)
        reference = evaluate_query(query, db)
        rendered = run_sql_text(to_sql_text(query, db.schema), db)
        assert tables_equivalent(reference, rendered), (
            f"divergence for {sql}\nreference:\n{reference}\nsqlite:\n{rendered}"
        )


class TestBackendBasics:
    def test_raw_text_execution(self, db):
        result = run_sql_text("SELECT COUNT(*) AS c FROM emp", db)
        assert result.rows == [(4,)]

    def test_nulls_roundtrip(self, db):
        result = run_sql_text("SELECT dept FROM emp WHERE id = 3", db)
        assert result.rows == [(NULL,)]

    def test_indexes_create(self, db):
        backend = load_backend("sqlite-memory", db, indexes=False)
        backend.create_indexes()  # no PK constraints declared: no-op
        backend.close()

    def test_context_manager(self, db):
        with load_backend("sqlite-memory", db) as backend:
            assert backend.execute("SELECT 1 AS one").rows == [(1,)]

    def test_time_reports_median_seconds(self, db):
        with load_backend("sqlite-memory", db) as backend:
            assert backend.time("SELECT COUNT(*) AS c FROM emp", repeats=3) >= 0.0


class TestTranspiledRendering:
    def test_transpiled_query_renders_and_runs(
        self, emp_dept_schema, emp_dept_sdt, emp_dept_graph
    ):
        from repro.core.transpile import transpile
        from repro.cypher.parser import parse_cypher
        from repro.cypher.semantics import evaluate_query as evaluate_cypher
        from repro.transformer.semantics import transform_graph

        for text in [
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname, Count(*)",
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) "
            "RETURN n.name, m.dname",
            "MATCH (n:EMP) WHERE EXISTS { MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) } "
            "RETURN n.name",
        ]:
            query = parse_cypher(text, emp_dept_schema)
            translated = transpile(query, emp_dept_schema, emp_dept_sdt)
            induced = transform_graph(
                emp_dept_sdt.transformer, emp_dept_graph, emp_dept_sdt.schema
            )
            expected = evaluate_cypher(query, emp_dept_graph)
            text_sql = to_sql_text(translated, emp_dept_sdt.schema)
            actual = run_sql_text(text_sql, induced)
            assert tables_equivalent(expected, actual), text


#!/usr/bin/env python3
"""Auditing a relational → graph migration (the Neo4j-tutorial bug).

Scenario: a team migrates a Northwind-style order database to a property
graph and rewrites its reports in Cypher following the official
"Cypher for SQL users" tutorial.  One rewrite — the per-product sales
volume for a customer — uses ``OPTIONAL MATCH`` over the whole purchase
path, which is *not* equivalent to the original LEFT-JOIN chain: an order
without order details silently adds rows on the SQL side (paper
Appendix D, example 2).

This script refutes the pair, prints the witness, and then demonstrates
the correct-by-construction alternative: transpile the Cypher query with
Graphiti and execute both on SQLite-backed mock data.

Run:  python examples/northwind_migration.py
"""

from repro import BoundedChecker, check_equivalence, infer_sdt, to_sql_text, transpile
from repro.backends import load_backend
from repro.sql import to_cte_sql
from repro.benchmarks.curated import curated_benchmarks
from repro.execution.datagen import MockDataGenerator
from repro.transformer.residual import residual_transformer


def main() -> None:
    benchmark = next(
        b for b in curated_benchmarks() if b.id == "tutorial/neo4j-volume"
    )
    print("Cypher (from the tutorial):")
    print(benchmark.cypher_text)
    print("\nSQL (the original report):")
    print(benchmark.sql_text)

    print("\nChecking equivalence with the bounded backend...")
    result = check_equivalence(
        benchmark.graph_schema,
        benchmark.cypher_query,
        benchmark.relational_schema,
        benchmark.sql_query,
        benchmark.transformer,
        BoundedChecker(max_bound=3, samples_per_bound=300, seed=17),
    )
    print(f"verdict: {result.verdict.value}")
    if result.counterexample is not None:
        print(result.counterexample.describe())

    print("\n--- correct-by-construction transpilation instead ---")
    sdt = infer_sdt(benchmark.graph_schema)
    translated = transpile(benchmark.cypher_query, benchmark.graph_schema, sdt)
    sql_text = to_sql_text(translated, sdt.schema)
    print("transpiled SQL (paper Figure-7 CTE presentation):")
    print(to_cte_sql(translated, sdt.schema))

    residual = residual_transformer(benchmark.transformer, sdt.transformer)
    generator = MockDataGenerator(benchmark.graph_schema, sdt, seed=7)
    induced, target = generator.paired_instances(
        2000, residual, benchmark.relational_schema
    )
    with load_backend("sqlite-memory", induced) as backend:
        transpiled_seconds = backend.time(sql_text)
    with load_backend("sqlite-memory", target) as backend:
        manual_seconds = backend.time(benchmark.sql_text)
    print(
        f"\nSQLite execution at 2k rows/table: transpiled "
        f"{transpiled_seconds * 1000:.1f} ms vs manual {manual_seconds * 1000:.1f} ms"
    )


if __name__ == "__main__":
    main()

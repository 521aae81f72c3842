"""Outside-in tracing for the traced run.

Nothing here is imported by the untraced run.  :func:`install` rebinds
the public functions at each layer boundary, at runtime, to wrappers that
record a span around the original call; module-level functions are
rebound in every module that imported them by name.  For the fetch /
materialize split, the member's DB-API connection is swapped for a
forwarding proxy whose ``execute`` calls (the engine: SQLite compiles the
statement and steps it to its first row) and ``fetch*`` calls (the rest of
the stepping plus the DB-API row tuples) are timed as separate spans while
``DbApiBackend.execute`` is on the stack.

A span is ``(name, start, end, parent, op)``; spans are recorded only
inside an op and kept in memory until :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

#: ``(module, attribute path, span name)`` of every wrapped call.  The
#: span name is the layer's module plus the operation.
TARGETS = (
    ("repro.backends.service", "GraphitiService.serve", "backends.service.serve"),
    ("repro.backends.service", "GraphitiService.prepare", "backends.service.prepare"),
    ("repro.backends.service", "parse_cypher", "cypher.parser.parse"),
    ("repro.backends.service", "transpile", "core.transpile.transpile"),
    ("repro.backends.service", "optimize", "sql.optimize.optimize"),
    ("repro.backends.service", "to_sql_text", "sql.pretty.render"),
    ("repro.backends.service", "GraphitiService.observe_execution", "backends.service.observe"),
    ("repro.backends.service", "GraphitiService.refresh_stats", "backends.service.refresh"),
    ("repro.backends.service", "collect_stats", "sql.stats.collect"),
    ("repro.backends.pool", "ConnectionPool.checkout", "backends.pool.checkout"),
    ("repro.backends.pool", "ConnectionPool.checkin", "backends.pool.checkin"),
    ("repro.backends.base", "DbApiBackend.ping", "backends.pool.ping"),
    ("repro.core.equivalence", "check_equivalence", "core.equivalence.check"),
    ("repro.core.equivalence", "transpile", "core.transpile.transpile"),
    ("repro.core.equivalence", "residual_transformer", "transformer.residual"),
    ("repro.core.equivalence", "evaluate_sql", "sql.semantics.evaluate"),
    ("repro.checkers.bounded", "BoundedChecker.check", "checkers.bounded.check"),
    ("repro.checkers.bounded", "evaluate_query", "sql.semantics.evaluate"),
    ("repro.checkers.bounded", "tables_equivalent", "relational.instance.compare"),
    ("repro.checkers.generation", "InstanceGenerator.random_instance", "checkers.generation.instance"),
    ("repro.transformer.semantics", "apply_transformer", "transformer.semantics.apply"),
)

EXECUTE = "backends.base.execute"
ENGINE = "backends.base.engine"
FETCH = "backends.base.fetch"
OP = "op"


class SpanRecorder:
    """In-memory span store with a per-thread-free stack (one client)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        #: op id -> op class (``lookup``, ``scan``, ``traverse``, ``verify``)
        self.op_classes: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str) -> int:
        if self._op < 0:
            return -1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        if index >= 0:
            self.ends[index] = perf_counter()
            self._stack.pop()

    def begin_op(self, op_id: int, op_class: str) -> int:
        self._op = op_id
        self.op_classes[op_id] = op_class
        return self.begin(OP)

    def end_op(self, index: int) -> None:
        self.end(index)
        self._op = -1

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def wrap(self, function, name: str):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = recorder.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.end(index)

        return traced

    def totals(self, op_class: str | None = None) -> dict[str, list[float]]:
        """``name -> [calls, inclusive seconds, self seconds]``, over the
        spans of every op, or only of the ops of *op_class*.

        Self time is a span's duration minus its children's: spans of one
        thread nest, so the children never overlap each other.
        """
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[index]
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, name in enumerate(self.names):
            if op_class is not None and self.op_classes[self.ops[index]] != op_class:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += durations[index]
            entry[2] += durations[index] - child_time[index]
        return totals

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                handle.write(json.dumps(record))
                handle.write("\n")


class _TimedCursor:
    def __init__(self, cursor, recorder: SpanRecorder) -> None:
        self._cursor = cursor
        self._recorder = recorder

    @property
    def description(self):
        return self._cursor.description

    def fetchall(self):
        index = self._recorder.begin(FETCH)
        try:
            return self._cursor.fetchall()
        finally:
            self._recorder.end(index)

    def fetchmany(self, size):
        index = self._recorder.begin(FETCH)
        try:
            return self._cursor.fetchmany(size)
        finally:
            self._recorder.end(index)

    def __getattr__(self, name):
        return getattr(self._cursor, name)


class TimedConnection:
    """Forwards to a DB-API connection; times statement execution (the
    engine span) and fetches issued from inside ``DbApiBackend.execute``."""

    def __init__(self, connection, recorder: SpanRecorder) -> None:
        self._connection = connection
        self._recorder = recorder

    def execute(self, sql, *args):
        if self._recorder.current() != EXECUTE:
            return self._connection.execute(sql, *args)
        index = self._recorder.begin(ENGINE)
        try:
            cursor = self._connection.execute(sql, *args)
        finally:
            self._recorder.end(index)
        return _TimedCursor(cursor, self._recorder)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(recorder: SpanRecorder) -> None:
    """Rebind every target to a span-recording wrapper."""
    for module_name, path, name in TARGETS:
        owner, attribute = _resolve(module_name, path)
        setattr(owner, attribute, recorder.wrap(getattr(owner, attribute), name))
    base = importlib.import_module("repro.backends.base")
    execute = base.DbApiBackend.execute

    @functools.wraps(execute)
    def traced_execute(self, *args, **kwargs):
        if self.connection is not None and not isinstance(self.connection, TimedConnection):
            self.connection = TimedConnection(self.connection, recorder)
        return execute(self, *args, **kwargs)

    base.DbApiBackend.execute = recorder.wrap(traced_execute, EXECUTE)

"""The :class:`AsyncGraphitiService`: asyncio serving as a thin offload.

There is one serving pipeline — :meth:`GraphitiService._serve
<repro.backends.service.GraphitiService._serve>`: prepare, breaker gate,
pooled checkout, engine guards, eviction-aware retry, budget downgrade,
feedback, and partition scatter.  This wrapper does not re-implement any
of it.  Each awaited query is one call of that pipeline on a worker
thread:

* **bounded threads** — an :class:`asyncio.Semaphore` admits at most
  ``max_concurrency`` calls per event loop, and a slot is returned only
  when the worker thread finishes, so even cancelled queries never push
  the number of busy threads past ``max_concurrency``;
* **one span tree** — each call runs inside
  :func:`contextvars.copy_context`, so the tracer's current span (the
  async ``query`` span) parents every span the thread opens
  (``query.prepare``, ``pool.checkout``, ``execute``, ``parallel.*``,
  ``query.downgrade``) without explicit ``parent=`` plumbing;
* **bounded waits** — ``checkout_timeout`` caps each pool checkout
  (further capped by a budget's remaining wall clock), so an exhausted
  pool raises :class:`~repro.backends.pool.PoolTimeout` instead of
  parking a thread forever.

Cancelling an awaiting task returns control at once; the worker thread
runs its call to the end and the sync pipeline checks its member back in,
so pool gauges and breakers stay balanced.

The wrapper serves a :class:`GraphitiService` or a
:class:`~repro.backends.sharding.ShardedGraphitiService` (both expose the
same ``_serve``), sharing its caches, pools, and statistics with sync
callers, or owns a :class:`GraphitiService` built from a
:class:`~repro.graph.schema.GraphSchema`.

Typical use::

    async def main():
        async with AsyncGraphitiService(graph_schema) as service:
            await service.load_mock(1000)
            table = await service.run("MATCH (n:EMP) RETURN n.name")
            tables = await service.run_many(batch, concurrency=8)
"""

from __future__ import annotations

import asyncio
import contextvars
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.common.budget import QueryBudget
from repro.graph.schema import GraphSchema
from repro.relational.instance import Database, Table

from repro.backends.service import GraphitiService, PreparedQuery
from repro.backends.sharding import ShardedGraphitiService

#: Default cap on concurrently executing queries per event loop.
DEFAULT_MAX_CONCURRENCY = 8

#: Default seconds a pool checkout may wait before raising PoolTimeout.
DEFAULT_CHECKOUT_TIMEOUT = 30.0


class AsyncGraphitiService:
    """Async facade over the sync serving pipeline: ``await run(cypher)``.

    Parameters
    ----------
    service_or_schema:
        An existing :class:`GraphitiService` or
        :class:`~repro.backends.sharding.ShardedGraphitiService` to share
        (its caches, pools, and stats serve sync and async callers side by
        side), or a :class:`GraphSchema` from which to build an owned
        :class:`GraphitiService` (``**service_kwargs`` forwarded; the
        owned service is closed with this object).
    max_concurrency:
        Ceiling on simultaneously executing queries per event loop, and so
        on the worker threads they occupy — the backpressure valve.
    checkout_timeout:
        Seconds a pool checkout may wait when the pool is exhausted at
        capacity before raising :class:`~repro.backends.pool.PoolTimeout`
        (``None``: wait forever).
    """

    def __init__(
        self,
        service_or_schema: GraphitiService | ShardedGraphitiService | GraphSchema,
        *,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        checkout_timeout: float | None = DEFAULT_CHECKOUT_TIMEOUT,
        **service_kwargs: Any,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if isinstance(service_or_schema, (GraphitiService, ShardedGraphitiService)):
            if service_kwargs:
                raise TypeError(
                    "service keyword arguments only apply when constructing "
                    "from a GraphSchema, not when wrapping an existing service"
                )
            self._service = service_or_schema
            self._owns_service = False
        else:
            self._service = GraphitiService(service_or_schema, **service_kwargs)
            self._owns_service = True
        self.max_concurrency = max_concurrency
        self.checkout_timeout = checkout_timeout
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        # asyncio primitives bind to the running loop on first use, so one
        # semaphore cannot serve several asyncio.run() lifetimes; keep one
        # per loop, dropped automatically when the loop is garbage collected.
        self._semaphores: weakref.WeakKeyDictionary[
            asyncio.AbstractEventLoop, asyncio.Semaphore
        ] = weakref.WeakKeyDictionary()

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> GraphitiService | ShardedGraphitiService:
        """The wrapped synchronous service (shared caches, pools, stats)."""
        return self._service

    def _semaphore(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        semaphore = self._semaphores.get(loop)
        if semaphore is None:
            semaphore = asyncio.Semaphore(self.max_concurrency)
            self._semaphores[loop] = semaphore
        return semaphore

    def _submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Start *fn* on a worker thread, inside a copy of the caller's
        context (so the tracer's current span crosses over with it)."""
        if self._closed:
            raise RuntimeError("AsyncGraphitiService is closed")
        if self._executor is None:
            # +1 so a long bulk load cannot starve query execution slots.
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_concurrency + 1,
                thread_name_prefix="graphiti-async",
            )
        context = contextvars.copy_context()
        return self._executor.submit(context.run, fn, *args)

    async def _offload(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run blocking *fn* on a worker thread without stalling the loop."""
        return await asyncio.wrap_future(self._submit(fn, *args))

    async def _serve(
        self,
        cypher_text: str,
        name: str,
        opt_level: int | None,
        budget: QueryBudget | None,
    ) -> tuple[Table, PreparedQuery]:
        """One call of the sync pipeline, holding a concurrency slot until
        its thread is done — not merely until the awaiting task gives up."""
        semaphore = self._semaphore()
        await semaphore.acquire()
        try:
            future = self._submit(
                self._service._serve,
                cypher_text, name, opt_level, budget, self.checkout_timeout,
            )
        except BaseException:
            semaphore.release()
            raise
        loop = asyncio.get_running_loop()

        def release(_: Future) -> None:
            try:
                loop.call_soon_threadsafe(semaphore.release)
            except RuntimeError:
                pass  # the loop is gone, and its semaphore with it

        future.add_done_callback(release)
        return await asyncio.wrap_future(future)

    # -- execution ---------------------------------------------------------

    async def run(
        self,
        cypher_text: str,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """Execute *cypher_text* on *backend*; the pipeline call is awaited.

        Any number of coroutines may call this concurrently; executions
        beyond ``max_concurrency`` wait their turn (backpressure), and an
        exhausted pool raises :class:`~repro.backends.pool.PoolTimeout`
        after ``checkout_timeout`` seconds rather than queueing without
        bound.  *budget*, retries, circuit breaking, and downgrades behave
        exactly as in :meth:`GraphitiService.run` — it is the same code.
        """
        name = backend or self._service.default_backend
        with self._service.tracer.span(
            "query", backend=name, cypher=cypher_text, mode="async"
        ) as span:
            result, prepared = await self._serve(cypher_text, name, opt_level, budget)
            span.set("opt_level", prepared.opt_level)
            span.set("rows", len(result.rows))
        return result

    async def run_many(
        self,
        cypher_texts: Sequence[str],
        concurrency: int = 4,
        backend: str | None = None,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> list[Table]:
        """Execute a batch concurrently; ``results[i]`` answers ``texts[i]``.

        At most ``min(concurrency, max_concurrency)`` queries are in
        flight at once (the pool's capacity is raised to match).  Every
        distinct text is prepared up front, so a bad query fails the batch
        before any connection is touched.  If any query fails, the
        remaining ones finish and the first failure is re-raised.
        """
        texts = list(cypher_texts)
        if not texts:
            return []
        service = self._service
        name = backend or service.default_backend
        tracer = service.tracer
        fan_out = max(1, min(concurrency, self.max_concurrency, len(texts)))
        with tracer.span(
            "query.batch",
            backend=name,
            queries=len(texts),
            concurrency=fan_out,
            mode="async",
        ) as batch_span:
            service._prepare_batch(texts, name, opt_level, budget, fan_out)
            batch_slots = asyncio.Semaphore(fan_out)

            async def one(index: int, text: str) -> Table:
                async with batch_slots:
                    # parent= pins each branch's subtree to the batch span;
                    # sibling gather branches each set their own task-local
                    # current span, so their children never interleave.
                    with tracer.span(
                        "query", parent=batch_span, backend=name, index=index
                    ) as span:
                        result, _ = await self._serve(text, name, opt_level, budget)
                        span.set("rows", len(result.rows))
                        return result

            outcomes = await asyncio.gather(
                *(one(index, text) for index, text in enumerate(texts)),
                return_exceptions=True,
            )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    # -- data / pool management (offloaded: loading is blocking I/O) -------

    async def warm_pool(
        self, backend: str | None = None, members: int | None = None
    ) -> None:
        """Eagerly spawn pool members without stalling the event loop."""
        await self._offload(self._service.warm_pool, backend, members)

    async def load_database(self, database: Database) -> None:
        await self._offload(self._service.load_database, database)

    async def load_graph(self, graph: object) -> None:
        await self._offload(self._service.load_graph, graph)

    async def load_mock(self, rows_per_table: int, seed: int = 42) -> None:
        await self._offload(self._service.load_mock, rows_per_table, seed)

    async def reference(
        self,
        cypher_text: str,
        opt_level: int | None = None,
        budget: QueryBudget | None = None,
    ) -> Table:
        """The reference bag-semantics evaluation (offloaded: it's slow)."""
        return await self._offload(
            self._service.reference, cypher_text, opt_level, budget
        )

    # -- sync delegates (cheap, loop-safe) ----------------------------------

    def prepare(
        self,
        cypher_text: str,
        dialect: object | None = None,
        opt_level: int | None = None,
    ) -> PreparedQuery:
        """Cached transpilation — sync on purpose: micro-fast after first hit."""
        return self._service.prepare(cypher_text, dialect, opt_level=opt_level)

    def transpile_to_sql(
        self, cypher_text: str, dialect: object | None = None,
        opt_level: int | None = None,
    ) -> str:
        return self._service.transpile_to_sql(cypher_text, dialect, opt_level)

    def backends(self) -> tuple[str, ...]:
        return self._service.backends()

    def cache_info(self):
        return self._service.cache_info()

    def query_stats(self):
        return self._service.query_stats()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the worker threads (and the inner service when owned).

        Waits for every worker thread to finish its call — including calls
        whose awaiting task was cancelled — so no member is still checked
        out when an owned service closes its pools.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._owns_service:
            self._service.close()

    async def aclose(self) -> None:
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    async def __aenter__(self) -> "AsyncGraphitiService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

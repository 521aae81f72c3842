"""The one serving pipeline: budget-clocked retries and the async offload.

``AsyncGraphitiService`` runs whole calls of the sync pipeline on worker
threads, so the path its design changes most is cancellation: the
awaiting task gives up at once, while the thread it offloaded keeps
blocking in ``pool.checkout``.  These tests pin what that orphaned call
must do (finish or time out inside its thread, leaving pool gauges and
the breaker balanced) and that worker threads stay bounded by
``max_concurrency`` throughout.  The first class pins the retry loop's
use of the budget clock when a spawn fails.
"""

import asyncio
import threading
import time

import pytest

from repro.backends import (
    AsyncGraphitiService,
    CircuitBreaker,
    CircuitOpen,
    FaultInjected,
    GraphitiService,
    QueryBudget,
    RetryPolicy,
    injected_faults,
)
from repro.graph.schema import EdgeType, GraphSchema, NodeType
from repro.relational.instance import tables_equivalent

SCAN = "MATCH (n:EMP) RETURN n.name"
USER_SCAN = "MATCH (a:USER) RETURN a.uid"


async def wait_until_async(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def async_threads() -> int:
    return sum(
        1 for thread in threading.enumerate()
        if thread.name.startswith("graphiti-async")
    )


class TestSpawnFailureHonoursTheBudgetClock:
    @pytest.fixture
    def social_schema(self) -> GraphSchema:
        return GraphSchema.of(
            [NodeType("USER", ("uid",))],
            [EdgeType("FOLLOWS", "USER", "USER", ("fid",))],
        )

    def test_no_backoff_past_the_deadline(self, social_schema):
        """A spawn that fails after the budget's deadline surfaces the
        spawn error at once: no backoff sleep, no retry, no budget error
        masking the engine's refusal."""
        with injected_faults(fail_spawns=(2,)) as plan:
            with GraphitiService(
                social_schema,
                default_backend="faulty",
                pool_size=2,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05),
            ) as svc:
                svc.load_mock(20, seed=2)
                svc.prepare(USER_SCAN)  # the budget clock covers serving only
                pool = svc.pool()  # spawn #1: the primary
                hog = pool.checkout()  # the query must grow the pool
                on_spawn = plan.on_spawn

                def slow_doomed_spawn() -> None:
                    time.sleep(0.2)  # outlives the 50 ms budget
                    on_spawn()

                plan.on_spawn = slow_doomed_spawn
                sleeps: list[float] = []
                svc._retry_sleep = sleeps.append
                try:
                    with pytest.raises(FaultInjected, match="spawn #2"):
                        svc.run(USER_SCAN, budget=QueryBudget(timeout_seconds=0.05))
                finally:
                    pool.checkin(hog)
                assert sleeps == []
                assert plan.events == [("fail_spawn", 2)]
                assert svc.metrics.counter("repro_query_retries_total").total() == 0
                snapshot = pool.snapshot()
                assert snapshot["in_use"] == 0
                assert snapshot["size"] == 1  # the failed spawn freed its slot

    def test_spawn_failure_within_the_deadline_still_retries(self, social_schema):
        with injected_faults(fail_spawns=(2,)) as plan:
            with GraphitiService(
                social_schema,
                default_backend="faulty",
                pool_size=2,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.0),
            ) as svc:
                svc.load_mock(20, seed=2)
                pool = svc.pool()
                hog = pool.checkout()
                sleeps: list[float] = []
                svc._retry_sleep = sleeps.append
                try:
                    table = svc.run(USER_SCAN, budget=QueryBudget(timeout_seconds=30))
                finally:
                    pool.checkin(hog)
                assert len(table.rows) == 20
                assert len(sleeps) == 1
                assert ("fail_spawn", 2) in plan.events


class TestCancelWhileWaitingForCheckout:
    """Hog the only member, start ``run()``, and cancel it while its
    offloaded call blocks in ``pool.checkout``."""

    @pytest.fixture
    def service(self, emp_dept_schema):
        with GraphitiService(
            emp_dept_schema,
            pool_size=1,
            breaker_threshold=1,
            breaker_cooldown_seconds=0.01,
        ) as svc:
            svc.load_mock(10, seed=5)
            yield svc

    @staticmethod
    def half_open(service) -> CircuitBreaker:
        """Trip the breaker so the next call takes the half-open probe."""
        breaker = service.breaker()
        breaker.record_failure()
        time.sleep(0.02)  # past the cooldown
        return breaker

    def test_released_hog_lets_the_orphan_finish_cleanly(self, service):
        pool = service.pool()
        breaker = self.half_open(service)
        async_svc = AsyncGraphitiService(service, max_concurrency=1)
        hog = pool.checkout()
        service.reset_query_stats()

        async def drive():
            orphan = asyncio.ensure_future(async_svc.run(SCAN))
            await wait_until_async(lambda: pool.snapshot()["waiters"] == 1)
            orphan.cancel()
            with pytest.raises(asyncio.CancelledError):
                await orphan
            # The orphan's thread still blocks in checkout holding the
            # probe: nobody else may probe, and the slot is not yet free.
            assert breaker.state == CircuitBreaker.HALF_OPEN
            with pytest.raises(CircuitOpen):
                breaker.allow()
            # Its concurrency slot is held until the thread is done, so a
            # second run waits on the semaphore, not in a second thread.
            follower = asyncio.ensure_future(async_svc.run(SCAN))
            await asyncio.sleep(0.05)
            assert pool.snapshot()["waiters"] == 1
            assert not follower.done()
            pool.checkin(hog)
            return await asyncio.wait_for(follower, timeout=30)

        try:
            table = asyncio.run(drive())
        finally:
            async_svc.close()  # waits for the orphaned call's thread
        assert tables_equivalent(table, service.reference(SCAN))
        snapshot = pool.snapshot()
        assert snapshot["in_use"] == 0
        assert snapshot["waiters"] == 0
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow() is None  # closed traffic: no probe slot held
        # The orphan ran to completion inside its thread.
        stats = {stat.cypher_text: stat for stat in service.query_stats()}
        assert stats[SCAN].executions == 2

    def test_never_released_orphan_times_out_in_its_thread(self, service):
        pool = service.pool()
        breaker = self.half_open(service)
        async_svc = AsyncGraphitiService(
            service, max_concurrency=1, checkout_timeout=0.2
        )
        hog = pool.checkout()
        timeouts = service.metrics.counter("repro_pool_timeouts_total")

        async def drive() -> None:
            orphan = asyncio.ensure_future(async_svc.run(SCAN))
            await wait_until_async(lambda: pool.snapshot()["waiters"] == 1)
            orphan.cancel()
            with pytest.raises(asyncio.CancelledError):
                await orphan

        try:
            started = time.monotonic()
            asyncio.run(drive())
            async_svc.close()  # waits for the orphaned call's thread
            assert time.monotonic() - started >= 0.2
            assert timeouts.total() == 1
            snapshot = pool.snapshot()
            assert snapshot["waiters"] == 0
            assert snapshot["in_use"] == 1  # only the hog
            # The timed-out probe released its slot: a new probe is admitted.
            token = breaker.allow()
            assert token is not None
            breaker.release_probe(token)
        finally:
            pool.checkin(hog)
            async_svc.close()
        assert pool.snapshot()["in_use"] == 0
        assert len(service.run(SCAN).rows) == 10  # serving, circuit re-closed
        assert breaker.state == CircuitBreaker.CLOSED


class TestBoundedThreads:
    def test_waiting_runs_occupy_at_most_max_concurrency_threads(
        self, emp_dept_schema
    ):
        with GraphitiService(emp_dept_schema, pool_size=1) as service:
            service.load_mock(10, seed=5)
            pool = service.pool()
            expected = service.reference(SCAN)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            baseline = async_threads()
            hog = pool.checkout()

            async def drive():
                runs = [
                    asyncio.ensure_future(async_svc.run(SCAN)) for _ in range(10)
                ]
                await wait_until_async(lambda: pool.snapshot()["waiters"] == 2)
                await asyncio.sleep(0.1)  # give any excess thread time to show
                assert pool.snapshot()["waiters"] == 2
                assert async_threads() - baseline <= 2
                pool.checkin(hog)
                return await asyncio.wait_for(asyncio.gather(*runs), timeout=60)

            try:
                tables = asyncio.run(drive())
            finally:
                async_svc.close()
            assert len(tables) == 10
            for table in tables:
                assert tables_equivalent(expected, table)
            assert pool.snapshot()["in_use"] == 0

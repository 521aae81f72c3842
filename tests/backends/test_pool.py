"""ConnectionPool behaviour: checkout/checkin, lazy growth, clones, close,
and pool discipline under the asyncio serving layer."""

import asyncio
import threading
import time

import pytest

from repro.backends import ConnectionPool, PoolClosed, PoolTimeout, available_backends
from repro.core.sdt import infer_sdt
from repro.execution.datagen import MockDataGenerator
from repro.sql.stats import collect_stats


@pytest.fixture
def emp_dept_db(emp_dept_schema):
    sdt = infer_sdt(emp_dept_schema)
    return MockDataGenerator(emp_dept_schema, sdt, seed=3).induced_instance(30)


QUERY = 'SELECT COUNT(*) FROM "EMP"'


class TestCheckoutCheckin:
    def test_primary_is_warm_and_loaded(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            assert pool.size == 1  # primary created eagerly
            with pool.connection() as engine:
                assert engine.execute(QUERY).rows[0][0] == 30

    def test_checkin_returns_member_to_idle(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=4)
        member = pool.checkout()
        assert (pool.idle_count, pool.in_use) == (0, 1)
        pool.checkin(member)
        assert (pool.idle_count, pool.in_use) == (1, 0)
        # The same warmed member is reused, not a new one.
        assert pool.checkout() is member
        pool.close()

    def test_grows_lazily_up_to_capacity(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=3) as pool:
            members = [pool.checkout() for _ in range(3)]
            assert pool.size == 3
            assert len({id(m) for m in members}) == 3
            for member in members:
                assert member.execute(QUERY).rows[0][0] == 30
                pool.checkin(member)

    def test_blocks_at_capacity_until_checkin(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        acquired = []
        entered = threading.Event()

        def blocked_checkout():
            entered.set()
            other = pool.checkout(timeout=10)
            acquired.append(other)
            pool.checkin(other)

        thread = threading.Thread(target=blocked_checkout)
        thread.start()
        # No sleep-based timing: the pool is at capacity with its only
        # member checked out here, so the thread *cannot* have acquired
        # anything until our checkin below, however it is scheduled.
        assert entered.wait(timeout=10)
        assert not acquired
        pool.checkin(member)
        thread.join(timeout=10)
        assert acquired == [member]
        pool.close()

    def test_checkout_timeout(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        with pytest.raises(PoolTimeout):
            pool.checkout(timeout=0.05)
        pool.checkin(member)
        pool.close()

    def test_invalid_capacity_rejected(self, emp_dept_db):
        with pytest.raises(ValueError, match="capacity"):
            ConnectionPool("sqlite-memory", emp_dept_db, capacity=0)


class TestGrowthAndWarm:
    def test_warm_spawns_members_eagerly(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=4) as pool:
            pool.warm(3)
            assert pool.size == 3
            assert pool.idle_count == 3

    def test_warm_respects_capacity(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            pool.warm(10)
            assert pool.size == 2

    def test_grow_to_raises_ceiling_only(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            pool.grow_to(5)
            assert pool.capacity == 5
            pool.grow_to(1)  # never shrinks
            assert pool.capacity == 5

    def test_members_share_precollected_stats(self, emp_dept_db):
        stats = collect_stats(emp_dept_db)
        with ConnectionPool(
            "sqlite-memory", emp_dept_db, capacity=2, stats=stats
        ) as pool:
            pool.warm(2)
            first = pool.checkout()
            second = pool.checkout()
            # Same mapping object: nobody re-scanned the database.
            assert first.table_stats is stats
            assert second.table_stats is stats
            pool.checkin(first)
            pool.checkin(second)


class TestSharedStorageClones:
    def test_file_backend_clones_share_one_database_file(self, emp_dept_db):
        with ConnectionPool("sqlite-file", emp_dept_db, capacity=3) as pool:
            members = [pool.checkout() for _ in range(3)]
            paths = {member.path for member in members}
            assert len(paths) == 1  # one file, three connections
            for member in members:
                assert member.execute(QUERY).rows[0][0] == 30
                pool.checkin(member)

    def test_clone_does_not_delete_shared_file_on_checkin_close(self, emp_dept_db):
        import os

        pool = ConnectionPool("sqlite-file", emp_dept_db, capacity=2)
        first = pool.checkout()
        second = pool.checkout()
        primary_path = first.path
        pool.checkin(first)
        pool.checkin(second)
        assert os.path.exists(primary_path)
        pool.close()
        assert not os.path.exists(primary_path)  # primary cleaned up

    @pytest.mark.parametrize("name", available_backends())
    def test_every_available_backend_pools(self, name, emp_dept_db):
        with ConnectionPool(name, emp_dept_db, capacity=2) as pool:
            pool.warm(2)
            first = pool.checkout()
            second = pool.checkout()
            try:
                for member in (first, second):
                    assert member.execute(QUERY).rows[0][0] == 30
            finally:
                pool.checkin(first)
                pool.checkin(second)


class TestClose:
    def test_checkout_after_close_raises(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=2)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.checkout()

    def test_close_is_idempotent(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=2)
        pool.close()
        pool.close()

    def test_outstanding_member_closed_on_checkin(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=2)
        member = pool.checkout()
        pool.close()
        assert member.connection is not None  # not torn down mid-use
        pool.checkin(member)
        assert member.connection is None  # closed on the way in
        assert pool.size == 0

    def test_concurrent_checkouts_from_threads(self, emp_dept_db):
        errors = []
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=4) as pool:

            def worker():
                try:
                    for _ in range(20):
                        with pool.connection(timeout=10) as engine:
                            assert engine.execute(QUERY).rows[0][0] == 30
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors


def _wait_until(predicate, timeout=10.0):
    """Poll *predicate* until true; fail the test after *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.005)


class TestBlockedCheckouts:
    """Every waiter is a thread blocked in ``checkout``: how the pool wakes,
    counts and times out those threads."""

    def _blocked_checkout(self, pool, outcomes, hold=None, timeout=10):
        """A thread that checks out, records the member (or the error),
        optionally holds it until *hold* is set, then checks it in."""

        def run():
            try:
                member = pool.checkout(timeout=timeout)
            except Exception as error:
                outcomes.append(error)
                return
            outcomes.append(member)
            if hold is not None:
                hold.wait(10)
            pool.checkin(member)

        thread = threading.Thread(target=run)
        thread.start()
        return thread

    def test_snapshot_counts_blocked_checkouts(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            outcomes = []
            threads = [self._blocked_checkout(pool, outcomes) for _ in range(3)]
            _wait_until(lambda: pool.snapshot()["waiters"] == 3)
            assert not outcomes
            pool.checkin(member)
            for thread in threads:
                thread.join(timeout=10)
            assert outcomes == [member] * 3
            assert pool.snapshot()["waiters"] == 0

    def test_one_checkin_wakes_one_waiter(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            outcomes, hold = [], threading.Event()
            threads = [
                self._blocked_checkout(pool, outcomes, hold) for _ in range(2)
            ]
            _wait_until(lambda: pool.snapshot()["waiters"] == 2)
            pool.checkin(member)
            _wait_until(lambda: len(outcomes) == 1)
            # The woken thread holds the only member; the other still waits.
            assert pool.snapshot()["waiters"] == 1
            hold.set()
            for thread in threads:
                thread.join(timeout=10)
            assert outcomes == [member, member]

    def test_close_wakes_a_blocked_checkout(self, emp_dept_db):
        pool = ConnectionPool("sqlite-memory", emp_dept_db, capacity=1)
        member = pool.checkout()
        outcomes = []
        thread = self._blocked_checkout(pool, outcomes)
        _wait_until(lambda: pool.snapshot()["waiters"] == 1)
        pool.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(outcomes) == 1 and isinstance(outcomes[0], PoolClosed)
        pool.checkin(member)
        assert pool.size == 0

    def test_timeout_reports_the_pool_state(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            outcomes = []
            thread = self._blocked_checkout(pool, outcomes)
            _wait_until(lambda: pool.snapshot()["waiters"] == 1)
            with pytest.raises(PoolTimeout) as caught:
                pool.checkout(timeout=0.05)
            error = caught.value
            assert (error.capacity, error.in_use, error.idle) == (1, 1, 0)
            assert error.waiters == 1  # the other thread, not the caller
            assert error.waited_seconds >= 0.05
            assert "1 waiter(s)" in str(error)
            pool.checkin(member)
            thread.join(timeout=10)
            assert outcomes == [member]

    def test_timed_out_waiter_leaves_no_trace(self, emp_dept_db):
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            with pytest.raises(PoolTimeout):
                pool.checkout(timeout=0.05)
            assert pool.snapshot()["waiters"] == 0
            pool.checkin(member)
            # No phantom waiter claimed the member on its way back in.
            assert (pool.idle_count, pool.in_use) == (1, 0)
            assert pool.checkout(timeout=1) is member
            pool.checkin(member)

    def test_deadline_is_total_across_wakeups(self, emp_dept_db):
        """A waiter woken again and again without a free member must still
        time out after *timeout* seconds in all, not per wakeup."""
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            outcomes = []
            thread = self._blocked_checkout(pool, outcomes, timeout=0.3)
            deadline = time.monotonic() + 10
            while thread.is_alive() and time.monotonic() < deadline:
                with pool._available:  # a wakeup that frees nothing
                    pool._available.notify_all()
                time.sleep(0.01)
            assert not thread.is_alive()
            assert len(outcomes) == 1 and isinstance(outcomes[0], PoolTimeout)
            pool.checkin(member)

    def test_inflight_spawn_counts_against_capacity(self, emp_dept_db, monkeypatch):
        """A spawn still loading holds its slot: a checkout meanwhile waits
        instead of growing the pool past capacity."""
        from repro.backends import pool as pool_module

        real_load = pool_module.load_backend
        loading, release = threading.Event(), threading.Event()

        def slow_load(*args, **kwargs):
            loading.set()
            release.wait(10)
            return real_load(*args, **kwargs)

        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            first = pool.checkout()
            monkeypatch.setattr(pool_module, "load_backend", slow_load)
            outcomes = []
            spawner = self._blocked_checkout(pool, outcomes)
            assert loading.wait(10)
            with pytest.raises(PoolTimeout):
                pool.checkout(timeout=0.05)
            release.set()
            spawner.join(timeout=10)
            assert len(outcomes) == 1 and outcomes[0] is not first
            assert pool.size == pool.capacity == 2
            pool.checkin(first)

    def test_failed_spawn_wakes_a_blocked_waiter(self, emp_dept_db, monkeypatch):
        """A spawn that fails frees its slot and wakes a waiter, which then
        spawns the member itself instead of waiting out its timeout."""
        from repro.backends import pool as pool_module

        real_load = pool_module.load_backend
        loading, release = threading.Event(), threading.Event()
        calls = []

        def first_load_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                loading.set()
                release.wait(10)
                raise RuntimeError("engine exploded")
            return real_load(*args, **kwargs)

        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            first = pool.checkout()
            monkeypatch.setattr(pool_module, "load_backend", first_load_fails)
            spawned, waited = [], []
            spawner = self._blocked_checkout(pool, spawned)
            assert loading.wait(10)
            waiter = self._blocked_checkout(pool, waited, timeout=10)
            _wait_until(lambda: pool.snapshot()["waiters"] == 1)
            release.set()
            spawner.join(timeout=10)
            waiter.join(timeout=10)
            assert isinstance(spawned[0], RuntimeError)
            assert len(waited) == 1 and waited[0] is not first
            assert len(calls) == 2
            assert pool.size == 2
            pool.checkin(first)

    def test_grow_to_wakes_blocked_checkouts(self, emp_dept_db):
        """Raising the ceiling gives a thread blocked at the old capacity
        room to spawn a member at once."""
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=1) as pool:
            member = pool.checkout()
            outcomes = []
            thread = self._blocked_checkout(pool, outcomes)
            _wait_until(lambda: pool.snapshot()["waiters"] == 1)
            pool.grow_to(2)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert len(outcomes) == 1 and outcomes[0] is not member
            assert pool.size == 2
            pool.checkin(member)


class TestAsyncEdgeCases:
    """Pool discipline under the asyncio serving layer."""

    def test_checkin_on_exception_during_awaited_execution(
        self, emp_dept_schema, monkeypatch
    ):
        """A query failing *inside* an awaited execution must check its
        connection back in — the classic leak in async serving layers."""
        from repro.backends import AsyncGraphitiService, GraphitiService
        from repro.backends.sqlite import SqliteMemoryBackend

        query = "MATCH (n:EMP) RETURN n.name"
        with GraphitiService(emp_dept_schema, pool_size=2) as service:
            service.load_mock(20, seed=9)
            async_svc = AsyncGraphitiService(service, max_concurrency=2)
            try:
                pool = service.pool()  # created (and loaded) before the poison

                def always_failing(self, sql_text):
                    raise RuntimeError("engine crashed mid-query")

                monkeypatch.setattr(SqliteMemoryBackend, "execute", always_failing)
                for _ in range(3):
                    with pytest.raises(RuntimeError, match="engine crashed"):
                        asyncio.run(async_svc.run(query))
                assert pool.in_use == 0
                assert pool.idle_count == pool.size  # fully drained back
                # The pool still serves good queries once the engine heals.
                monkeypatch.undo()
                table = asyncio.run(async_svc.run(query))
                assert len(table) == 20
            finally:
                async_svc.close()

    def test_template_member_never_handed_out_under_mixed_load(
        self, emp_dept_schema, monkeypatch
    ):
        """sqlite-file keeps a template member owning the shared database
        file; under simultaneous sync-thread and asyncio load it must never
        execute a query — only clones are handed out."""
        from repro.backends import AsyncGraphitiService, GraphitiService
        from repro.backends.sqlite import SqliteFileBackend

        executed_on: set[int] = set()
        original = SqliteFileBackend.execute

        def spying_execute(self, sql_text):
            executed_on.add(id(self))
            return original(self, sql_text)

        monkeypatch.setattr(SqliteFileBackend, "execute", spying_execute)
        query = "MATCH (n:EMP) RETURN n.name"
        with GraphitiService(
            emp_dept_schema, default_backend="sqlite-file", pool_size=3
        ) as service:
            service.load_mock(20, seed=9)
            async_svc = AsyncGraphitiService(service, max_concurrency=3)
            errors: list[Exception] = []

            def sync_load():
                try:
                    for _ in range(6):
                        service.run(query)
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            async def async_load():
                await asyncio.gather(
                    *(async_svc.run(query) for _ in range(6))
                )

            try:
                threads = [threading.Thread(target=sync_load) for _ in range(2)]
                for thread in threads:
                    thread.start()
                asyncio.run(async_load())
                for thread in threads:
                    thread.join(timeout=30)
                assert not errors
                pool = service.pool()
                template = pool._template
                assert template is not None  # sqlite-file pools via clones
                assert id(template) not in executed_on
                assert executed_on  # the spy actually saw the clones work
            finally:
                async_svc.close()

    def test_failed_spawn_releases_its_capacity_slot(self, emp_dept_db, monkeypatch):
        """A spawn failing inside checkout must release its capacity slot,
        or the pool could never grow to capacity again."""
        with ConnectionPool("sqlite-memory", emp_dept_db, capacity=2) as pool:
            first = pool.checkout()

            def broken_load(*args, **kwargs):
                raise RuntimeError("engine exploded")

            monkeypatch.setattr(
                "repro.backends.pool.load_backend", broken_load
            )
            with pytest.raises(RuntimeError, match="engine exploded"):
                pool.checkout(timeout=1)  # grows the pool: the spawn fails
            assert pool.size == 1
            monkeypatch.undo()
            # The slot is free again: this checkout grows to capacity
            # instead of timing out behind a leaked reservation.
            second = pool.checkout(timeout=1)
            assert second is not first
            assert pool.size == pool.capacity == 2
            assert pool.snapshot()["waiters"] == 0
            pool.checkin(first)
            pool.checkin(second)

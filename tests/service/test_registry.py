"""Unit tests for the daemon's bookkeeping: bounded job retention and
the two-sided cancellation edge."""

from __future__ import annotations

import asyncio

from repro.service.registry import (
    DONE,
    FAILED,
    RUNNING,
    JobTable,
    SweepJob,
)


def test_job_table_prunes_oldest_terminal_jobs():
    table = JobTable(max_jobs=3)
    old = [table.create("rt", {}) for _ in range(3)]
    for job in old:
        job.state = DONE
        job.result = {"payload": "big"}
    fresh = table.create("rt", {})
    # The oldest finished job (and its result payload) is gone; the
    # newer finished ones and the fresh job remain, in order.
    assert table.get(old[0].id) is None
    assert [job.id for job in table.all()] == [
        old[1].id, old[2].id, fresh.id
    ]
    old[1].state = FAILED
    another = table.create("rt", {})
    assert table.get(old[1].id) is None
    assert len(table.all()) == 3
    assert table.get(another.id) is another


def test_job_table_never_prunes_live_jobs():
    table = JobTable(max_jobs=1)
    live = [table.create("rt", {}) for _ in range(4)]
    for job in live:
        job.state = RUNNING
    table.create("rt", {})
    # Nothing terminal to drop: every live job survives over the cap.
    assert len(table.all()) == 5
    assert all(table.get(job.id) is not None for job in live)


def test_request_cancel_sets_event_and_resolves_waiter():
    async def run():
        job = SweepJob(id="sweep-1", runtime_key="rt", request={})
        waiter = asyncio.get_running_loop().create_future()
        job.cancel_waiter = waiter
        job.request_cancel()
        assert job.cancel_event.is_set()
        assert waiter.done()
        job.request_cancel()  # idempotent on a resolved waiter

    asyncio.run(run())

"""Fleet scheduler: admission, batching, budgets, fault isolation.

Uses the echo app throughout — it is a few hundred instructions per
request, has an on-demand divide-by-zero trap (a machine fault, the
same class ConfLLVM's inserted checks raise) and an infinite-spin
request for exercising per-request instruction budgets.
"""

from __future__ import annotations

import pytest

from repro import OUR_MPX
from repro.errors import ServeError
from repro.serve import SERVE_APPS, Fleet, build_app_image
from repro.serve.apps import (
    echo_fault_request,
    echo_request,
    echo_spin_request,
)

APP = SERVE_APPS["echo"]


@pytest.fixture(scope="module")
def image():
    img, _ = build_app_image(APP, OUR_MPX, seed=1)
    return img


def check(payload, response):
    from repro import TrustedRuntime

    return APP.check_response(TrustedRuntime(), payload, response)


def test_fleet_serves_correct_responses(image):
    stream = [
        (f"tenant{i % 3}", echo_request(i)) for i in range(30)
    ]
    fleet = Fleet(image, 3, pool_size=2)
    results = fleet.serve(stream)
    assert len(results) == 30
    assert [r.index for r in results] == list(range(30))
    for (tenant, payload), result in zip(stream, results):
        assert result.tenant == tenant
        assert result.ok
        assert check(payload, result.response)
    counters = fleet.counters()
    assert sum(c["requests"] for c in counters.values()) == 30
    assert counters["tenant0"]["requests"] == 10
    assert all(c["faults"] == 0 for c in counters.values())


def test_fleet_serves_twice(image):
    """Each serve runs its own event loop; the second must not trip
    over queues bound to the first, and counters keep accumulating."""
    fleet = Fleet(image, 2, pool_size=2)
    for round_ in range(2):
        stream = [
            (f"tenant{i % 2}", echo_request(100 * round_ + i))
            for i in range(40)
        ]
        results = fleet.serve(stream)
        assert [r.index for r in results] == list(range(40))
        for (tenant, payload), result in zip(stream, results):
            assert result.tenant == tenant
            assert result.ok
            assert check(payload, result.response)
        counters = fleet.counters()
        assert [c["requests"] for c in counters.values()] == [
            20 * (round_ + 1)
        ] * 2
        assert all(c["faults"] == 0 for c in counters.values())


def test_fault_kills_only_its_fork(image):
    """A faulting request is reported, its fork is reset, and every
    other request — same tenant and others — still completes."""
    stream = []
    for i in range(24):
        tenant = f"tenant{i % 2}"
        payload = (
            echo_fault_request() if i in (3, 7) else echo_request(i)
        )
        stream.append((tenant, payload))
    fleet = Fleet(image, 2, pool_size=2)
    results = fleet.serve(stream)
    faulted = [r for r in results if r.fault is not None]
    assert [r.index for r in faulted] == [3, 7]
    assert all(r.fault == "divide-error" for r in faulted)
    assert all(not r.evicted for r in faulted)
    for (tenant, payload), result in zip(stream, results):
        if result.fault is None:
            assert result.ok and check(payload, result.response)
    counters = fleet.counters()
    assert counters["tenant1"]["faults"] == 2  # indexes 3 and 7 are odd
    assert counters["tenant0"]["faults"] == 0
    # Every request got a full reset (batch=1) — faults do not add an
    # extra one on top of the per-request reset.
    assert counters["tenant1"]["resets"] == counters["tenant1"]["requests"]


def test_budget_exhaustion_evicts(image):
    stream = [
        ("tenant0", echo_request(0)),
        ("tenant0", echo_spin_request()),
        ("tenant0", echo_request(2)),
    ]
    fleet = Fleet(image, 1, pool_size=1, budget=50_000)
    results = fleet.serve(stream)
    assert [r.ok for r in results] == [True, False, True]
    spun = results[1]
    assert spun.fault == "instruction-budget-exhausted"
    assert spun.evicted
    # The evicted request still reports what it burned before eviction.
    assert spun.instructions >= 50_000
    counters = fleet.counters()["tenant0"]
    assert counters["evictions"] == 1
    assert counters["faults"] == 1


def test_batching_matches_unbatched_responses(image):
    stream = [(f"tenant{i % 2}", echo_request(i)) for i in range(16)]
    unbatched = Fleet(image, 2, pool_size=1, batch=1).serve(stream)
    batched = Fleet(image, 2, pool_size=1, batch=4).serve(stream)
    assert [r.response for r in batched] == [
        r.response for r in unbatched
    ]
    assert all(r.ok for r in batched)


def test_batch_one_totals_are_deterministic(image):
    stream = [(f"tenant{i % 4}", echo_request(i)) for i in range(40)]

    def run():
        fleet = Fleet(image, 4, pool_size=2)
        results = fleet.serve(stream)
        return (
            [(r.index, r.cycles, r.instructions, r.checks) for r in results],
            {
                name: {
                    k: v
                    for k, v in c.items()
                    if k != "max_queue_depth"
                }
                for name, c in fleet.counters().items()
            },
        )

    assert run() == run()


def test_rejects_bad_topology(image):
    with pytest.raises(ServeError):
        Fleet(image, 0)
    with pytest.raises(ServeError):
        Fleet(image, ["a", "a"])
    with pytest.raises(ServeError):
        Fleet(image, 2, pool_size=0)
    with pytest.raises(ServeError):
        Fleet(image, 2, batch=0)
    fleet = Fleet(image, ["a"], pool_size=1)
    with pytest.raises(ServeError):
        fleet.serve([("nobody", b"x" * 16)])


def test_publish_metrics(image):
    from repro.obs import events

    fleet = Fleet(image, 2, pool_size=1)
    fleet.serve([(f"tenant{i % 2}", echo_request(i)) for i in range(6)])
    registry = events.Registry()
    fleet.publish_metrics(registry)
    snapshot = registry.metrics_snapshot()
    requests = {
        key: value
        for key, value in snapshot.items()
        if key.startswith("serve.requests")
    }
    assert sum(requests.values()) == 6


def test_publish_metrics_full_counter_set(image):
    """publish_metrics must mirror every TenantCounters field — it used
    to drop instructions, checks, batches, and max_queue_depth."""
    from repro.obs import events

    fleet = Fleet(image, 2, pool_size=1, budget=50_000)
    stream = [(f"tenant{i % 2}", echo_request(i)) for i in range(6)]
    stream.append(("tenant0", echo_spin_request()))
    fleet.serve(stream)
    registry = events.Registry()
    fleet.publish_metrics(registry)
    snapshot = registry.metrics_snapshot()
    for tenant, counters in fleet.counters().items():
        for key, value in counters.items():
            metric = f"serve.{key}{{tenant={tenant}}}"
            assert snapshot.get(metric) == value, metric
    assert sum(
        value
        for key, value in snapshot.items()
        if key.startswith("serve.instructions")
    ) > 0
    assert snapshot[f"serve.evictions{{tenant=tenant0}}"] == 1


class TestWorkerCrash:
    """A dead pool worker must surface its exception immediately
    instead of deadlocking serve_async.

    Before the fix, ``await pool.queue.join()`` waited forever for
    ``task_done()`` calls the crashed worker would never make, and a
    producer blocked in ``queue.put()`` waited forever for consumers
    that no longer existed.  ``asyncio.wait_for`` turns a regression
    back into a test failure rather than a hung suite.
    """

    TIMEOUT = 10.0

    @staticmethod
    def _crash_serve_one(monkeypatch, message):
        from repro.serve.scheduler import TenantPool

        def explode(self, instance, pending, dequeued):
            raise RuntimeError(message)

        monkeypatch.setattr(TenantPool, "_serve_one", explode)

    def _serve(self, fleet, stream):
        import asyncio

        async def run():
            return await asyncio.wait_for(
                fleet.serve_async(stream), timeout=self.TIMEOUT
            )

        return asyncio.run(run())

    def test_crash_unblocks_queue_join(self, image, monkeypatch):
        self._crash_serve_one(monkeypatch, "slot exploded")
        fleet = Fleet(image, 1, pool_size=1)
        with pytest.raises(RuntimeError, match="slot exploded"):
            self._serve(fleet, [("tenant0", echo_request(0))])

    def test_crash_unblocks_full_queue_submit(self, image, monkeypatch):
        # queue_depth=1 with a single dead consumer: without the fix
        # the producer blocks forever inside submit() on request #3.
        self._crash_serve_one(monkeypatch, "slot exploded")
        fleet = Fleet(image, 1, pool_size=1, queue_depth=1)
        stream = [("tenant0", echo_request(i)) for i in range(8)]
        with pytest.raises(RuntimeError, match="slot exploded"):
            self._serve(fleet, stream)

    def test_crash_in_one_pool_stops_whole_run(self, image, monkeypatch):
        # Multi-tenant: a crash anywhere surfaces even while other
        # pools' queues still hold work.
        self._crash_serve_one(monkeypatch, "slot exploded")
        fleet = Fleet(image, 3, pool_size=2)
        stream = [(f"tenant{i % 3}", echo_request(i)) for i in range(12)]
        with pytest.raises(RuntimeError, match="slot exploded"):
            self._serve(fleet, stream)

    def test_healthy_fleet_unaffected_by_raceable_paths(self, image):
        # The raced submit/join paths must not change results when no
        # worker dies — including with a tiny queue that forces the
        # blocking-put branch.
        stream = [("tenant0", echo_request(i)) for i in range(8)]
        fleet = Fleet(image, 1, pool_size=1, queue_depth=1)
        results = self._serve(fleet, stream)
        assert [r.index for r in results] == list(range(8))
        assert all(r.ok for r in results)

"""The fleet scheduler: per-tenant machine pools behind one async
admission loop.

Multi-tenancy model (the HasTEE+ "enclave as a service" shape):

* every tenant gets its own pool of ``pool_size`` forks of the shared
  verified :class:`MachineImage` — machines are never shared across
  tenants, so tenant isolation is structural, and within a tenant
  every request starts from the image state (per-request reset);
* admission is a bounded per-tenant queue — producers block when a
  tenant falls behind (backpressure) instead of growing memory;
* batching: a pool slot may drain up to ``batch`` already-queued
  requests of its tenant before resetting, modelling per-connection
  request pipelining (the dirserver's cached bind only persists
  within a batch).  ``batch=1`` (default) gives fully deterministic
  per-request cycle accounting;
* per-request budgets: a request that exhausts its instruction budget
  faults with ``instruction-budget-exhausted`` and is reported as
  *evicted* — the slot resets and keeps serving;
* fault isolation: any ``MachineFault`` (a verifier-inserted check
  firing, a budget eviction) kills only that fork's state — the slot
  resets to the image and the pool, and every other tenant, is
  untouched.

Everything is cooperative asyncio on one host thread: the simulated
machines are CPU-bound, so concurrency here is about queueing and
fairness, not parallelism — and it keeps total simulated-cycle counts
deterministic for the bench-trajectory gate.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..errors import MachineFault, ServeError
from .image import DEFAULT_BUDGET, MachineImage, ServeInstance

#: Default admission-queue depth per tenant.
DEFAULT_QUEUE_DEPTH = 64


async def _race(awaitable, failure: asyncio.Future):
    """Await ``awaitable``, failing fast if ``failure`` completes first.

    ``failure`` carries the first pool-worker crash.  Without the race,
    ``queue.join()`` waits forever on ``task_done()`` calls a dead
    worker will never make, and a blocking ``queue.put()`` waits
    forever on consumers that no longer exist.
    """
    op = asyncio.ensure_future(awaitable)
    try:
        done, _ = await asyncio.wait(
            (op, failure), return_when=asyncio.FIRST_COMPLETED
        )
    except asyncio.CancelledError:
        op.cancel()
        raise
    if op in done:
        return op.result()
    op.cancel()
    await asyncio.gather(op, return_exceptions=True)
    return failure.result()  # re-raises the worker's exception


@dataclass
class RequestResult:
    """Outcome of one request through the fleet."""

    tenant: str
    index: int  # submission order across the whole run
    ok: bool  # completed without fault (response validity is separate)
    response: bytes
    fault: str | None  # MachineFault kind, e.g. "divide-error"
    evicted: bool  # budget exhaustion specifically
    cycles: int  # simulated service cycles (includes resume replay)
    instructions: int
    checks: int  # bnd+cfi checks retired by this request
    wall_s: float  # admission -> completion (queueing included)
    queue_s: float  # admission -> dequeue


@dataclass
class TenantCounters:
    requests: int = 0
    faults: int = 0
    evictions: int = 0
    resets: int = 0
    batches: int = 0
    cycles: int = 0
    instructions: int = 0
    checks: int = 0
    max_queue_depth: int = 0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "faults": self.faults,
            "evictions": self.evictions,
            "resets": self.resets,
            "batches": self.batches,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "checks": self.checks,
            "max_queue_depth": self.max_queue_depth,
        }


@dataclass
class _Pending:
    index: int
    payload: bytes
    enqueued: float
    result: RequestResult | None = None


class TenantPool:
    """One tenant's machines + admission queue."""

    def __init__(self, tenant: str, image: MachineImage, *,
                 pool_size: int, batch: int, budget: int,
                 request_fd: int, response_fd: int, queue_depth: int):
        if pool_size < 1:
            raise ServeError(f"tenant {tenant!r}: pool_size must be >= 1")
        if batch < 1:
            raise ServeError(f"tenant {tenant!r}: batch must be >= 1")
        self.tenant = tenant
        self.batch = batch
        self.budget = budget
        self.instances = [
            ServeInstance(
                image.fork(), request_fd=request_fd,
                response_fd=response_fd,
            )
            for _ in range(pool_size)
        ]
        self.queue_depth = queue_depth
        self.counters = TenantCounters()
        self.open_queue()

    def open_queue(self) -> None:
        """Start a fresh admission queue.  An asyncio queue binds to the
        event loop that first waits on it, so each event loop that
        drives this pool needs its own."""
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_depth)

    async def submit(self, pending: _Pending,
                     failure: asyncio.Future | None = None) -> None:
        try:
            # Fast path: like Queue.put on a non-full queue, this does
            # not yield, so request interleaving (and therefore batch
            # composition and cycle accounting) stays deterministic.
            self.queue.put_nowait(pending)
        except asyncio.QueueFull:
            if failure is None:
                await self.queue.put(pending)
            else:
                await _race(self.queue.put(pending), failure)
        depth = self.queue.qsize()
        if depth > self.counters.max_queue_depth:
            self.counters.max_queue_depth = depth

    async def worker(self, instance: ServeInstance) -> None:
        """One pool slot: drain batches until cancelled."""
        counters = self.counters
        while True:
            batch = [await self.queue.get()]
            while len(batch) < self.batch:
                try:
                    batch.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            dequeued = time.perf_counter()
            fresh = False
            for pending in batch:
                pending.result = self._serve_one(
                    instance, pending, dequeued
                )
                fresh = False
                if pending.result.fault is not None or (
                    instance.exit_code is not None
                ):
                    # The fork is dead (fault) or left its loop (quit
                    # request) — rewind it before the rest of the
                    # batch; the pool itself never dies.
                    instance.reset()
                    counters.resets += 1
                    fresh = True
            if not fresh:
                instance.reset()
                counters.resets += 1
            counters.batches += 1
            for _ in batch:
                self.queue.task_done()
            # Yield so producers and other pools interleave.
            await asyncio.sleep(0)

    def _serve_one(self, instance: ServeInstance, pending: _Pending,
                   dequeued: float) -> RequestResult:
        counters = self.counters
        fault = None
        evicted = False
        response = b""
        try:
            response = instance.handle_request(
                pending.payload, max_instructions=self.budget
            )
        except MachineFault as exc:
            fault = exc.kind
            evicted = exc.kind == "instruction-budget-exhausted"
            counters.faults += 1
            if evicted:
                counters.evictions += 1
        counters.requests += 1
        counters.cycles += instance.last_cycles
        counters.instructions += instance.last_instructions
        counters.checks += instance.last_checks
        done = time.perf_counter()
        return RequestResult(
            tenant=self.tenant,
            index=pending.index,
            ok=fault is None,
            response=response,
            fault=fault,
            evicted=evicted,
            cycles=instance.last_cycles,
            instructions=instance.last_instructions,
            checks=instance.last_checks,
            wall_s=done - pending.enqueued,
            queue_s=dequeued - pending.enqueued,
        )


class Fleet:
    """A multi-tenant serving fleet over one MachineImage."""

    def __init__(self, image: MachineImage, tenants, *,
                 pool_size: int = 2, batch: int = 1,
                 budget: int = DEFAULT_BUDGET,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 request_fd: int = 0, response_fd: int = 1):
        if isinstance(tenants, int):
            tenants = [f"tenant{i}" for i in range(tenants)]
        tenants = list(tenants)
        if not tenants:
            raise ServeError("fleet needs at least one tenant")
        if len(set(tenants)) != len(tenants):
            raise ServeError("duplicate tenant names")
        self.image = image
        self.pools: dict[str, TenantPool] = {
            name: TenantPool(
                name, image, pool_size=pool_size, batch=batch,
                budget=budget, request_fd=request_fd,
                response_fd=response_fd, queue_depth=queue_depth,
            )
            for name in tenants
        }

    @property
    def tenants(self) -> list[str]:
        return list(self.pools)

    def serve(self, requests) -> list[RequestResult]:
        """Push ``requests`` — an iterable of ``(tenant, payload)`` —
        through the fleet; returns results in submission order."""
        return asyncio.run(self.serve_async(requests))

    async def serve_async(self, requests) -> list[RequestResult]:
        loop = asyncio.get_running_loop()
        failure: asyncio.Future = loop.create_future()

        def _surface(task: asyncio.Task) -> None:
            if task.cancelled():
                return
            exc = task.exception()
            if exc is not None and not failure.done():
                failure.set_exception(exc)

        workers = []
        for pool in self.pools.values():
            pool.open_queue()
            for instance in pool.instances:
                worker = asyncio.ensure_future(pool.worker(instance))
                worker.add_done_callback(_surface)
                workers.append(worker)
        submitted: list[_Pending] = []
        try:
            for tenant, payload in requests:
                pool = self.pools.get(tenant)
                if pool is None:
                    raise ServeError(f"unknown tenant {tenant!r}")
                pending = _Pending(
                    index=len(submitted), payload=payload,
                    enqueued=time.perf_counter(),
                )
                submitted.append(pending)
                await pool.submit(pending, failure)
            for pool in self.pools.values():
                await _race(pool.queue.join(), failure)
        finally:
            for worker in workers:
                worker.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
            if failure.done() and not failure.cancelled():
                failure.exception()  # mark retrieved; _race already raised
        # Surface unexpected worker crashes (anything but cancellation).
        for worker in workers:
            if worker.cancelled():
                continue
            exc = worker.exception()
            if exc is not None:
                raise exc
        return [pending.result for pending in submitted]

    def counters(self) -> dict[str, dict]:
        return {
            name: pool.counters.as_dict()
            for name, pool in self.pools.items()
        }

    def publish_metrics(self, registry) -> None:
        """Publish the full per-tenant counter set into an obs
        registry — one ``serve.<counter>`` metric per
        :class:`TenantCounters` field."""
        for name, pool in self.pools.items():
            for key, value in pool.counters.as_dict().items():
                registry.counter(f"serve.{key}", tenant=name).inc(value)

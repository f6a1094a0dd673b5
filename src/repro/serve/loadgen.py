"""Load generation and measurement for the serving tier.

``run_load`` is the single entry point behind the ``repro serve`` CLI
subcommand and the serve benchmarks: build one verified image, stand
up a multi-tenant fleet, push a deterministic request stream through
it round-robin over the tenants, and report throughput, p50/p95/p99
latency on both clocks (host wall time and simulated cycles), and the
setup-cost comparison that justifies the tier's existence —

* **cold path** per request: compile + ConfVerify + load
  (``cold_wall_s``) and the app's init work from spawn to its first
  request wait (``warmup_cycles``);
* **fork path** per request: an in-place image reset
  (``reset_wall_s``) and the deterministic resume replay back to the
  request wait (``resume_cycles``).

Round-robin tenant assignment plus ``batch=1`` per-request resets make
the total simulated cycles/instructions independent of host timing, so
serve records stored through ``serve --store`` diff exactly against
the committed seed trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ServeError
from ..obs import bench_store
from ..runtime.trusted import TrustedRuntime
from .apps import SERVE_APPS, ServeApp, build_app_image
from .image import (
    DEFAULT_BUDGET,
    MachineImage,
    ServeInstance,
    resume_overhead_cycles,
)
from .scheduler import DEFAULT_QUEUE_DEPTH, Fleet, RequestResult

#: Resets sampled when measuring the per-request fork-path setup cost.
_RESET_SAMPLES = 32


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ServeError("percentile of empty list")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math
    return float(ordered[int(rank) - 1])


def latency_summary(values) -> dict:
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "mean": float(sum(values) / len(values)),
        "max": float(max(values)),
    }


@dataclass
class ServeReport:
    """Everything one fleet run measured."""

    app: str
    config: str
    engine: str
    seed: int | None
    tenants: list[str]
    pool_size: int
    batch: int
    budget: int
    requests: int
    ok: int  # completed without fault
    valid: int  # responses that pass the app's check
    faults: int
    evictions: int
    wall_s: float  # whole-fleet serving wall time
    throughput_rps: float
    latency_wall_ms: dict
    latency_cycles: dict
    total_cycles: int
    total_instructions: int
    total_checks: int
    setup: dict
    per_tenant: dict

    def to_json(self) -> dict:
        return {
            "app": self.app,
            "config": self.config,
            "engine": self.engine,
            "seed": self.seed,
            "tenants": self.tenants,
            "pool_size": self.pool_size,
            "batch": self.batch,
            "budget": self.budget,
            "requests": self.requests,
            "ok": self.ok,
            "valid": self.valid,
            "faults": self.faults,
            "evictions": self.evictions,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_wall_ms": self.latency_wall_ms,
            "latency_cycles": self.latency_cycles,
            "total_cycles": self.total_cycles,
            "total_instructions": self.total_instructions,
            "total_checks": self.total_checks,
            "setup": self.setup,
            "per_tenant": self.per_tenant,
        }

    def bench_entry(self) -> dict:
        """A bench_store benchmark entry: the fleet's simulated totals."""
        return bench_store.make_benchmark(
            name=f"serve/{self.app}",
            config=self.config,
            cycles=self.total_cycles,
            instructions=self.total_instructions,
            checks={"bnd_cfi": self.total_checks},
        )


def generate_requests(app: ServeApp, runtime: TrustedRuntime,
                      tenants, n_requests: int):
    """The deterministic request stream: request i goes to tenant
    ``i % len(tenants)`` with payload ``app.encode_request(rt, i)``."""
    tenants = list(tenants)
    return [
        (tenants[i % len(tenants)], app.encode_request(runtime, i))
        for i in range(n_requests)
    ]


def measure_setup_costs(image: MachineImage, timings: dict,
                        app: ServeApp) -> dict:
    """The cold-vs-fork comparison on both clocks.

    Wall: one compile+verify+load (``cold_wall_s``) against the mean
    in-place reset.  Simulated cycles: the app's init work a cold
    instance runs before serving (``warmup_cycles``) against the
    resume replay a restored fork pays (``resume_cycles``).
    """
    t0 = time.perf_counter()
    instance = ServeInstance(
        image.fork(), request_fd=app.request_fd,
        response_fd=app.response_fd,
    )
    fork_wall_s = time.perf_counter() - t0
    resume_cycles = resume_overhead_cycles(instance)
    # Warm the request path once so reset timing reflects steady state
    # (encode against the instance's runtime — session keys must match).
    instance.handle_request(app.encode_request(instance.runtime, 0))
    t0 = time.perf_counter()
    for _ in range(_RESET_SAMPLES):
        instance.reset()
    reset_wall_s = (time.perf_counter() - t0) / _RESET_SAMPLES
    cold_wall_s = timings["build_wall_s"] + timings["load_wall_s"]
    cold_cycles = image.warmup_cycles + resume_cycles
    return {
        "cold_build_wall_s": timings["build_wall_s"],
        "cold_load_wall_s": timings["load_wall_s"],
        "cold_wall_s": cold_wall_s,
        "warmup_cycles": image.warmup_cycles,
        "warmup_instructions": image.warmup_instructions,
        "warmup_wall_s": image.warmup_wall_s,
        "fork_wall_s": fork_wall_s,
        "reset_wall_s": reset_wall_s,
        "resume_cycles": resume_cycles,
        "wall_speedup": (
            cold_wall_s / reset_wall_s if reset_wall_s > 0 else float("inf")
        ),
        "cycle_speedup": (
            cold_cycles / resume_cycles if resume_cycles > 0
            else float("inf")
        ),
    }


def run_load(
    app_name: str,
    config,
    *,
    tenants: int = 2,
    pool_size: int = 2,
    requests: int = 100,
    batch: int = 1,
    budget: int = DEFAULT_BUDGET,
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    engine: str = "predecoded",
    seed: int | None = None,
    verify: bool = True,
) -> ServeReport:
    """Build an image for ``app_name`` under ``config`` and drive
    ``requests`` requests through a ``tenants``-tenant fleet."""
    app = SERVE_APPS.get(app_name)
    if app is None:
        raise ServeError(
            f"unknown app {app_name!r}; pick from {sorted(SERVE_APPS)}"
        )
    if requests < 1:
        raise ServeError("need at least one request")

    image, timings = build_app_image(
        app, config, seed=seed, engine=engine, verify=verify
    )
    setup = measure_setup_costs(image, timings, app)

    fleet = Fleet(
        image, tenants, pool_size=pool_size, batch=batch, budget=budget,
        queue_depth=queue_depth, request_fd=app.request_fd,
        response_fd=app.response_fd,
    )
    # Encode against a runtime restored from the image so session keys
    # (and any setup state) match what the forks hold.
    encoder = TrustedRuntime()
    encoder.restore_state(image.runtime_state)
    stream = generate_requests(app, encoder, fleet.tenants, requests)

    t0 = time.perf_counter()
    results = fleet.serve(stream)
    wall_s = time.perf_counter() - t0

    valid = sum(
        1
        for (tenant, payload), result in zip(stream, results)
        if result.ok and app.check_response(
            encoder, payload, result.response
        )
    )
    return build_report(
        app_name=app_name,
        config_name=config.name,
        engine=engine,
        seed=seed,
        fleet=fleet,
        results=results,
        valid=valid,
        wall_s=wall_s,
        setup=setup,
        pool_size=pool_size,
        batch=batch,
        budget=budget,
    )


def build_report(*, app_name, config_name, engine, seed, fleet, results,
                 valid, wall_s, setup, pool_size, batch,
                 budget) -> ServeReport:
    ok = sum(1 for r in results if r.ok)
    faults = sum(1 for r in results if r.fault is not None)
    evictions = sum(1 for r in results if r.evicted)
    wall_ms = [r.wall_s * 1e3 for r in results]
    cycles = [r.cycles for r in results]
    return ServeReport(
        app=app_name,
        config=config_name,
        engine=engine,
        seed=seed,
        tenants=fleet.tenants,
        pool_size=pool_size,
        batch=batch,
        budget=budget,
        requests=len(results),
        ok=ok,
        valid=valid,
        faults=faults,
        evictions=evictions,
        wall_s=wall_s,
        throughput_rps=len(results) / wall_s if wall_s > 0 else 0.0,
        latency_wall_ms=latency_summary(wall_ms),
        latency_cycles=latency_summary(cycles),
        total_cycles=sum(cycles),
        total_instructions=sum(r.instructions for r in results),
        total_checks=sum(r.checks for r in results),
        setup=setup,
        per_tenant=fleet.counters(),
    )

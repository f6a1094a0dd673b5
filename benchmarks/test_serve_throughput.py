"""Serving-tier benchmarks: fork-vs-cold setup cost and fleet
throughput/latency under load.

Two claims are pinned here:

* **Setup amortization** — the per-request fork path (an in-place
  image reset plus the deterministic resume replay) is at least 100x
  cheaper than the cold path (compile + ConfVerify + load plus the
  app's init run) on *both* clocks: host wall time and simulated
  cycles.  Measured against an uncached build session — the object
  cache would only make the cold path look better than it is.
* **Sustained load** — the fleet pushes >=1e5 requests through >=8
  concurrent tenants with zero faults and sane latency percentiles.
  That sweep takes tens of seconds, so it is gated behind ``-m load``
  like the long fuzzing runs; a scaled-down version runs with the
  regular benchmark suite.
"""

from __future__ import annotations

import time

import pytest

from repro import OUR_MPX
from repro.build import BuildSession, use_session
from repro.serve import (
    SERVE_APPS,
    ServeInstance,
    build_app_image,
    resume_overhead_cycles,
    run_load,
)

SETUP_RATIO_FLOOR = 100.0


@pytest.mark.parametrize("app_name", ("dirserver", "classifier"))
def test_fork_setup_100x_cheaper_than_cold(app_name, table):
    """Acceptance gate: fork-path per-request setup is >=100x cheaper
    than cold compile+verify+load, in wall time AND simulated cycles."""
    app = SERVE_APPS[app_name]
    # An uncached session: the honest cold path.
    with use_session(BuildSession()):
        t0 = time.perf_counter()
        image, timings = build_app_image(app, OUR_MPX, seed=1)
        cold_wall_s = timings["build_wall_s"] + timings["load_wall_s"]
        assert time.perf_counter() - t0 >= cold_wall_s

    instance = ServeInstance(
        image.fork(), request_fd=app.request_fd,
        response_fd=app.response_fd,
    )
    resume_cycles = resume_overhead_cycles(instance)
    # Steady-state reset cost, averaged over enough samples to beat
    # timer noise.
    instance.handle_request(app.encode_request(instance.runtime, 0))
    samples = 64
    t0 = time.perf_counter()
    for _ in range(samples):
        instance.reset()
    reset_wall_s = (time.perf_counter() - t0) / samples

    wall_ratio = cold_wall_s / reset_wall_s
    cycle_ratio = (image.warmup_cycles + resume_cycles) / resume_cycles

    report = table(f"serve setup: {app_name}", ["metric", "value"])
    report.add("cold build+load wall", f"{cold_wall_s * 1e3:.1f} ms")
    report.add("fork reset wall", f"{reset_wall_s * 1e6:.1f} us")
    report.add("wall ratio", f"{wall_ratio:,.0f}x")
    report.add("cold init cycles", f"{image.warmup_cycles:,}")
    report.add("resume cycles", f"{resume_cycles:,}")
    report.add("cycle ratio", f"{cycle_ratio:,.1f}x")
    report.show()

    assert wall_ratio >= SETUP_RATIO_FLOOR
    assert cycle_ratio >= SETUP_RATIO_FLOOR


def _show_report(table, report, title):
    out = table(title, ["metric", "value"])
    out.add("requests", report.requests)
    out.add("tenants x pool", f"{len(report.tenants)} x {report.pool_size}")
    out.add("ok / valid", f"{report.ok} / {report.valid}")
    out.add("faults", report.faults)
    out.add("throughput", f"{report.throughput_rps:,.0f} req/s")
    lat = report.latency_wall_ms
    out.add("wall ms p50/p95/p99",
            f"{lat['p50']:.3f} / {lat['p95']:.3f} / {lat['p99']:.3f}")
    lat = report.latency_cycles
    out.add("cycles p50/p95/p99",
            f"{lat['p50']:,.0f} / {lat['p95']:,.0f} / {lat['p99']:,.0f}")
    out.add("total cycles", f"{report.total_cycles:,}")
    out.show()


def check_fleet_report(report, expected_requests, expected_tenants):
    assert report.requests == expected_requests
    assert report.ok == expected_requests
    assert report.valid == expected_requests
    assert report.faults == 0
    assert len(report.tenants) == expected_tenants
    # Round-robin assignment keeps tenants within one request of even.
    counts = [c["requests"] for c in report.per_tenant.values()]
    assert max(counts) - min(counts) <= 1
    for lat in (report.latency_wall_ms, report.latency_cycles):
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]


def test_fleet_throughput_smoke(table):
    """Scaled-down fleet sweep that always runs with the benchmarks."""
    report = run_load(
        "echo", OUR_MPX, tenants=8, pool_size=2, requests=2_000, seed=1
    )
    _show_report(table, report, "serve throughput (smoke, 2k reqs)")
    check_fleet_report(report, 2_000, 8)
    # batch=1 echo is perfectly deterministic per request.
    assert report.latency_cycles["p50"] == report.latency_cycles["p99"]


@pytest.mark.load
def test_fleet_sustains_100k_requests_across_8_tenants(table):
    """The acceptance-criteria sweep: >=1e5 requests, >=8 tenants,
    p50/p95/p99 on both clocks, zero faults."""
    report = run_load(
        "echo", OUR_MPX, tenants=8, pool_size=2, requests=100_000,
        seed=1,
    )
    _show_report(table, report, "serve throughput (load, 100k reqs)")
    check_fleet_report(report, 100_000, 8)
    assert report.throughput_rps > 0
    assert report.setup["wall_speedup"] >= SETUP_RATIO_FLOOR

"""The four workloads: ``compile``, ``spec``, ``serve`` and ``profile``.

Every workload has the same shape: a set-up, repeated so ``setup_s``
is a median (see ``timed_setup``); a measurement that lasts about
``seconds``; output checks against known answers; and, with tracing
on, a second measurement of the same length with spans recorded, from
which the per-layer numbers and the tracing overhead are derived.

All workloads use the program's default engine (``load()`` and
``MachineImage.fork`` without an ``engine`` argument), so a change of
the default is measured everywhere.  Nothing runs in another thread or
process.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.spec import SPEC_NAMES, kernel_source
from repro.config import BASE, OUR_MPX, OUR_SEG
from repro.link.loader import load
from repro.obs.blockprof import attach_block_profiler
from repro.runtime.trusted import TrustedRuntime
from repro.serve.apps import SERVE_APPS
from repro.serve.image import warm_image
from repro.serve.loadgen import percentile
from repro.serve.scheduler import Fleet, _Pending

from .common import (
    OP_ERRORS,
    BuildCounts,
    HostSpeed,
    NullTracer,
    Outcome,
    Tracer,
    build,
    cold_session,
    geomean,
    peak_rss_mb,
    tail_mean,
    timed_setup,
)

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: The build configurations, by the label spans and messages use.
#: ``OurMPX-agg`` turns on the post-codegen check optimizer, the only
#: config in which ``opt.checkopt`` rewrites anything.
CONFIGS = {
    "Base": BASE,
    "OurMPX": OUR_MPX,
    "OurSeg": OUR_SEG,
    "OurMPX-agg": OUR_MPX.variant(checkopt="aggressive"),
}
COMPILE_CONFIGS = ("OurMPX", "OurSeg", "OurMPX-agg")
SPEC_CONFIGS = ("Base", "OurMPX", "OurSeg")
SERVE_SOURCES = ("webserver", "dirserver", "classifier")

#: The open-loop rate (requests per second) and the share of the run it
#: gets; saturated bursts take the rest.
RATE = 200.0
OPEN_SHARE = 0.5
#: The serving tier's latency limit: p99 at most this, with a faulted or
#: invalid response counting as over it.
LATENCY_LIMIT_MS = 25.0

#: Unprofiled runs per kernel in ``profile``; their median is the
#: denominator of ``blockprof.overhead_x``.
REFERENCE_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("code_insns", "count"),
)

PER_LAYER = (
    ("minic.parse_ms", "ms"),
    ("minic.src_kb_per_s", "KB/s"),
    ("sema.ms", "ms"),
    ("lower.ms", "ms"),
    ("lower.ir_insns", "count"),
    ("opt.ms", "ms"),
    ("opt.ir_insns", "count"),
    ("opt.ir_shrink", "ratio"),
    ("codegen.ms", "ms"),
    ("codegen.insns", "count"),
    ("codegen.check_sites", "count"),
    ("checkopt.ms", "ms"),
    ("checkopt.sites_elided", "count"),
    ("link.ms", "ms"),
    ("verify.ms", "ms"),
    ("verify.accepted", "count"),
    ("load.ms", "ms"),
    ("machine.run_ms.Base", "ms"),
    ("machine.run_ms.OurMPX", "ms"),
    ("machine.run_ms.OurSeg", "ms"),
    ("machine.minsns_per_s", "Minsn/s"),
    ("machine.instructions", "count"),
    ("machine.bnd_checks", "count"),
    ("machine.cfi_checks", "count"),
    ("machine.t_calls", "count"),
    ("machine.mpx_overhead_pct", "%"),
    ("machine.seg_overhead_pct", "%"),
    ("serve.fork_ms", "ms"),
    ("serve.reset_us", "us"),
    ("serve.insns_per_req", "count"),
    ("serve.cycles_per_req", "count"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.p99_ms", "ms"),
    ("serve.over_limit_pct", "%"),
    ("blockprof.overhead_x", "x"),
    ("blockprof.blocks", "count"),
    ("blockprof.attach_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.cal_ms", "ms"),
    ("error_rate", "ratio"),
)

#: Units scaled by host speed (see HostSpeed): times and rates.
TIME_UNITS = {"s", "ms", "us"}
RATE_UNITS = {"1/s", "KB/s", "Minsn/s"}


@dataclass(frozen=True)
class Size:
    """How much each workload builds and runs."""

    kernels: tuple[str, ...]
    serve_sources: tuple[str, ...]
    profile_kernels: tuple[str, ...]
    burst: int  # requests per saturated Fleet.serve call
    setup_min_s: float  # set-up is repeated for at least this long


FULL = Size(SPEC_NAMES, SERVE_SOURCES, ("mcf", "libquantum"), burst=200,
            setup_min_s=2.0)
#: For the benchmark's own tests: seconds per workload, not minutes.
TINY = Size(("gobmk", "gcc"), ("dirserver",), ("gobmk",), burst=8,
            setup_min_s=0.0)


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size = FULL
    expected: dict = field(default_factory=dict)
    #: Test hook: applied to every serve response before it is checked.
    tamper: object = None
    host: HostSpeed = field(default_factory=HostSpeed)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Operation-based workloads (compile, spec, profile)


def run_passes(ctx: Ctx, keys, op, rng: random.Random, *,
               seconds: float | None = None, passes: int = 1) -> dict:
    """Whole passes over ``keys`` in a seeded order until ``seconds``
    (default ``ctx.seconds``) have elapsed and at least ``passes`` are
    done.  ``op(key)`` returns its wall time, which is kept as on the
    reference host (see ``HostSpeed``).  The heap is collected after
    every operation, outside its timing: the machines it leaves behind
    hold reference cycles, and otherwise a later operation would pay to
    collect them, or not, depending on the order."""
    samples = {key: [] for key in keys}
    end = time.perf_counter() + (ctx.seconds if seconds is None else seconds)
    for done in itertools.count(1):
        order = list(keys)
        rng.shuffle(order)
        for key in order:
            elapsed = op(key)
            samples[key].append(elapsed * ctx.host.sample_after(elapsed))
            gc.collect()
        if done >= passes and time.perf_counter() >= end:
            return samples


def op_summary(samples: dict) -> dict:
    """Per-key medians -> the operation view of end-to-end metrics."""
    per_key = [statistics.median(v) for v in samples.values()]
    return {
        "pass_s": sum(per_key),
        "ops_per_s": len(per_key) / sum(per_key),
        "p50_ms": 1e3 * percentile(per_key, 50),
        "tail_ms": 1e3 * tail_mean(per_key),
    }


def calibrated(value: float, unit: str, host: HostSpeed) -> float:
    """A traced run's time or rate, as on the reference host."""
    if unit in TIME_UNITS:
        return value * host.scale()
    if unit in RATE_UNITS:
        return value / host.scale()
    return value


def put_end_to_end(out: Outcome, setup_s: float, summary: dict,
                   code_insns: int) -> None:
    """``setup_s`` and the summary's times are already as on the
    reference host."""
    values = dict(summary, setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                  code_insns=code_insns)
    for name, unit in END_TO_END:
        out.put(name, values[name], unit)


class Layers:
    """Accumulates per-layer counts from the traced measurement."""

    def __init__(self):
        self.build = BuildCounts()
        self.built: set = set()
        self.machine = {"instructions": 0, "bnd_checks": 0,
                        "cfi_checks": 0, "t_calls": 0}
        self.ran: set = set()
        self.values: dict[str, float] = {}

    def build_counts(self, key):
        """A BuildCounts for the first traced build of ``key`` (so the
        totals count each distinct build once), else None."""
        if key in self.built:
            return None
        self.built.add(key)
        return self.build

    def add_run(self, key, stats) -> None:
        if key in self.ran:
            return
        self.ran.add(key)
        for name in self.machine:
            self.machine[name] += getattr(stats, name)

    def emit(self, out: Outcome, tracer: Tracer, host: HostSpeed) -> None:
        b = self.build
        times = tracer.layer_times()

        def ms(name: str) -> float:
            total, calls = times.get(name, (0.0, 0))
            return 1e3 * total / calls if calls else 0.0

        parse_s = times.get("minic.parse", (0.0, 0))[0]
        run_s = sum(t for name, (t, _n) in times.items()
                    if name.startswith("machine.run."))
        counts = tracer.counts
        values = {
            "minic.parse_ms": ms("minic.parse"),
            "minic.src_kb_per_s": (
                counts.get("minic.src_bytes", 0) / 1024 / parse_s
                if parse_s else 0.0
            ),
            "sema.ms": ms("sema"),
            "lower.ms": ms("lower"),
            "lower.ir_insns": b.lower_ir,
            "opt.ms": ms("opt"),
            "opt.ir_insns": b.opt_ir,
            "opt.ir_shrink": b.opt_ir / b.lower_ir if b.lower_ir else 0.0,
            "codegen.ms": ms("codegen"),
            "codegen.insns": b.codegen_insns,
            "codegen.check_sites": b.codegen_sites,
            "checkopt.ms": ms("checkopt"),
            "checkopt.sites_elided": b.codegen_sites - b.checkopt_sites,
            "link.ms": ms("link"),
            "verify.ms": ms("verify"),
            "verify.accepted": b.accepted,
            "load.ms": ms("load"),
            "machine.run_ms.Base": ms("machine.run.Base"),
            "machine.run_ms.OurMPX": ms("machine.run.OurMPX"),
            "machine.run_ms.OurSeg": ms("machine.run.OurSeg"),
            "machine.minsns_per_s": (
                counts.get("machine.instructions", 0) / run_s / 1e6
                if run_s else 0.0
            ),
            "serve.fork_ms": ms("serve.fork"),
            "serve.reset_us": 1e3 * ms("serve.reset"),
            "blockprof.attach_ms": ms("blockprof.attach"),
        }
        for name, value in self.machine.items():
            values[f"machine.{name}"] = value
        values.update(self.values)
        values["error_rate"] = out.failed / max(1, out.attempted)
        for name, unit in PER_LAYER:
            out.put(name, calibrated(values.get(name, 0.0), unit, host),
                    unit)
        # Raw, so that any time above can be turned back into wall time.
        out.put("host.cal_ms", host.median_ms(), "ms")


def measure_twice(ctx: Ctx, measure, layers: Layers, tracer):
    """The untraced measurement; with tracing on, also the traced one,
    whose counts go to ``layers``.  ``measure(tracer, record, rng)``
    returns a summary; ``record`` is None when untraced.  Returns
    (untraced summary, traced summary or None)."""
    # Set-up garbage (three builds' worth of ASTs and IR) is collected
    # here, so no measurement pays for it.
    gc.collect()
    plain = measure(NullTracer(), None, random.Random(ctx.seed))
    if not ctx.trace:
        return plain, None
    gc.collect()
    traced = measure(tracer, layers, random.Random(ctx.seed))
    return plain, traced


def finish(ctx: Ctx, out: Outcome, setup_s: float, plain: dict,
           traced: dict | None, code_insns: int, layers: Layers,
           tracer) -> Outcome:
    if not ctx.trace:
        put_end_to_end(out, setup_s, plain, code_insns)
        return out
    layers.values["trace.overhead_pct"] = (
        100.0 * (traced["pass_s"] / plain["pass_s"] - 1.0)
    )
    layers.emit(out, tracer, ctx.host)
    return out


def run_compile(ctx: Ctx, out: Outcome, tracer) -> Outcome:
    """Cold builds, parse through ConfVerify; nothing is executed."""
    sources = {name: kernel_source(name, 1) for name in ctx.size.kernels}
    for name in ctx.size.serve_sources:
        sources[name] = SERVE_APPS[name].source
    keys = [(name, cfg) for name in sources for cfg in COMPILE_CONFIGS]
    warm_source = SERVE_APPS["echo"].source

    def setup():
        # Pays the process's one-time lazy costs outside the timing; not
        # traced, as it is not one of the workload's builds.
        for cfg in COMPILE_CONFIGS:
            build(cold_session(), NullTracer(), warm_source, CONFIGS[cfg],
                  seed=ctx.seed, verify=True)

    _, setup_s = timed_setup(setup, ctx.size.setup_min_s, ctx.host)
    code: dict = {}

    def measure(tr, record, rng):
        def op(key):
            name, cfg = key
            counts = record.build_counts(key) if record else None
            t0 = time.perf_counter()
            try:
                with tr.span("build"):
                    binary = build(cold_session(), tr, sources[name],
                                   CONFIGS[cfg], seed=ctx.seed, verify=True,
                                   counts=counts)
            except OP_ERRORS as exc:
                out.ok(False, f"{name}/{cfg}: {exc}")
                return time.perf_counter() - t0
            elapsed = time.perf_counter() - t0
            size = code.setdefault(key, len(binary.code))
            out.ok(size == len(binary.code),
                   f"{name}/{cfg}: code size changed between builds")
            return elapsed

        return op_summary(run_passes(ctx, keys, op, rng))

    layers = Layers()
    plain, traced = measure_twice(ctx, measure, layers, tracer)
    return finish(ctx, out, setup_s, plain, traced, sum(code.values()),
                  layers, tracer)


def build_binaries(tracer, ctx: Ctx, keys, layers: Layers) -> dict:
    session = cold_session()
    binaries = {}
    for name, cfg in keys:
        counts = layers.build_counts((name, cfg)) if tracer.enabled else None
        binaries[name, cfg] = build(
            session, tracer, kernel_source(name, 1), CONFIGS[cfg],
            seed=ctx.seed, verify=cfg != "Base", counts=counts)
    return binaries


def run_binary(tr, binary, cfg):
    with tr.span("load"):
        process = load(binary)
    with tr.span(f"machine.run.{cfg}"):
        exit_code = process.run()
    tr.count("machine.instructions", process.stats.instructions)
    return process, exit_code


def run_spec(ctx: Ctx, out: Outcome, tracer) -> Outcome:
    """Fig. 5: every kernel under Base, OurMPX and OurSeg."""
    keys = [(name, cfg) for name in ctx.size.kernels for cfg in SPEC_CONFIGS]
    layers = Layers()
    binaries, setup_s = timed_setup(
        lambda: build_binaries(tracer, ctx, keys, layers),
        ctx.size.setup_min_s, ctx.host)
    expected = ctx.expected["exit_codes"]
    cycles: dict = {}

    def measure(tr, record, rng):
        def op(key):
            name, cfg = key
            t0 = time.perf_counter()
            try:
                process, exit_code = run_binary(tr, binaries[key], cfg)
            except OP_ERRORS as exc:
                out.ok(False, f"{name}/{cfg}: {exc}")
                return time.perf_counter() - t0
            elapsed = time.perf_counter() - t0
            out.ok(exit_code == expected[name],
                   f"{name}/{cfg}: exit {exit_code}, "
                   f"expected {expected[name]}")
            seen = cycles.setdefault(key, process.wall_cycles)
            out.ok(seen == process.wall_cycles,
                   f"{name}/{cfg}: cycles changed between runs")
            if record:
                record.add_run(key, process.stats)
            return elapsed

        return op_summary(run_passes(ctx, keys, op, rng))

    plain, traced = measure_twice(ctx, measure, layers, tracer)
    if ctx.trace and all(key in cycles for key in keys):
        for cfg, metric in (("OurMPX", "mpx"), ("OurSeg", "seg")):
            ratio = geomean(cycles[(n, cfg)] / cycles[(n, "Base")]
                            for n in ctx.size.kernels)
            layers.values[f"machine.{metric}_overhead_pct"] = (
                100.0 * (ratio - 1.0))
    code_insns = sum(len(b.code) for b in binaries.values())
    return finish(ctx, out, setup_s, plain, traced, code_insns, layers,
                  tracer)


def run_profile(ctx: Ctx, out: Outcome, tracer) -> Outcome:
    """The ``repro report`` path: OurMPX runs under the block profiler."""
    keys = [(name, "OurMPX") for name in ctx.size.profile_kernels]
    layers = Layers()
    binaries, setup_s = timed_setup(
        lambda: build_binaries(tracer, ctx, keys, layers),
        ctx.size.setup_min_s, ctx.host)
    expected = ctx.expected["exit_codes"]

    # Unprofiled reference runs, checked and timed like the profiled
    # ones: the cycle totals the profile must add up to, and the
    # denominator of blockprof.overhead_x.
    cycles: dict = {}

    def reference_op(key):
        name = key[0]
        t0 = time.perf_counter()
        try:
            process, exit_code = run_binary(NullTracer(), binaries[key],
                                            "OurMPX")
        except OP_ERRORS as exc:
            out.ok(False, f"{name}: unprofiled: {exc}")
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        out.ok(exit_code == expected[name],
               f"{name}: unprofiled exit {exit_code}")
        seen = cycles.setdefault(key, process.wall_cycles)
        out.ok(seen == process.wall_cycles,
               f"{name}: cycles changed between runs")
        return elapsed

    gc.collect()
    reference = run_passes(ctx, keys, reference_op,
                           random.Random(ctx.seed), seconds=0,
                           passes=REFERENCE_PASSES)
    blocks: dict = {}

    def measure(tr, record, rng):
        def op(key):
            name = key[0]
            t0 = time.perf_counter()
            try:
                with tr.span("load"):
                    process = load(binaries[key])
                with tr.span("blockprof.attach"):
                    prof = attach_block_profiler(process.machine)
                with tr.span("machine.run.OurMPX"):
                    exit_code = process.run()
                tr.count("machine.instructions", process.stats.instructions)
            except OP_ERRORS as exc:
                out.ok(False, f"{name}: {exc}")
                return time.perf_counter() - t0
            elapsed = time.perf_counter() - t0
            stats = process.stats
            summary = prof.check_summary()
            out.ok(exit_code == expected[name], f"{name}: exit {exit_code}")
            out.ok(sum(prof.cycles.values()) == cycles.get(key),
                   f"{name}: block cycles != unprofiled wall_cycles")
            out.ok(summary["bnd"]["count"] == stats.bnd_checks
                   and summary["cfi"]["count"] == stats.cfi_checks,
                   f"{name}: check-site counts != Stats")
            blocks[key] = len(prof.cycles)
            if record:
                record.add_run(key, stats)
            return elapsed

        return op_summary(run_passes(ctx, keys, op, rng))

    plain, traced = measure_twice(ctx, measure, layers, tracer)
    if ctx.trace:
        unprofiled = op_summary(reference)["pass_s"]
        layers.values["blockprof.overhead_x"] = plain["pass_s"] / unprofiled
        layers.values["blockprof.blocks"] = sum(blocks.values())
    code_insns = sum(len(b.code) for b in binaries.values())
    return finish(ctx, out, setup_s, plain, traced, code_insns, layers,
                  tracer)


# ---------------------------------------------------------------------------
# serve: a dirserver fleet driven open-loop, then saturated


def poisson_arrivals(rng: random.Random, rate: float, seconds: float,
                     tenants: list[str], encode) -> list:
    """(due offset, tenant, payload) for a Poisson stream; payloads are
    encoded up front so the client's own work is not timed."""
    arrivals = []
    t = rng.expovariate(rate)
    while t < seconds:
        index = rng.randrange(1 << 20)
        arrivals.append((t, tenants[len(arrivals) % len(tenants)],
                         encode(index)))
        t += rng.expovariate(rate)
    return arrivals


async def _open_loop(fleet: Fleet, arrivals: list):
    """Submit each request at its due time through the tenant pools'
    own ``submit``/``worker`` coroutines.  ``Fleet.serve`` cannot pace
    arrivals; this can.  Each request's ``enqueued`` stamp is its due
    time, so ``RequestResult.wall_s`` counts the wait a stall imposes
    on later requests."""
    loop = asyncio.get_running_loop()
    failure = loop.create_future()

    def surface(task):
        if not task.cancelled() and task.exception() and not failure.done():
            failure.set_exception(task.exception())

    workers = []
    for pool in fleet.pools.values():
        for instance in pool.instances:
            worker = asyncio.ensure_future(pool.worker(instance))
            worker.add_done_callback(surface)
            workers.append(worker)
    pending, lags = [], []
    start = time.perf_counter()
    try:
        for index, (offset, tenant, payload) in enumerate(arrivals):
            due = start + offset
            # Yield in a loop until the due time rather than sleep: the
            # event loop's timer wake-ups are only good to a millisecond
            # or two on a virtual machine, about the service time being
            # measured.  Ready workers run between the yields.
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            lags.append(time.perf_counter() - due)
            item = _Pending(index=index, payload=payload, enqueued=due)
            pending.append(item)
            await fleet.pools[tenant].submit(item, failure)
        joined = asyncio.ensure_future(asyncio.gather(
            *(pool.queue.join() for pool in fleet.pools.values())))
        await asyncio.wait((joined, failure),
                           return_when=asyncio.FIRST_COMPLETED)
        if failure.done():
            joined.cancel()
            failure.result()  # re-raises the worker's exception
    finally:
        for worker in workers:
            worker.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
    return [item.result for item in pending], lags


def run_serve(ctx: Ctx, out: Outcome, tracer) -> Outcome:
    """The OpenLDAP analogue: a 2-tenant OurMPX dirserver fleet.

    Every phase gets a fresh ``Fleet`` from the one image, as each
    ``repro serve`` invocation does: a fleet's queues bind to the event
    loop of its first ``serve``, so one fleet cannot serve from two
    ``asyncio.run`` calls.  The forks are made outside the timing."""
    app = SERVE_APPS["dirserver"]
    layers = Layers()
    # Request ids for spans (traced runs only), given to each request
    # where it is created: id(payload) -> (request id, payload).  Holding
    # the payload keeps it alive, so its id is never reused for another.
    requests: dict[int, tuple[int, bytes]] = {}

    def rid_of(data: bytes) -> int | None:
        rid, payload = requests.get(id(data), (None, None))
        return rid if payload is data else None

    def new_fleet(image, tr) -> Fleet:
        fleet = Fleet(image, 2, pool_size=2, request_fd=app.request_fd,
                      response_fd=app.response_fd)
        for pool in fleet.pools.values():
            for instance in pool.instances:
                tr.wrap(instance, "handle_request", "serve.handle_request",
                        rid_of=rid_of)
                tr.wrap(instance, "reset", "serve.reset")
        return fleet

    def setup():
        counts = layers.build_counts("dirserver") if tracer.enabled else None
        binary = build(cold_session(), tracer, app.source, OUR_MPX,
                       seed=ctx.seed, verify=True, counts=counts)
        runtime = TrustedRuntime()
        app.setup(runtime)
        with tracer.span("load"):
            process = load(binary, runtime=runtime)
        with tracer.span("serve.warm"):
            image = warm_image(process)
        tracer.wrap(image, "fork", "serve.fork")
        encoder = TrustedRuntime()
        encoder.restore_state(image.runtime_state)
        # Pays the process's one-time lazy costs before anything is timed.
        fleet = new_fleet(image, tracer)
        fleet.serve([(tenant, app.encode_request(encoder, i))
                     for i, tenant in enumerate(fleet.tenants)])
        return binary, image, encoder

    (binary, image, encoder), setup_s = timed_setup(
        setup, ctx.size.setup_min_s, ctx.host)

    def encode(index: int) -> bytes:
        payload = app.encode_request(encoder, index)
        if tracer.enabled:
            requests[id(payload)] = (len(requests), payload)
        return payload

    def check(results, payloads, what) -> list[bool]:
        goods = []
        for result, payload in zip(results, payloads):
            response = result.response
            if ctx.tamper is not None:
                response = ctx.tamper(response)
            good = result.ok and app.check_response(encoder, payload,
                                                    response)
            out.ok(good, f"{what} request {result.index}: "
                   f"fault={result.fault}")
            goods.append(good)
        return goods

    # Each phase runs on a fresh fleet from a collected heap, so no phase
    # pays for the fleets of the one before it.
    def open_loop(tr, rng, seconds):
        gc.collect()
        fleet = new_fleet(image, tr)
        arrivals = poisson_arrivals(rng, RATE, seconds, fleet.tenants,
                                    encode)
        t0 = time.perf_counter()
        with tr.span("loadgen.open_loop"):
            results, lags = asyncio.run(_open_loop(fleet, arrivals))
        ctx.host.sample_after(time.perf_counter() - t0)
        goods = check(results, [a[2] for a in arrivals], "open loop")
        counters = [p.counters for p in fleet.pools.values()]
        return counters, results, goods, lags

    def burst(tr, rng) -> tuple[float, float, float]:
        """One saturated burst: (requests/s, median and tail service
        ms), as on the reference host."""
        gc.collect()
        fleet = new_fleet(image, tr)
        stream = [(fleet.tenants[i % 2], encode(rng.randrange(1 << 20)))
                  for i in range(ctx.size.burst)]
        t0 = time.perf_counter()
        with tr.span("serve.fleet"):
            results = fleet.serve(stream)
        elapsed = time.perf_counter() - t0
        scale = ctx.host.sample_after(elapsed)
        check(results, [p for _t, p in stream], "burst")
        service = [1e3 * (r.wall_s - r.queue_s) for r in results]
        return (len(stream) / (elapsed * scale),
                scale * percentile(service, 50), scale * tail_mean(service))

    def measure(tr, record, rng):
        counters, lo, goods, lags = open_loop(tr, rng,
                                              OPEN_SHARE * ctx.seconds)
        latency = [1e3 * r.wall_s for r in lo]
        # A faulted or invalid response counts as over the limit.
        over = sum(1 for ms, good in zip(latency, goods)
                   if not good or ms > LATENCY_LIMIT_MS)
        service = [1e3 * (r.wall_s - r.queue_s) for r in lo]
        if record:
            record.values.update({
                "serve.insns_per_req": statistics.fmean(
                    r.instructions for r in lo),
                "serve.cycles_per_req": statistics.fmean(
                    r.cycles for r in lo),
                "serve.queue_p99_ms": 1e3 * percentile(
                    [r.queue_s for r in lo], 99),
                "serve.latency_p50_ms": percentile(latency, 50),
                "serve.service_p50_ms": percentile(service, 50),
                "serve.service_p99_ms": percentile(service, 99),
                "serve.batches": sum(c.batches for c in counters),
                "serve.max_queue_depth": max(
                    c.max_queue_depth for c in counters),
                "serve.p99_ms": percentile(latency, 99),
                "serve.over_limit_pct": 100.0 * over / len(lo),
                "loadgen.lag_p99_ms": 1e3 * percentile(lags, 99),
            })
        # Saturated bursts through Fleet.serve, exactly what
        # ``repro serve`` runs, until the run's time is used.  The
        # end-to-end service times come from the bursts, not the open
        # loop: the host switches between a fast and a slow mode from one
        # second to the next, and over ten runs the median of per-burst
        # figures (each scaled by its own host samples) spread by 0.04
        # (p50) and 0.05 (tail), where the open loop's spread by 0.12.
        bursts = []
        end = time.perf_counter() + (1 - OPEN_SHARE) * ctx.seconds
        while not bursts or time.perf_counter() < end:
            bursts.append(burst(tr, rng))
        rates, p50s, tails = zip(*bursts)
        ops_per_s = statistics.median(rates)
        return {
            "pass_s": ctx.size.burst / ops_per_s,
            "ops_per_s": ops_per_s,
            "p50_ms": statistics.median(p50s),
            "tail_ms": statistics.median(tails),
        }

    plain, traced = measure_twice(ctx, measure, layers, tracer)
    return finish(ctx, out, setup_s, plain, traced, len(binary.code),
                  layers, tracer)


RUNNERS = {
    "compile": run_compile,
    "spec": run_spec,
    "serve": run_serve,
    "profile": run_profile,
}
WORKLOADS = tuple(RUNNERS)


def run(ctx: Ctx) -> tuple[Outcome, Tracer | NullTracer]:
    tracer = Tracer() if ctx.trace else NullTracer()
    out = Outcome()
    RUNNERS[ctx.workload](ctx, out, tracer)
    return out, tracer

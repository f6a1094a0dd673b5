"""Shared pieces of the benchmark: the span tracer, summary statistics,
the staged build used by every workload, and the run record.

Spans are recorded only here, in the benchmark's own code, around calls
into the program's public layer functions; nothing inside ``src/`` is
instrumented.  With tracing off every ``span()`` is a shared no-op
context, so the untraced run pays one attribute lookup per layer call.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.backend.isa import check_kind
from repro.build.session import BuildSession
from repro.errors import MachineFault, ReproError
from repro.verifier.verify import verify_binary

#: Failures an operation may raise that count against ``error_rate``
#: instead of crashing the run.  Anything else is a benchmark bug.
OP_ERRORS = (ReproError, MachineFault)


# ---------------------------------------------------------------------------
# Tracing


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None


class NullTracer:
    """Tracing off: every span is the same reusable no-op context."""

    enabled = False
    _noop = contextlib.nullcontext()

    def span(self, name: str, rid: int | None = None):
        return self._noop

    def wrap(self, obj, method: str, name: str, rid_of=None) -> None:
        pass

    def count(self, name: str, n: int) -> None:
        pass


class Tracer:
    """In-memory span recorder: (name, start, end, parent, request id).

    The parent is the innermost open span.  Layer calls never await, so
    the stack discipline holds even inside the serving tier's asyncio
    workers.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rid: int | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(name, start, end, parent, rid)

    def count(self, name: str, n: int) -> None:
        """Work done at a layer boundary, next to the span timing it."""
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, obj, method: str, name: str, rid_of=None) -> None:
        """Shadow ``obj.method`` with a spanned call, for layer calls the
        program makes on the benchmark's behalf (pool workers call
        ``handle_request``/``reset``; ``TenantPool`` calls ``fork``).
        ``rid_of`` maps the first argument to a request id."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            rid = rid_of(args[0]) if rid_of is not None and args else None
            with self.span(name, rid):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    def layer_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls).  Self time is a span's
        duration minus what its children cover; children of one span
        never overlap (single host thread, no awaits inside a layer)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            acc = out.setdefault(span.name, [0.0, 0])
            acc[0] += span.end - span.start - child[i]
            acc[1] += 1
        return {name: (t, n) for name, (t, n) in out.items()}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


# ---------------------------------------------------------------------------
# Statistics


def tail_mean(values) -> float:
    """Mean of the slowest tenth of ``values`` (at least one): a tail
    statistic that, unlike a single high percentile, does not rest on
    one sample when there are few."""
    ordered = sorted(values, reverse=True)
    top = ordered[:max(1, round(len(ordered) / 10))]
    return statistics.fmean(top)


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Host speed


class HostSpeed:
    """How fast this host runs Python during a run.

    The shared machine this benchmark was written on changes speed by up
    to 1.6x from one minute to the next.  After every timed step the run
    times a fixed reference loop for about 2% as long as the step took;
    the step's time is then scaled to the time on a host where the loop
    takes ``REF_MS``, by the samples taken right after that step (the
    host's speed drifts within a run, too).  ``scale()``, from all of a
    run's samples so far, scales the open loop's service times and the
    traced run's per-layer times.  The loop is
    integer arithmetic in a few cache lines, so its own cost does not
    depend on the program's heap or cache state (references that walked
    or built a dict of objects did, and widened the spread instead of
    narrowing it).
    """

    REF_MS = 2.0
    EVERY_S = 0.1

    def __init__(self):
        self.samples: list[float] = []

    @staticmethod
    def _reference() -> int:
        total = 0
        for i in range(30_000):
            total += i * i
        return total

    def sample_after(self, seconds: float) -> float:
        """Sample in proportion to a step that just took ``seconds``;
        returns the factor that scales the step's time to the reference
        host, from these samples alone."""
        first = len(self.samples)
        for _ in range(max(1, round(seconds / self.EVERY_S))):
            t0 = time.perf_counter()
            self._reference()
            self.samples.append(time.perf_counter() - t0)
        return self.REF_MS / (1e3 * statistics.median(self.samples[first:]))

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def scale(self) -> float:
        return self.REF_MS / self.median_ms()


# ---------------------------------------------------------------------------
# The staged build


@dataclass
class BuildCounts:
    """Work done per layer by one build (traced runs only)."""

    lower_ir: int = 0
    opt_ir: int = 0
    codegen_insns: int = 0
    codegen_sites: int = 0
    checkopt_sites: int = 0
    accepted: int = 0


def _ir_size(module) -> int:
    return sum(
        len(block.instrs)
        for func in module.functions.values()
        for block in func.blocks
    )


def _isa_size(obj) -> tuple[int, int]:
    insns = sites = 0
    for func in obj.functions:
        insns += len(func.insns)
        sites += sum(1 for insn in func.insns if check_kind(insn) is not None)
    return insns, sites


class ColdBuildError(RuntimeError):
    """A build session has an object cache: a build could be a hit."""


def cold_session() -> BuildSession:
    """A session that can only build cold: no ObjectCache and one job,
    whatever ``$REPRO_CACHE_DIR``/``$REPRO_BUILD_JOBS`` say."""
    return BuildSession(cache=None, jobs=1)


def build(session: BuildSession, tracer, source: str, config, *,
          seed: int, verify: bool, counts: BuildCounts | None = None):
    """parse -> sema -> lower -> opt -> codegen -> checkopt -> link
    (-> ConfVerify), each stage a separate public call so each is its
    own span.  ``counts`` (traced runs) receives the per-layer sizes."""
    if session.cache is not None:
        raise ColdBuildError("build session has an ObjectCache attached")
    span = tracer.span
    tracer.count("minic.src_bytes", len(source))
    with span("minic.parse"):
        result = session.stage_parse(source)
    with span("sema"):
        result = session.stage_sema(result, config)
    with span("lower"):
        result = session.stage_lower(result, config)
    if counts is not None:
        counts.lower_ir += _ir_size(result.value)
    with span("opt"):
        result = session.stage_opt(result, config)
    if counts is not None:
        counts.opt_ir += _ir_size(result.value)
    with span("codegen"):
        result = session.stage_codegen(result, config)
    if counts is not None:
        insns, sites = _isa_size(result.value)
        counts.codegen_insns += insns
        counts.codegen_sites += sites
    with span("checkopt"):
        result = session.stage_checkopt(result, config)
    if counts is not None:
        counts.checkopt_sites += _isa_size(result.value)[1]
    with span("link"):
        binary = session.link_units(result.value, seed=seed)
    if verify:
        with span("verify"):
            verify_binary(binary)
    if counts is not None:
        counts.accepted += int(verify)
    return binary


# ---------------------------------------------------------------------------
# Run records


@dataclass
class Outcome:
    """What one run measured: operation tallies plus named metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def ok(self, good: bool, what: str) -> None:
        """Count one checked output; ``what`` describes a failure."""
        self.attempted += 1
        if not good:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def record(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 40


def timed_setup(setup, min_s: float, host: HostSpeed):
    """Run ``setup()`` at least ``SETUP_MIN_REPS`` times and until
    ``min_s`` seconds have passed (at most ``SETUP_MAX_REPS`` times), so
    a short set-up gets more samples than a long one.  Each rep starts
    from a collected heap so no rep pays for the garbage of the one
    before.  Returns (last result, median seconds as on the reference
    host)."""
    times = []
    result = None
    while (len(times) < SETUP_MIN_REPS
           or (sum(times) < min_s and len(times) < SETUP_MAX_REPS)):
        gc.collect()
        t0 = time.perf_counter()
        result = setup()
        elapsed = time.perf_counter() - t0
        times.append(elapsed * host.sample_after(elapsed))
    return result, statistics.median(times)

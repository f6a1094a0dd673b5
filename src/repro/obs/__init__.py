"""``repro.obs`` — unified tracing, metrics, and profiling.

One measurement layer for the whole compile→verify→execute pipeline:

* :mod:`repro.obs.events` — the thread-safe :class:`Registry`, span
  context managers, activation (:func:`events.use` / ``activate``);
* :mod:`repro.obs.metrics` — labelled counters and histograms;
* :mod:`repro.obs.trace` — Chrome-trace/Perfetto JSON export (wall-time
  compiler spans + simulated-cycle machine spans + counter tracks);
* :mod:`repro.obs.export` — JSON and human-readable table renderers;
* :mod:`repro.obs.blockprof` — basic-block/edge profiling, per-site
  check-overhead attribution, flamegraph export;
* :mod:`repro.obs.bench_store` — ``BENCH_*.json`` benchmark
  trajectories and their exact diff.

Observability is opt-in: while no registry is active every
instrumentation site is a null-object no-op, and activating one never
changes emitted code or simulated cycle counts.  See
docs/OBSERVABILITY.md for naming conventions and usage.
"""

from .blockprof import (
    BlockProfiler,
    attach_block_profiler,
    detach_block_profiler,
    write_flamegraph,
)
from .events import (
    CYCLES,
    WALL,
    CounterSample,
    Registry,
    Span,
    activate,
    active,
    counter,
    deactivate,
    histogram,
    span,
    use,
)
from .metrics import Counter, Histogram
from .trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "Registry",
    "Span",
    "CounterSample",
    "Counter",
    "Histogram",
    "WALL",
    "CYCLES",
    "active",
    "activate",
    "deactivate",
    "use",
    "span",
    "counter",
    "histogram",
    "to_chrome_trace",
    "write_chrome_trace",
    "BlockProfiler",
    "attach_block_profiler",
    "detach_block_profiler",
    "write_flamegraph",
]

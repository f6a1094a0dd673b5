"""Execution-engine perf baseline: the `bench --json` anchor.

Five claims are pinned here:

* the predecoded engine and the reference engine report **identical**
  simulated cycles/instructions/checks on the mcf kernel under every
  configuration (the optimizations are observably invisible);
* the per-config cycle records stay in the neighborhood of the stored
  `data/bench_baseline.json` snapshot, so a future change that silently
  shifts the Figure 5 cost model shows up as a benchmark failure rather
  than as quietly different paper numbers.  Simulated cycles are
  deterministic, so the tolerance (±25%) exists only to admit *intended*
  codegen/cost-model changes — refresh the snapshot when you make one;
* the predecoded engine's fused-block hot loop actually earns its keep:
  ≥3× cycles per wall-second over the reference engine on the mcf
  kernel, measured interleaved so host noise hits both engines alike.
  Stepping its one-instruction blocks instead of traces (under a
  no-op step hook) reads only ~1.7×, so a silent fall back to it
  fails the gate;
* multi-thread schedules run those fused blocks too: ≥2.5× over the
  reference engine on merklefs (the Figure 8 workload) at 4 threads
  under OurMPX.  Stepping every instruction (under a no-op step hook)
  reads only ~2.0×, so a fall back to it fails the gate;
* the block profiler rides that hot loop: a profiled run costs at most
  1.6× an unprofiled one on mcf and 1.75× on libquantum.
  Per-instruction ``on_step`` accounting costs ~5×, so a silent fall
  back to it fails the gate.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.apps.merklefs import merklefs_source
from repro.apps.spec import kernel_source
from repro.compiler import compile_source
from repro.config import ALL_CONFIGS
from repro.link.loader import load
from repro.obs.blockprof import attach_block_profiler
from repro.runtime.trusted import TrustedRuntime

BASELINE_PATH = Path(__file__).parent / "data" / "bench_baseline.json"
SEED = 1

_CACHE: dict[str, dict[str, dict]] = {}


def bench_records(engine: str) -> dict[str, dict]:
    """Per-config {cycles, instructions} for the mcf kernel."""
    if engine in _CACHE:
        return _CACHE[engine]
    source = kernel_source("mcf", scale=1)
    records = {}
    for name, config in ALL_CONFIGS.items():
        binary = compile_source(source, config, seed=SEED)
        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        process.run()
        records[name] = {
            "cycles": process.wall_cycles,
            "instructions": process.stats.instructions,
            "bnd": process.stats.bnd_checks,
            "cfi": process.stats.cfi_checks,
        }
    _CACHE[engine] = records
    return records


def test_engines_report_identical_cycles(benchmark):
    fast = benchmark.pedantic(
        bench_records, args=("predecoded",), rounds=1, iterations=1
    )
    reference = bench_records("reference")
    assert fast == reference


def best_rates(source: str) -> dict[str, float]:
    """Each engine's best cycles-per-wall-second on ``source`` under
    OurMPX (check-heavy, the config the paper's overhead story is
    about), measured interleaved best-of-N so scheduler noise cannot
    bias one engine."""
    binary = compile_source(source, ALL_CONFIGS["OurMPX"], seed=SEED)

    def run(engine):
        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        start = time.perf_counter()
        process.run()
        elapsed = time.perf_counter() - start
        return process.wall_cycles / elapsed

    # Warm both paths (predecoded pays block fusion on first touch).
    run("predecoded")
    run("reference")
    best = {"predecoded": 0.0, "reference": 0.0}
    for _ in range(4):
        for engine in best:
            best[engine] = max(best[engine], run(engine))
    return best


def assert_speedup(best: dict[str, float], minimum: float) -> None:
    speedup = best["predecoded"] / best["reference"]
    assert speedup >= minimum, (
        f"predecoded {best['predecoded']:.3e} vs reference "
        f"{best['reference']:.3e} cycles/s — only {speedup:.2f}x"
    )


def test_predecoded_speedup_over_reference():
    """The predecoded engine must deliver ≥3× cycles-per-wall-second
    over the reference engine on a fig5 app."""
    assert_speedup(best_rates(kernel_source("mcf", scale=1)), 3.0)


def test_multithread_speedup_over_reference():
    """Multi-thread quanta run fused blocks too: ≥2.5× over the
    reference engine on the Figure 8 workload at 4 threads."""
    assert_speedup(best_rates(merklefs_source(4)), 2.5)


def profiled_ratio(kernel: str) -> float:
    """Best-of-N profiled/unprofiled wall-time ratio on ``kernel``
    under OurMPX, measured interleaved like the speedup gates above."""
    source = kernel_source(kernel, scale=1)
    binary = compile_source(source, ALL_CONFIGS["OurMPX"], seed=SEED)

    def run(profiled):
        process = load(binary, runtime=TrustedRuntime())
        if profiled:
            attach_block_profiler(process.machine)
        start = time.perf_counter()
        process.run()
        return time.perf_counter() - start

    # Warm both paths (the first run of a binary pays block fusion).
    run(False)
    run(True)
    best = {False: float("inf"), True: float("inf")}
    for _ in range(4):
        for profiled in best:
            best[profiled] = min(best[profiled], run(profiled))
    return best[True] / best[False]


@pytest.mark.parametrize(
    "kernel, bound", [("mcf", 1.6), ("libquantum", 1.75)]
)
def test_profiled_run_stays_on_fused_path(kernel, bound):
    """A block-profiled run walks the unprofiled run's traces, and the
    trace that reaches a sample point runs whole too, so it must stay
    within ``bound`` times the wall time of an unprofiled one.  Three
    runs of this measurement on a 2-vCPU host read mcf 1.27-1.29x and
    libquantum 1.35-1.40x (stepping the trace that crossed a sample
    point read 1.48x and 1.64x); the bounds leave 25% over the highest
    reading for shared runners."""
    ratio = profiled_ratio(kernel)
    assert ratio <= bound, f"profiled/unprofiled {ratio:.2f}x > {bound}x"


def test_cycles_match_stored_baseline():
    with open(BASELINE_PATH) as handle:
        baseline = {r["config"]: r for r in json.load(handle)["records"]}
    current = bench_records("predecoded")
    assert set(current) == set(baseline)
    for name, record in current.items():
        expected = baseline[name]["cycles"]
        assert record["cycles"] == pytest.approx(expected, rel=0.25), (
            f"{name}: cycles {record['cycles']} drifted >25% from the "
            f"stored baseline {expected}; if the cost model or codegen "
            "changed intentionally, regenerate benchmarks/data/"
            "bench_baseline.json (see its _meta.generate)"
        )
        assert record["bnd"] == baseline[name]["checks"]["bnd"]
        assert record["cfi"] == baseline[name]["checks"]["cfi"]

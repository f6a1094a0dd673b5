#!/bin/sh
# End-to-end smoke test: compile and run the quickstart program under
# OurMPX with tracing + stats on, then assert the emitted Chrome trace
# is valid JSON containing both compile-stage (wall) and machine
# (cycle) spans; then sanity-check `bench --json` and assert the
# predecoded and reference execution engines report identical cycles,
# on the quickstart, on a 4-thread merklefs run and on the libquantum
# and mcf kernels.  Later steps gate the cache, a `build --link` binary
# file, the fuzzers, profiler (a profiled libquantum's counter samples
# on both engines too) and serving tier, diff fresh trajectory
# records against BENCH_seed.json exactly, and regenerate the seed and
# `cmp` it with the committed file.
# Run from the repo root: sh scripts/smoke.sh
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
SRC="$WORK/quickstart.mc"
TRACE="$WORK/trace.json"

# The quickstart's FIXED source already embeds the T prototypes, so the
# CLI will not prepend them a second time.
python - "$SRC" <<'PY'
import sys

from examples.quickstart import FIXED

with open(sys.argv[1], "w") as handle:
    handle.write(FIXED)
PY

python -m repro run --config OurMPX --seed 1 --stats --trace "$TRACE" "$SRC"

python - "$TRACE" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    trace = json.load(handle)
events = trace["traceEvents"]
complete = [e for e in events if e["ph"] == "X"]
assert complete, "trace has no complete events"
for event in complete:
    for key in ("name", "cat", "ts", "dur", "pid", "tid"):
        assert key in event, f"event missing {key}: {event}"
names = {e["name"] for e in complete}
assert any(n.startswith("compile.") for n in names), names
assert "machine.run" in names, names
print(f"smoke OK: {len(complete)} spans, {len(names)} distinct")
PY

# bench --json sanity: valid JSON, one record per config, and the
# fast engine produces cycle counts bit-identical to the reference
# interpreter.
BENCH_FAST="$WORK/bench_fast.json"
BENCH_REF="$WORK/bench_ref.json"
python -m repro bench --seed 1 --json "$SRC" > "$BENCH_FAST"
python -m repro bench --seed 1 --json --engine reference "$SRC" > "$BENCH_REF"

python - "$BENCH_FAST" "$BENCH_REF" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    fast = json.load(handle)
with open(sys.argv[2]) as handle:
    ref = json.load(handle)
assert fast, "bench --json produced no records"
for record in fast:
    for key in ("config", "cycles", "overhead_pct", "instructions", "checks"):
        assert key in record, f"bench record missing {key}: {record}"
    assert record["cycles"] > 0, record
assert fast == ref, "engines disagree:\n%s\n%s" % (fast, ref)
configs = [r["config"] for r in fast]
print(f"bench OK: {len(fast)} configs ({', '.join(configs)}), "
      "predecoded == reference")
PY

# Multi-thread cross-engine check: merklefs (the Figure 8 workload) at
# 4 threads, where every quantum runs fused blocks on the fast engine,
# must report bench output byte-identical to the reference engine.
MERKLE="$WORK/merklefs4.mc"
python - "$MERKLE" <<'PY'
import sys

from repro.apps.merklefs import merklefs_source

with open(sys.argv[1], "w") as handle:
    handle.write(merklefs_source(4))
PY
python -m repro bench --seed 1 --json "$MERKLE" > "$WORK/bench_mt_fast.json"
python -m repro bench --seed 1 --json --engine reference "$MERKLE" \
    > "$WORK/bench_mt_ref.json"
cmp "$WORK/bench_mt_fast.json" "$WORK/bench_mt_ref.json"
echo "multi-thread bench OK: merklefs 4 threads, predecoded == reference"

# Build-cache smoke: a cold build populates the object cache; the warm
# rebuild must hit the cache for every unit and reproduce bench --json
# byte-for-byte.  Cached builds are also required to match the plain
# uncached run above.
CACHE="$WORK/objcache"
BENCH_COLD="$WORK/bench_cold.json"
BENCH_WARM="$WORK/bench_warm.json"
WARM_METRICS="$WORK/warm_metrics.txt"
python -m repro bench --seed 1 --json --cache-dir "$CACHE" "$SRC" > "$BENCH_COLD"
python -m repro bench --seed 1 --json --cache-dir "$CACHE" --metrics \
    "$SRC" > "$BENCH_WARM" 2> "$WARM_METRICS"
cmp "$BENCH_COLD" "$BENCH_FAST"
cmp "$BENCH_COLD" "$BENCH_WARM"
grep -q "build.cache.hit" "$WARM_METRICS"
# (plain grep, not -q: -q exits at first match and the early pipe
# close would surface as a broken-pipe error from the CLI)
REPRO_CACHE_DIR="$CACHE" python -m repro cache stats | grep "entries" > /dev/null
echo "cache OK: cold == warm == uncached bench output, warm run hit the cache"

# Linked-binary smoke: `repro build --link` writes a serialized binary;
# read back, it must pass ConfVerify, load and run to the same stdout,
# channel-1 output and exit code as `repro run` on the same source.
# The loader builds the externals table itself, so the same binary with
# an initializer added over the table must be refused with a LoadError;
# its layout follows from its config, so a dump that claims a layout of
# its own must be refused with a SerializeError.
LINKED="$WORK/quickstart.bin"
python -m repro build --config OurMPX --seed 1 --link "$LINKED" "$SRC" \
    > /dev/null
RUN_STATUS=0
python -m repro run --config OurMPX --seed 1 "$SRC" > "$WORK/run.out" \
    2> "$WORK/run.err" || RUN_STATUS=$?
python - "$LINKED" "$WORK/run.out" "$WORK/run.err" "$RUN_STATUS" <<'PY'
import json
import re
import sys

from repro.build import SerializeError, load_binary
from repro.errors import LoadError
from repro.link.layout import externals_table
from repro.link.loader import load
from repro.verifier import verify_binary

path, run_out, run_err, run_status = sys.argv[1:]
with open(path, "rb") as handle:
    data = handle.read()
binary = load_binary(data)
verify_binary(binary)
process = load(binary)
code = process.run() & 0xFF
with open(run_out) as handle:
    assert process.stdout == handle.read().splitlines(), process.stdout
with open(run_err) as handle:
    channel = re.search(r"^channel\.1\.out\s+(\w+)$", handle.read(), re.M)
outbox = process.runtime.channel(1).drain_out().hex()
assert outbox == (channel.group(1) if channel else ""), outbox
assert code == int(run_status), (code, run_status)

hostile = load_binary(data)
lo, hi = externals_table(hostile.layout, len(hostile.imports))
hostile.global_inits.append((lo, bytes(hi - lo)))
try:
    load(hostile)
except LoadError:
    pass
else:
    raise AssertionError("initializer over the externals table loaded")

doc = json.loads(data)
doc["layout"] = {"split_memory": False}
try:
    load_binary(json.dumps(doc).encode())
except SerializeError:
    pass
else:
    raise AssertionError("binary claiming its own layout decoded")
print(f"linked binary OK: {len(data)} bytes verify, load and run like "
      f"`repro run` (exit {code}, channel 1 {outbox or 'empty'}); "
      "table overwrite and claimed layout refused")
PY

# Fuzzing smoke: replay the frozen corpus (every checked-in mutant must
# still be killed), then a strided live mutation pass — both must
# report a 100.0% mutation-kill score and exit 0.  Then 8 generated
# programs go through every layer under the config, engine and cache
# divergence oracles; any finding exits 1.
FUZZ_OUT="$WORK/fuzz.txt"
python -m repro fuzz --engine corpus --corpus tests/fuzz/corpus > "$FUZZ_OUT"
grep "(100.0%)" "$FUZZ_OUT" > /dev/null
python -m repro fuzz --engine mutation --seed 0 --n 1 --stride 16 > "$FUZZ_OUT"
grep "(100.0%)" "$FUZZ_OUT" > /dev/null
python -m repro fuzz --engine program --seed 0 --n 8 > "$FUZZ_OUT"
echo "fuzz OK: corpus replay + strided mutation pass at 100% kill," \
    "8 generated programs agree"

# Profiling-tier smoke: the check-overhead report must decompose
# exactly (per-category check cycles + "other" residual == cycle delta
# over Base, per config), must not depend on the engine (the fast
# engine charges the profiler per fused block, the reference engine per
# instruction; only the "engine" field may differ), and the flamegraph
# export must be non-empty.
REPORT="$WORK/report.json"
REPORT_REF="$WORK/report_ref.json"
FOLDED="$WORK/quickstart.folded"
python -m repro report --seed 1 --json "$SRC" > "$REPORT"
python -m repro report --seed 1 --json --engine reference "$SRC" \
    > "$REPORT_REF"
sed '/"engine":/d' "$REPORT" > "$WORK/report_cmp.json"
sed '/"engine":/d' "$REPORT_REF" > "$WORK/report_ref_cmp.json"
cmp "$WORK/report_cmp.json" "$WORK/report_ref_cmp.json"
python - "$REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    report = json.load(handle)
assert report["base"] == "Base", report
assert report["configs"], "report has no configs"
for entry in report["configs"]:
    total = sum(part["cycles"] for part in entry["breakdown"].values())
    assert total == entry["delta"], (
        f"{entry['config']}: breakdown {total} != delta {entry['delta']}"
    )
mpx = next(e for e in report["configs"] if e["config"] == "OurMPX")
assert mpx["breakdown"]["cfi"]["count"] > 0, mpx
print(f"report OK: {len(report['configs'])} configs, decomposition exact")
PY
python -m repro run --config OurMPX --seed 1 --flamegraph "$FOLDED" "$SRC" \
    > /dev/null
test -s "$FOLDED"
echo "flamegraph OK: $(wc -l < "$FOLDED") frames"

# Multi-thread profiled run: on merklefs at 4 threads the fast engine
# tallies fused blocks inside every quantum and steps the rest; its
# folded stacks and block-profile table must be byte-identical to the
# reference engine's per-instruction attribution.
python -m repro run --seed 1 --profile-blocks \
    --flamegraph "$WORK/mt_fast.folded" "$MERKLE" \
    > /dev/null 2> "$WORK/mt_fast.err"
python -m repro run --seed 1 --profile-blocks --engine reference \
    --flamegraph "$WORK/mt_ref.folded" "$MERKLE" \
    > /dev/null 2> "$WORK/mt_ref.err"
test -s "$WORK/mt_fast.folded"
cmp "$WORK/mt_fast.folded" "$WORK/mt_ref.folded"
cmp "$WORK/mt_fast.err" "$WORK/mt_ref.err"
echo "multi-thread profile OK: merklefs 4 threads, predecoded == reference"

# Callback profile: u_qsort's trusted code steps the U comparator, and
# the native gateway is charged only its own cost, so on both engines
# the folded stacks add up to the run's wall cycles (the comparator is
# not counted twice), and the engines' outputs are byte-identical.
CALLBACKS="$WORK/callbacks.mc"
python - "$CALLBACKS" <<'PY'
import sys

from examples.extensions_tour import CALLBACKS

with open(sys.argv[1], "w") as handle:
    handle.write(CALLBACKS)
PY
for ENGINE in predecoded reference; do
    python -m repro run --seed 1 --stats --profile-blocks --engine "$ENGINE" \
        --flamegraph "$WORK/cb_$ENGINE.folded" "$CALLBACKS" \
        > /dev/null 2> "$WORK/cb_$ENGINE.err"
done
cmp "$WORK/cb_predecoded.folded" "$WORK/cb_reference.folded"
cmp "$WORK/cb_predecoded.err" "$WORK/cb_reference.err"
python - "$WORK/cb_predecoded.folded" "$WORK/cb_predecoded.err" <<'PY'
import re
import sys

with open(sys.argv[1]) as handle:
    folded = sum(int(line.rsplit(" ", 1)[1]) for line in handle)
with open(sys.argv[2]) as handle:
    row = re.search(r"^machine\.cycles\.wall\s+([\d,]+)$", handle.read(), re.M)
wall = int(row.group(1).replace(",", ""))
assert folded == wall, f"folded stacks sum to {folded}, wall cycles {wall}"
print(f"callback profile OK: folded stacks sum to {wall} wall cycles")
PY

# Sample trajectory of a real kernel: the block profiler's Perfetto
# counter events ("ph": "C", one sample per 1024 instructions) from a
# profiled libquantum run must be byte-identical on both engines, so
# the fast engine's samples inside fused traces match the reference
# engine's per-instruction ones.
QUANTUM_SRC="$WORK/libquantum.mc"
python - "$QUANTUM_SRC" <<'PY'
import sys

from repro.apps.spec import kernel_source

with open(sys.argv[1], "w") as handle:
    handle.write(kernel_source("libquantum", scale=1))
PY
for ENGINE in predecoded reference; do
    # The exit status is the kernel's checksum, compared below.
    STATUS=0
    python -m repro run --config OurMPX --seed 1 --profile-blocks \
        --engine "$ENGINE" --trace "$WORK/lq_$ENGINE.json" "$QUANTUM_SRC" \
        > /dev/null 2>&1 || STATUS=$?
    echo "exit $STATUS" > "$WORK/lq_$ENGINE.counters"
    python - "$WORK/lq_$ENGINE.json" "$WORK/lq_$ENGINE.counters" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    events = json.load(handle)["traceEvents"]
counters = [e for e in events if e["ph"] == "C"]
assert counters, "profiled run wrote no counter events"
with open(sys.argv[2], "a") as handle:
    for event in counters:
        handle.write(json.dumps(event, sort_keys=True) + "\n")
PY
done
cmp "$WORK/lq_predecoded.counters" "$WORK/lq_reference.counters"
echo "sample trajectory OK: libquantum $(wc -l < "$WORK/lq_reference.counters") counter events, predecoded == reference"

# Benchmark-trajectory gate: a fresh `bench --store` record must pass
# `bench diff` against the committed seed, and an injected change of
# one bounds-check count, cycles unchanged, must make the diff exit 3.
BENCH_CI="$WORK/BENCH_ci.json"
BENCH_BAD="$WORK/BENCH_bad.json"
python -m repro bench --seed 1 --json --store "$BENCH_CI" \
    --bench-name quickstart "$SRC" > /dev/null
python -m repro bench diff BENCH_seed.json "$BENCH_CI" --suite quickstart
python - "$BENCH_CI" "$BENCH_BAD" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    doc = json.load(handle)
bench = next(
    b for b in doc["records"][-1]["benchmarks"] if b["config"] == "OurMPX"
)
bench["checks"]["bnd"] -= 1
with open(sys.argv[2], "w") as handle:
    json.dump(doc, handle)
PY
STATUS=0
python -m repro bench diff BENCH_seed.json "$BENCH_BAD" \
    --suite quickstart > "$WORK/diff_bad.txt" 2>&1 || STATUS=$?
if [ "$STATUS" -ne 3 ] || ! grep "checks.bnd" "$WORK/diff_bad.txt" > /dev/null
then
    echo "bench diff FAILED to flag an injected check change" >&2
    cat "$WORK/diff_bad.txt" >&2
    exit 1
fi
echo "bench gate OK: seed diff clean, injected check change flagged"

# Seed reproducibility: every number in BENCH_seed.json is simulated,
# so a fresh regeneration must be byte-identical to the committed file.
# This gates all six suites exactly, fig5 included.
python scripts/gen_bench_seed.py "$WORK/BENCH_regen.json"
cmp BENCH_seed.json "$WORK/BENCH_regen.json"
echo "seed OK: regenerated BENCH_seed.json is byte-identical"

# Check-optimizer smoke (--checkopt aggressive): fig5 kernels still
# pass ConfVerify with checks elided, both engines stay bit-identical,
# `repro report` attributes a real bnd-cycle saving on mcf/OurMPX, the
# libquantum-checkopt trajectory record (where elision fires) diffs
# clean against the seed, and the witness-corruption fuzz oracle kills
# 100% of seeded witness corruptions, with every corruption operator of
# both checkers (IR passes, check optimizer) fired and no checker crash
# or surviving corruption.
MCF="$WORK/mcf.mc"
LIBQUANTUM="$WORK/libquantum.mc"
python - "$MCF" "$LIBQUANTUM" <<'PY'
import sys

from repro.apps.spec import kernel_source

for path, kernel in zip(sys.argv[1:], ("mcf", "libquantum")):
    with open(path, "w") as handle:
        handle.write(kernel_source(kernel))
PY

# Fig. 5 cross-engine check: libquantum and mcf hold the most blocks
# that end in a Jmp (the fast engine's traces run through them) and
# the most L1 LRU shuffles and misses (inlined in its fused code), so
# their bench output must be byte-identical to the reference engine's.
for KERNEL in "$LIBQUANTUM" "$MCF"; do
    python -m repro bench --seed 1 --json "$KERNEL" > "$WORK/bench_k_fast.json"
    python -m repro bench --seed 1 --json --engine reference "$KERNEL" \
        > "$WORK/bench_k_ref.json"
    cmp "$WORK/bench_k_fast.json" "$WORK/bench_k_ref.json"
done
echo "fig5 bench OK: libquantum and mcf, predecoded == reference"
# libquantum's traces cross the most labels: its block profile, tallied
# per trace on the fast engine and per instruction on the reference
# engine, must give the same report.
for ENGINE in predecoded reference; do
    python -m repro report --seed 1 --json --configs OurMPX \
        --engine "$ENGINE" "$LIBQUANTUM" | sed '/"engine":/d' \
        > "$WORK/report_lq_$ENGINE.json"
done
cmp "$WORK/report_lq_predecoded.json" "$WORK/report_lq_reference.json"
echo "libquantum report OK: predecoded == reference"
python -m repro verify --config OurMPX --checkopt aggressive --seed 1 \
    --no-prototypes "$MCF" > /dev/null
python -m repro verify --config OurSeg --checkopt aggressive --seed 1 \
    --no-prototypes "$MCF" > /dev/null

CK_FAST="$WORK/bench_ck_fast.json"
CK_REF="$WORK/bench_ck_ref.json"
python -m repro bench --seed 1 --json --checkopt aggressive "$SRC" > "$CK_FAST"
python -m repro bench --seed 1 --json --checkopt aggressive \
    --engine reference "$SRC" > "$CK_REF"
cmp "$CK_FAST" "$CK_REF"

CK_REPORT="$WORK/report_ck.json"
python -m repro report --seed 1 --json --checkopt aggressive "$MCF" \
    > "$CK_REPORT"
python - "$CK_REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    report = json.load(handle)
mpx = next(e for e in report["configs"] if e["config"] == "OurMPX")
ck = mpx["checkopt"]
assert ck["level"] == "aggressive", ck
assert ck["bnd_cycles_saved"] > 0, ck
assert ck["bnd_sites"] <= ck["bnd_sites_off"], ck
print(
    f"checkopt OK: mcf/OurMPX saves {ck['bnd_cycles_saved']} bnd cycles "
    f"({ck['bnd_cycles_off']} -> {ck['bnd_cycles']})"
)
PY

python -m repro bench --seed 1 --json --checkopt aggressive --no-prototypes \
    --store "$BENCH_CI" --bench-name libquantum-checkopt "$LIBQUANTUM" \
    > /dev/null
python -m repro bench diff BENCH_seed.json "$BENCH_CI" \
    --suite libquantum-checkopt

WITNESS_METRICS="$WORK/witness_metrics.txt"
python -m repro fuzz --engine witness --seed 0 --n 2 --stride 4 --metrics \
    > "$FUZZ_OUT" 2> "$WITNESS_METRICS"
grep "(100.0%)" "$FUZZ_OUT" > /dev/null
python - "$WITNESS_METRICS" <<'PY'
import re
import sys

with open(sys.argv[1]) as handle:
    text = handle.read()
fired = {
    op: int(count.replace(",", ""))
    for op, count in re.findall(
        r"fuzz\.witness_mutants\{operator=([\w-]+)\}\s+([\d,]+)", text
    )
}
operators = (
    # IR pass witnesses (check_witness)
    "drop-obligations", "phantom-obligation", "taint-flip",
    "garble-claim", "truncate-claim",
    # check-optimizer edit scripts (check_checkopt_witness)
    "drop-edit", "shift-edit", "truncate-edit", "self-provider",
    "double-delete",
)
missing = [op for op in operators if not fired.get(op)]
assert not missing, f"witness operators never fired: {missing}"
bad = re.findall(r"fuzz\.witness_kills\{outcome=(crash|survived)\}", text)
assert not bad, f"witness oracle outcomes: {bad}"
print(f"witness oracle OK: {len(operators)} operators fired, "
      f"{sum(fired.values())} corruptions")
PY
echo "checkopt gate OK: fig5 verifies, engines agree, seed diff clean," \
    "witness oracle at 100% kill"

# Serving-tier smoke: a 2-tenant fleet per app (~1k requests total
# across the three real apps), zero pool faults, every response valid,
# and the stored serve/<app> records must diff clean against the seed.
# Parameters must match scripts/gen_bench_seed.py.
SERVE_CI="$WORK/BENCH_serve_ci.json"
for APP in webserver dirserver classifier; do
    if [ "$APP" = classifier ]; then N=120; else N=400; fi
    SERVE_JSON="$WORK/serve_$APP.json"
    python -m repro serve --app "$APP" --seed 1 --tenants 2 \
        --pool-size 2 --requests "$N" --json --store "$SERVE_CI" \
        > "$SERVE_JSON"
    python - "$SERVE_JSON" <<'PY'
import json
import sys

with open(sys.argv[1]) as handle:
    report = json.load(handle)
assert report["faults"] == 0, f"{report['app']}: pool faults"
assert report["evictions"] == 0, f"{report['app']}: evictions"
assert report["valid"] == report["requests"], (
    f"{report['app']}: {report['requests'] - report['valid']} bad responses"
)
for clock in ("latency_wall_ms", "latency_cycles"):
    lat = report[clock]
    assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"], lat
assert report["setup"]["wall_speedup"] >= 100, report["setup"]
print(
    f"serve OK: {report['app']} {report['requests']} reqs, "
    f"{report['throughput_rps']:.0f} req/s, "
    f"fork setup {report['setup']['wall_speedup']:.0f}x cheaper"
)
PY
    python -m repro bench diff BENCH_seed.json "$SERVE_CI" \
        --suite "serve/$APP"
done
echo "serve gate OK: 3 apps, zero faults, seed diff clean"

# CI artifact handoff: when $SMOKE_ARTIFACT_DIR is set, keep the bench
# record and trace for upload (the workdir is deleted on exit).
if [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    cp "$BENCH_CI" "$SMOKE_ARTIFACT_DIR/BENCH_ci.json"
    cp "$SERVE_CI" "$SMOKE_ARTIFACT_DIR/BENCH_serve_ci.json"
    cp "$TRACE" "$SMOKE_ARTIFACT_DIR/trace.json"
    cp "$FOLDED" "$SMOKE_ARTIFACT_DIR/quickstart.folded"
    echo "artifacts OK: copied to $SMOKE_ARTIFACT_DIR"
fi

"""Differential suite: the fast engine must be observably identical
to the reference engine.

The predecoded engine is a pure performance transformation — simulated
cycle counts, Stats counters, fault kinds/details/addresses, cache
hits/misses, final register state, obs spans/metrics, and step-hook
callbacks must all agree bit-for-bit with the one-step-at-a-time
reference interpreter.  This suite pins that contract with the random
``ProgramGen`` corpus across BASE/OUR_MPX/OUR_SEG plus hand-built fault
programs (run both through fused blocks and, under a no-op step hook,
through the one-instruction stepping entries), multi-thread programs
(merklefs at 2-6 threads, a thread spawn at every residue of the
quantum grid, budget cuts through a spawn/join schedule),
budget-boundary cases where a single thread's fused blocks have to
stop at the budget and finish the quantum by stepping, traces that
run through direct jumps (faults past a jump, a budget cut at every
instruction of a jump-chained loop, jump cycles), and budget cuts
inside a trusted callback, which leave the machine unable to resume.
"""

from __future__ import annotations

import functools

import pytest

from repro import BASE, OUR_MPX, OUR_SEG
from repro.apps.merklefs import merklefs_source
from repro.backend import isa, regs
from repro.compiler import compile_source
from repro.errors import FAULT_DIV, FAULT_EXEC, FAULT_TORN, MachineFault
from repro.link.layout import CODE_BASE, MPX_PUB_BASE
from repro.link.loader import load
from repro.machine import costs, superblock
from repro.machine.cpu import ENGINES
from repro.machine.superblock import MAX_BLOCK
from repro.obs import events, export
from repro.obs.blockprof import attach_block_profiler, detach_block_profiler
from repro.runtime.trusted import T_PROTOTYPES, TrustedRuntime

from examples.extensions_tour import CALLBACKS
from examples.quickstart import FIXED as QUICKSTART
from tests.integration.test_differential import ProgramGen
from tests.machine.test_semantics_fixes import make_machine

CORPUS_SEEDS = (0, 7, 23, 481, 9001, 31337)
CONFIGS = (BASE, OUR_MPX, OUR_SEG)


def machine_signature(machine):
    stats = machine.stats
    return {
        "exit_code": machine.exit_code,
        "core_cycles": tuple(machine.core_cycles),
        "instructions": stats.instructions,
        "bnd_checks": stats.bnd_checks,
        "cfi_checks": stats.cfi_checks,
        "calls": stats.calls,
        "t_calls": stats.t_calls,
        "loads": stats.loads,
        "stores": stats.stores,
        "faults": dict(stats.faults),
        "cache": tuple((c.hits, c.misses) for c in machine.caches),
        "regs": tuple(tuple(t.regs) for t in machine.threads),
        "pcs": tuple(t.pc for t in machine.threads),
    }


def run_engine(binary, engine, max_instructions=500_000_000):
    """Run a binary under one engine inside a fresh obs registry;
    returns (exit_code_or_fault, machine signature, obs signature)."""
    registry = events.Registry()
    with events.use(registry):
        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        try:
            outcome = ("exit", process.run(max_instructions))
        except MachineFault as fault:
            outcome = ("fault", fault.kind, fault.detail, fault.addr)
    obs_sig = (
        export.cycle_span_signature(registry),
        registry.metrics_snapshot(),
    )
    return outcome, machine_signature(process.machine), obs_sig


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_corpus_program_identical_across_engines(seed, config):
    source = ProgramGen(seed).gen()
    binary = compile_source(source, config, seed=seed)
    assert run_engine(binary, "predecoded") == run_engine(binary, "reference")


@pytest.mark.parametrize("n_threads", (2, 4, 6))
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_merklefs_threads_identical_across_engines(n_threads, config):
    # The paper's Fig. 8 workload: readers interleave quantum by quantum
    # and each quantum runs fused blocks, so every spawn, join and
    # thread exit lands mid-quantum somewhere.
    binary = compile_source(merklefs_source(n_threads), config, seed=1)
    fast = run_engine(binary, "predecoded")
    assert fast[0] == ("exit", 0)
    assert fast == run_engine(binary, "reference")


#: ``main`` spawns a worker after ``PAD`` straight-line statements of
#: three instructions each, so across k = 0..63 the spawning block ends
#: at every residue of the 64-instruction quantum grid -- including on
#: the grid itself, where the spawning quantum is already over.  Main
#: then sums the worker's progress counter, so its exit code shows how
#: the two threads' quanta interleaved.
SPAWN_ON_GRID = T_PROTOTYPES + """
int pad;
int ticks;
int worker(int x) {
    for (int i = 0; i < 40; i++) { ticks = ticks + x; }
    return 0;
}
int main() {
PAD    int a = thread_create((int)&worker, 3);
    int s = 0;
    for (int i = 0; i < 30; i++) { s = s + ticks; }
    thread_join(a);
    return (s + ticks) & 255;
}
"""


@functools.lru_cache(maxsize=None)
def spawn_on_grid_binary(k):
    return compile_source(
        SPAWN_ON_GRID.replace("PAD", "    pad = pad + 1;\n" * k), BASE, seed=1
    )


def retired_before_spawn(binary):
    """Instructions retired when the first thread spawn took effect."""
    process = load(binary, runtime=TrustedRuntime(), engine="reference")
    machine = process.machine
    seen = []

    def hook(thread, pc, insn, cycles):
        if not seen and len(machine.threads) > 1:
            seen.append(machine.stats.instructions)

    machine.add_step_hook(hook)
    process.run()
    return seen[0]


def test_spawn_on_grid_sweep_covers_every_residue():
    residues = {
        retired_before_spawn(spawn_on_grid_binary(k)) % 64 for k in range(64)
    }
    assert residues == set(range(64))


@pytest.mark.parametrize("k", range(64))
def test_spawn_on_grid_identical_across_engines(k):
    binary = spawn_on_grid_binary(k)
    assert run_engine(binary, "predecoded") == run_engine(binary, "reference")


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_selection_is_exposed(engine):
    machine = make_machine([isa.Halt()], engine=engine)
    assert machine.engine == engine
    machine.run()
    assert machine.stats.instructions == 1


def test_unknown_engine_rejected():
    # A retired engine name is rejected like any other unknown one.
    for engine in ("jit", "superblock"):
        with pytest.raises(ValueError):
            make_machine([isa.Halt()], engine=engine)


FAULT_PROGRAMS = {
    "negative-pc": [isa.Jmp("x", addr=-5)],
    "pc-past-end": [isa.MovRI(regs.RAX, 1)],  # falls off the end
    "jmp-reg-past-end": [
        isa.MovRI(regs.RAX, CODE_BASE + 2),
        isa.JmpReg(regs.RAX, skip=0),
    ],
    "div-zero": [
        isa.MovRI(regs.RAX, 3),
        isa.MovRI(regs.RBX, 0),
        isa.Alu("div", regs.RAX, regs.RAX, regs.RBX),
        isa.Halt(),
    ],
    "unmapped": [
        isa.MovRI(regs.RBX, 0x500),
        isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
        isa.Halt(),
    ],
    "write-code-space": [
        isa.MovRI(regs.RBX, CODE_BASE),
        isa.Store(isa.Mem(base=regs.RBX), isa.Imm(1), 8),
        isa.Halt(),
    ],
    "debugbreak": [isa.Fail()],
    "budget": [isa.MovRI(regs.RAX, 0x10000100), isa.Jmp("loop", addr=0)],
    # A fused block runs through a Jmp; the fault comes after it.
    "trace-div-zero": [
        isa.MovRI(regs.RAX, 3),
        isa.MovRI(regs.RBX, MPX_PUB_BASE + 0x100),
        isa.Store(isa.Mem(base=regs.RBX), regs.RAX, 8),
        isa.Jmp("on", addr=5),
        isa.Halt(),
        isa.MovRI(regs.RCX, 0),
        isa.Load(regs.RDX, isa.Mem(base=regs.RBX), 8),
        isa.Alu("div", regs.RAX, regs.RAX, regs.RCX),
        isa.Halt(),
    ],
    "trace-unmapped": [
        isa.MovRI(regs.RBX, 0x500),
        isa.Jmp("on", addr=3),
        isa.Halt(),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
        isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
        isa.Halt(),
    ],
    # A trace of three segments: two followed Jmps, each into a
    # label, with an L1 miss in every segment before the fault.
    "trace-third-segment": [
        isa.MovRI(regs.RBX, MPX_PUB_BASE + 0x100),
        isa.Store(isa.Mem(base=regs.RBX), regs.RBX, 8),
        isa.Jmp("x", addr=4),
        isa.Halt(),
        isa.Load(regs.RCX, isa.Mem(base=regs.RBX, disp=4096), 8),
        isa.Jmp("y", addr=7),
        isa.Halt(),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
        isa.Store(isa.Mem(base=regs.RBX, disp=8192), regs.RAX, 8),
        isa.MovRI(regs.RDX, 0),
        isa.Alu("div", regs.RAX, regs.RAX, regs.RDX),
        isa.Halt(),
    ],
    # Jump cycles: trace formation stops before a pc already in the
    # trace, and the budget cuts the spin.
    "self-jump": [isa.Jmp("self", addr=0)],
    "jump-cycle": [
        isa.MovRI(regs.RAX, 1),
        isa.Jmp("b", addr=2),
        isa.Jmp("a", addr=1),
    ],
}

#: Access sizes no Load or Store may have.
BAD_SIZES = (-1, 0, 3, 16)
for _size in BAD_SIZES:
    FAULT_PROGRAMS[f"load-size-{_size}"] = [
        isa.MovRI(regs.RBX, MPX_PUB_BASE + 0x100),
        isa.Load(regs.RAX, isa.Mem(base=regs.RBX), _size),
        isa.Halt(),
    ]
    FAULT_PROGRAMS[f"store-size-{_size}"] = [
        isa.MovRI(regs.RBX, MPX_PUB_BASE + 0x100),
        isa.Store(isa.Mem(base=regs.RBX), isa.Imm(7), _size),
        isa.Halt(),
    ]


class TestFaultEquivalence:
    """Fault kind, detail, address, and pre-fault accounting agree.
    Each program also runs on the fast engine under a no-op step hook,
    which forces the one-instruction stepping entries instead of
    traces, so both fast paths' pre-fault charges stay pinned."""

    def run_fault(self, name, engine, hooked=False):
        machine = make_machine(FAULT_PROGRAMS[name], engine=engine)
        if hooked:
            machine.add_step_hook(lambda thread, pc, insn, cycles: None)
        try:
            machine.run(max_instructions=10_000)
            outcome = ("exit", machine.exit_code)
        except MachineFault as fault:
            outcome = ("fault", fault.kind, fault.detail, fault.addr)
        return outcome, machine_signature(machine)

    @pytest.mark.parametrize("name", FAULT_PROGRAMS)
    def test_fault_identical(self, name):
        reference = self.run_fault(name, "reference")
        assert reference[0][0] == "fault"
        assert self.run_fault(name, "predecoded") == reference
        assert self.run_fault(name, "predecoded", hooked=True) == reference

    @pytest.mark.parametrize("size", BAD_SIZES)
    @pytest.mark.parametrize("kind", ("load", "store"))
    def test_bad_access_size_is_one_typed_fault(self, kind, size):
        outcome, signature = self.run_fault(f"{kind}-size-{size}", "reference")
        assert outcome == (
            "fault", FAULT_EXEC, f"bad access size {size}", None
        )
        # Both instructions were charged; the access never happened.
        assert signature["instructions"] == 2
        assert signature["loads"] == signature["stores"] == 0
        assert signature["cache"][0] == (0, 0)


class TestStepHookEquivalence:
    SOURCE = """
int helper(int x) { return x * 3 + 1; }
int main() {
  int i; int acc; acc = 0;
  for (i = 0; i < 40; i = i + 1) { acc = (acc + helper(i)) & 0xffff; }
  return acc & 255;
}
"""

    def hook_stream(self, engine, config):
        binary = compile_source(self.SOURCE, config, seed=3)
        process = load(binary, runtime=TrustedRuntime(), engine=engine)
        stream = []

        def hook(thread, pc, insn, cycles):
            stream.append((thread.tid, pc, type(insn).__name__, cycles))

        process.machine.add_step_hook(hook)
        process.run()
        return stream

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_hook_callbacks_identical(self, config):
        assert self.hook_stream("predecoded", config) == self.hook_stream(
            "reference", config
        )

    def test_profiler_identical(self):
        reports = {}
        for engine in ENGINES:
            binary = compile_source(self.SOURCE, OUR_MPX, seed=3)
            process = load(binary, runtime=TrustedRuntime(), engine=engine)
            profiler = attach_block_profiler(process.machine)
            process.run()
            reports[engine] = [
                (r.name, r.cycles, r.bnd_checks, r.cfi_checks)
                for r in profiler.function_report()
            ]
        assert reports["predecoded"] == reports["reference"]

    def test_hook_attached_mid_run_sees_identical_tail(self):
        # Attaching a hook mid-run kicks the predecoded engine off its
        # single-thread hot loop at the next quantum boundary — the
        # remaining callbacks must still match the reference engine.
        streams = {}
        for engine in ENGINES:
            binary = compile_source(self.SOURCE, BASE, seed=3)
            process = load(binary, runtime=TrustedRuntime(), engine=engine)
            machine = process.machine
            stream = []

            def tail_hook(thread, pc, insn, cycles, _s=stream):
                _s.append((pc, type(insn).__name__, cycles))

            # Deterministic arming point: run a bounded prefix (the
            # budget fault leaves the machine resumable), then attach
            # the hook and finish the program.
            try:
                machine.run(max_instructions=500)
            except MachineFault as fault:
                assert fault.kind == "instruction-budget-exhausted"
            machine.add_step_hook(tail_hook)
            process.run()
            streams[engine] = (machine.stats.instructions, stream)
        assert streams["predecoded"] == streams["reference"]


#: The three ways a block profiler is charged: per fused block on the
#: predecoded hot loop; per instruction by the predecoded stepping
#: entries (a no-op step hook forces them -- the ``on_step`` oracle);
#: and per instruction by the reference engine.
PROFILER_COLUMNS = ("fused", "handlers", "reference")

#: A heap loop long enough that fused blocks straddle several sample
#: points, with bnd sites, cache misses and a call per iteration.
STRADDLING_LOOP = T_PROTOTYPES + """
int scale(int x) { return x * 3 + 1; }
int main() {
    int *buf = (int*)malloc_pub(600 * sizeof(int));
    int acc = 0;
    for (int i = 0; i < 600; i++) {
        buf[i] = scale(i);
        acc = (acc + buf[i]) & 0xffff;
    }
    return acc & 255;
}
"""

#: Two workers run concurrently: inside each multi-thread quantum the
#: fused column charges the profiler per fused block, and per
#: instruction for what no whole block fits in.
SPAWN_JOIN = T_PROTOTYPES + """
int done[2];
int worker(int slot) {
    int s = 0;
    for (int i = 0; i < 300; i++) { s += i; }
    done[slot] = s & 1023;
    return 0;
}
int main() {
    int a = thread_create((int)&worker, 0);
    int b = thread_create((int)&worker, 1);
    thread_join(a);
    thread_join(b);
    int acc = 0;
    for (int i = 0; i < 200; i++) { acc = (acc + done[i & 1]) & 0xffff; }
    return acc & 255;
}
"""

#: A trusted function calling back into U: the comparator's
#: instructions retire inside the native call, between two
#: instructions of the calling block.
CALLBACK = T_PROTOTYPES + """
int ascending(int a, int b) { return a - b; }
int main() {
    int *arr = (int*)malloc_pub(120 * sizeof(int));
    for (int i = 0; i < 120; i++) { arr[i] = (i * 7919) % 1000; }
    u_qsort(arr, 120, ascending);
    int acc = 0;
    for (int i = 0; i < 120; i++) { acc = (acc * 3 + arr[i]) & 0xffff; }
    return acc & 255;
}
"""


def chained_loop(pad: int, n: int, fault: bool):
    """``(code, labels)`` of a loop of ``n`` runs of one trace through
    three labels, a (4 instructions) -> b (2) -> c (4), after ``pad``
    fillers; each run stores to a new L1 line.  With ``fault`` the
    ``n``-th run divides by zero at c's third instruction."""
    a, b, c = pad + 5, pad + 3, pad + 9
    code = [
        isa.MovRI(regs.RAX, 0),
        isa.MovRI(regs.RBX, MPX_PUB_BASE),
        *(isa.MovRI(regs.RCX, k) for k in range(pad)),
        isa.Jmp("a", addr=a),
        isa.Alu("sub", regs.RDX, isa.Imm(n if fault else n + 1), regs.RAX),
        isa.Jmp("c", addr=c),
        isa.Store(isa.Mem(base=regs.RBX), regs.RAX, 8),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
        isa.Alu("add", regs.RBX, regs.RBX, isa.Imm(4160)),
        isa.Jmp("b", addr=b),
        isa.Alu("add", regs.RCX, regs.RCX, isa.Imm(1)),
        isa.Alu("add", regs.RCX, regs.RCX, isa.Imm(2)),
        isa.Alu("div", regs.RCX, regs.RBX, regs.RDX),
        isa.Br("lt", regs.RAX, isa.Imm(n), "a", addr=a),
        isa.Halt(),
    ]
    return code, {"a": a, "b": b, "c": c}


def table_loop(pad: int, n: int):
    """``(code, labels)`` of a loop of ``n`` runs of one trace through
    two labels, a (a store to a new L1 line each run, two adds) -> c (an
    add, then a jump table, whose handler charges more than its base
    cost), then b (the loop branch), after ``pad`` fillers."""
    a, c = pad + 3, pad + 9
    code = [
        isa.MovRI(regs.RAX, 0),
        isa.MovRI(regs.RBX, MPX_PUB_BASE),
        *(isa.MovRI(regs.RCX, k) for k in range(pad)),
        isa.Jmp("a", addr=a),
        isa.Store(isa.Mem(base=regs.RBX), regs.RAX, 8),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
        isa.Alu("add", regs.RBX, regs.RBX, isa.Imm(4160)),
        isa.Jmp("c", addr=c),
        isa.Br("lt", regs.RAX, isa.Imm(n), "a", addr=a),
        isa.Halt(),
        isa.Alu("add", regs.RCX, regs.RCX, isa.Imm(1)),
        isa.JmpTable(regs.RDX, 0, ["b"], addrs=[c - 2]),
    ]
    return code, {"a": a, "b": c - 2, "c": c}


def store_after_fault_loop(pad: int, n: int):
    """``(code, labels)`` of a loop whose one-segment trace stores to a
    new L1 line, divides, stores again and branches back, after ``pad``
    fillers; the ``n``-th run divides by zero, before its second store."""
    a = pad + 3
    code = [
        isa.MovRI(regs.RAX, 0),
        isa.MovRI(regs.RBX, MPX_PUB_BASE),
        *(isa.MovRI(regs.RCX, k) for k in range(pad)),
        isa.Jmp("a", addr=a),
        isa.Store(isa.Mem(base=regs.RBX), regs.RAX, 8),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
        isa.Alu("sub", regs.RDX, isa.Imm(n), regs.RAX),
        isa.Alu("div", regs.RCX, regs.RBX, regs.RDX),
        isa.Store(isa.Mem(base=regs.RBX, disp=8), regs.RAX, 8),
        isa.Alu("add", regs.RBX, regs.RBX, isa.Imm(4160)),
        isa.Br("lt", regs.RAX, isa.Imm(n + 1), "a", addr=a),
        isa.Halt(),
    ]
    return code, {"a": a}


def loaded(binary):
    """A machine factory: ``binary`` loaded on the given engine."""
    return lambda engine: load(
        binary, runtime=TrustedRuntime(), engine=engine
    ).machine


class TestBlockProfilerEquivalence:
    """Block/edge/check-site attribution, counter samples and run
    outcomes are identical whichever way the profiler is charged --
    the acceptance contract for the profiling tier, faulting runs and
    multi-thread schedules included."""

    @staticmethod
    def profiled(make, column):
        """``make``'s machine with a block profiler attached, charged
        the ``column`` way; returns (machine, profiler)."""
        engine = "reference" if column == "reference" else "predecoded"
        machine = make(engine)
        profiler = attach_block_profiler(machine)
        if column == "handlers":
            machine.add_step_hook(lambda thread, pc, insn, cycles: None)
        return machine, profiler

    def blockprof_signature(self, make, column, batches=None):
        machine, profiler = self.profiled(make, column)
        if batches is not None:
            self.count_folds(profiler, lambda: batches.append(
                {t.tid for t in machine.threads if t.alive}
            ))
        try:
            outcome = ("exit", machine.run(max_instructions=200_000))
        except MachineFault as fault:
            outcome = ("fault", fault.kind, fault.detail, fault.addr)
        return {
            "outcome": outcome,
            "machine": machine_signature(machine),
            **self.profile_signature(profiler),
        }

    @staticmethod
    def count_folds(profiler, record):
        """Call ``record()`` at each fold of fused-block tallies."""
        fold_blocks = profiler.fold_blocks

        def counting_fold_blocks(*args):
            record()
            fold_blocks(*args)

        profiler.fold_blocks = counting_fold_blocks

    @staticmethod
    def profile_signature(profiler):
        return {
            "cycles": sorted(profiler.cycles.items()),
            "instructions": sorted(profiler.instructions.items()),
            "cache_misses": sorted(profiler.cache_misses.items()),
            "edges": sorted(profiler.edges.items()),
            "sites": sorted(
                (addr, tuple(entry))
                for addr, entry in profiler.sites.items()
            ),
            "samples": profiler.samples,
            "flamegraph": profiler.flamegraph_lines(),
        }

    def assert_columns_agree(self, make, batched=True, batches=None):
        """The three columns agree; with ``batched``, the fused column
        really was charged per fused block.  ``batches`` collects the
        tids of the live threads at each fused-column batch."""
        if batches is None:
            batches = []
        fused = self.blockprof_signature(make, "fused", batches)
        handlers = self.blockprof_signature(make, "handlers")
        reference = self.blockprof_signature(make, "reference")
        assert handlers == reference
        assert fused == reference
        if batched:
            assert batches
        return reference

    @pytest.mark.parametrize("seed", (7, 481))
    @pytest.mark.parametrize(
        "config", (OUR_MPX, OUR_SEG), ids=lambda c: c.name
    )
    def test_corpus_attribution_identical(self, seed, config):
        source = ProgramGen(seed).gen()
        binary = compile_source(source, config, seed=seed)
        self.assert_columns_agree(loaded(binary))

    def test_structured_program_attribution_identical(self):
        binary = compile_source(
            TestStepHookEquivalence.SOURCE, OUR_MPX, seed=3
        )
        reference = self.assert_columns_agree(loaded(binary))
        assert reference["sites"]  # checks actually executed

    def test_shadow_stack_sites_identical(self):
        # Shadow-stack checks read the stack through the cache, so their
        # cost is known only at run time -- here eight same-set loads
        # evict the line the pop reads -- and the fused path must step
        # blocks that hold one.
        code = [
            isa.MovRI(regs.RAX, 5),
            isa.Push(regs.RAX),
            isa.ShadowPush(),
            *(
                isa.Load(regs.RBX, isa.Mem(base=regs.RSP, disp=-4096 * k), 8)
                for k in range(1, 9)
            ),
            isa.ShadowPop(),
            isa.Halt(),
        ]
        reference = self.assert_columns_agree(
            lambda engine: make_machine(code, engine=engine), batched=False
        )
        pop = dict(reference["sites"])[len(code) - 2]
        assert pop[0] == "shadow" and pop[2] > costs.BASE_COST[
            isa.ShadowPop().cost_class
        ]

    def test_stepped_traces_emit_no_tally_epilogue(self):
        # Traces through the native gateway step through
        # Machine._step_block; that is decided from their instructions,
        # so no tally epilogue is emitted (and compiled) for them.
        binary = compile_source(QUICKSTART, OUR_MPX, seed=1)
        reference = self.assert_columns_agree(loaded(binary))
        assert reference["outcome"] == ("exit", 0)
        tallies = superblock._IMAGES[id(binary)][2]
        assert tallies
        for insns, _, _, _, segments in tallies.values():
            assert segments is not None
            assert not any(map(superblock._stepped, insns))

    @pytest.mark.parametrize("name", FAULT_PROGRAMS)
    def test_fault_attribution_identical(self, name):
        # Everything but a fault on the very first instruction retires
        # something on the fused path first.
        reference = self.assert_columns_agree(
            lambda engine: make_machine(FAULT_PROGRAMS[name], engine=engine),
            batched=name != "debugbreak",
        )
        assert reference["outcome"][0] == "fault"

    def test_fallthrough_into_label_identical(self):
        # Straight-line code running into a label: the fused block must
        # end before it, or the batched path would charge "mid"'s
        # instructions to "__start".
        code = [
            isa.MovRI(regs.RAX, 1),
            isa.MovRI(regs.RBX, 2),
            isa.MovRI(regs.RCX, 3),
            isa.Alu("add", regs.RAX, regs.RAX, regs.RBX),
            isa.Halt(),
        ]

        def make(engine):
            return make_machine(code, engine=engine, labels={"mid": 2})

        reference = self.assert_columns_agree(make)
        assert reference["instructions"] == [("__start", 2), ("mid", 3)]
        assert make("predecoded")._fuser.fuse(0)[1] == 2

    @pytest.mark.parametrize("pad", range(10))
    def test_chained_trace_samples_at_every_offset_identical(self, pad):
        # Each run of the loop's trace crosses three labels, and the
        # pad puts its first sample point at every offset of a run.
        code, labels = chained_loop(pad, 600, fault=False)

        def make(engine):
            return make_machine(code, engine=engine, labels=labels)

        reference = self.assert_columns_agree(make)
        assert reference["outcome"] == ("exit", 600)
        assert len(reference["samples"]) == 5
        record = make("predecoded")._fuser.fuse(labels["a"], tally=True)[3]
        assert [pc for pc, _ in record[3]] == [
            labels["a"], labels["b"], labels["c"]
        ]

    @pytest.mark.parametrize("pad", range(7))
    def test_jump_table_trace_samples_at_every_offset_identical(self, pad):
        # A sample point after the jump table counts on from the cycles
        # the noting form stored after the handler ran; the pad puts the
        # first point at every offset of a run.
        code, labels = table_loop(pad, 800)

        def make(engine):
            return make_machine(code, engine=engine, labels=labels)

        reference = self.assert_columns_agree(make)
        assert reference["outcome"] == ("exit", 800)
        assert len(reference["samples"]) == 5

    @pytest.mark.parametrize("pad", range(7))
    def test_fault_before_a_later_store_identical(self, pad):
        # The 146th run of the loop's trace faults at its fourth
        # instruction, and the only sample point falls 6 - pad
        # instructions into that run: after the fault, or before it,
        # where the misses before the point come from the machine, since
        # the note before the second store was never written on that
        # run, or (pad 6) at the end of the run before.
        code, labels = store_after_fault_loop(pad, 146)

        def make(engine):
            return make_machine(code, engine=engine, labels=labels)

        reference = self.assert_columns_agree(make)
        assert reference["outcome"][:2] == ("fault", FAULT_DIV)
        assert len(reference["samples"]) == (pad >= 3)

    @pytest.mark.parametrize("pad", range(1, 12))
    def test_fault_in_third_segment_identical(self, pad):
        # The last run of the loop's trace divides by zero in its third
        # segment.  The first sample point falls 11 - pad instructions
        # into that run: after it (the run faults on the fused path),
        # after the fault, one or two instructions before it (the fault
        # comes in the rest of the segment, stepped after the sample),
        # or earlier, so that the run goes on fused from a later
        # segment.
        code, labels = chained_loop(pad, 102, fault=True)

        def make(engine):
            return make_machine(code, engine=engine, labels=labels)

        reference = self.assert_columns_agree(make)
        assert reference["outcome"][:2] == ("fault", FAULT_DIV)
        assert reference["machine"]["pcs"] == (labels["c"] + 2,)
        assert len(reference["samples"]) == (pad > 2)

    def test_sample_straddling_loop_identical(self):
        binary = compile_source(STRADDLING_LOOP, OUR_MPX, seed=5)
        reference = self.assert_columns_agree(loaded(binary))
        assert len(reference["samples"]) >= 8
        assert reference["cache_misses"]

    def test_callback_identical(self):
        binary = compile_source(CALLBACK, OUR_MPX, seed=5)
        reference = self.assert_columns_agree(loaded(binary))
        assert len(reference["samples"]) >= 4

    @pytest.mark.parametrize("column", PROFILER_COLUMNS)
    @pytest.mark.parametrize(
        "source, seed, stub_cycles",
        ((CALLBACK, 5, 180_122), (CALLBACKS, 1, 430)),
        ids=("CALLBACK", "CALLBACKS"),
    )
    def test_callback_profile_adds_up(self, source, seed, stub_cycles,
                                      column):
        # The native gateway is charged its own cost and the U
        # instructions its trusted callback steps are charged theirs,
        # each once, so the blocks add up to the machine's totals.
        binary = compile_source(source, OUR_MPX, seed=seed)
        machine, profiler = self.profiled(loaded(binary), column)
        machine.run()
        assert sum(profiler.cycles.values()) == machine.wall_cycles
        assert sum(profiler.cache_misses.values()) == sum(
            cache.misses for cache in machine.caches
        )
        assert profiler.cycles["stub.u_qsort"] == stub_cycles

    @staticmethod
    def cut(machine, budget):
        """Run ``machine`` until ``budget`` instructions stop it."""
        with pytest.raises(MachineFault) as info:
            machine.run(max_instructions=budget)
        assert info.value.kind == "instruction-budget-exhausted"

    def test_attach_and_detach_mid_run_identical(self):
        # A profiler attached between two budget cuts and detached
        # before the run finishes sees exactly the instructions retired
        # while it was attached, however it was charged.
        binary = compile_source(STRADDLING_LOOP, OUR_MPX, seed=5)
        cut = self.cut
        signatures = {}
        for column in PROFILER_COLUMNS:
            engine = "reference" if column == "reference" else "predecoded"
            machine = loaded(binary)(engine)
            if column == "handlers":
                machine.add_step_hook(lambda thread, pc, insn, cycles: None)
            cut(machine, 3001)
            profiler = attach_block_profiler(machine)
            folds = []
            self.count_folds(profiler, lambda: folds.append(column))
            cut(machine, 4099)
            detach_block_profiler(machine, profiler)
            profile = self.profile_signature(profiler)
            outcome = machine.run()
            assert self.profile_signature(profiler) == profile
            assert sum(count for _, count in profile["instructions"]) == 4099
            assert bool(folds) == (column == "fused")
            signatures[column] = (
                outcome, machine_signature(machine), profile
            )
        assert signatures["handlers"] == signatures["reference"]
        assert signatures["fused"] == signatures["reference"]
        assert len(signatures["reference"][2]["samples"]) == 4

    def test_two_observers_out_of_phase_identical(self):
        # Profiler A is attached from the start and B after a budget cut
        # at every 7th instruction of a 1024-instruction window, so B's
        # sample points fall at every seventh phase against A's,
        # including a few instructions before or after A's inside one
        # trace (as at the cuts 3064, 3071 and 3078).
        # Stepped columns charge each profiler on its own, so one run
        # per stepped column with a B attached at every cut is the
        # oracle for the fused column's run per cut.
        binary = compile_source(STRADDLING_LOOP, OUR_MPX, seed=5)
        cuts = range(2560, 3584, 7)
        assert {3064, 3071, 3078} <= set(cuts)
        columns = {}
        for column in ("handlers", "reference"):
            machine, first = self.profiled(loaded(binary), column)
            seconds = {}
            for at in cuts:
                self.cut(machine, at - machine.stats.instructions)
                seconds[at] = attach_block_profiler(machine)
            outcome = machine.run()
            columns[column] = {
                at: (
                    outcome,
                    self.profile_signature(first),
                    self.profile_signature(second),
                )
                for at, second in seconds.items()
            }
        assert columns["handlers"] == columns["reference"]
        for at in cuts:
            machine, first = self.profiled(loaded(binary), "fused")
            self.cut(machine, at)
            second = attach_block_profiler(machine)
            fused = (
                machine.run(),
                self.profile_signature(first),
                self.profile_signature(second),
            )
            assert fused == columns["reference"][at], at
        assert len(columns["reference"][3064][1]["samples"]) == 15

    def test_spawn_join_identical(self):
        binary = compile_source(SPAWN_JOIN, OUR_MPX, seed=5)
        batches = []
        reference = self.assert_columns_agree(loaded(binary), batches=batches)
        assert reference["outcome"][0] == "exit"
        assert len(reference["machine"]["regs"]) == 3
        # Multi-thread quanta run fused blocks too.
        assert any({1, 2} <= live for live in batches)


#: Budget cuts through SPAWN_JOIN: every cut around main's two spawns
#: and into its join spin (main keeps stepping the join's re-dispatch
#: for the rest of the quantum it blocked in), then cuts on the grid
#: and mid-quantum through the two-worker stretch, the joins and
#: main's final single-thread loop.
SPAWN_JOIN_CUTS = (
    *range(1, 70),
    *range(640, 6700, 640),
    *range(1001, 6700, 500),
)


@functools.lru_cache(maxsize=None)
def spawn_join_binary():
    return compile_source(SPAWN_JOIN, OUR_MPX, seed=5)


class TestMultiThreadBudget:
    def test_cuts_cover_spin_grid_and_mid_quantum(self):
        process = load(
            spawn_join_binary(), runtime=TrustedRuntime(), engine="reference"
        )
        trace = []

        def hook(thread, pc, insn, cycles):
            trace.append((thread.tid, thread.waiting_on is not None))

        process.machine.add_step_hook(hook)
        process.run()
        cuts = [c for c in SPAWN_JOIN_CUTS if c < len(trace)]
        assert len(cuts) == len(SPAWN_JOIN_CUTS)
        # Cut c retires instructions 1..c; instruction c + 1 is refused.
        spin = [c for c in cuts if trace[c - 1] == trace[c] and trace[c][1]]
        same = [c for c in cuts if trace[c - 1][0] == trace[c][0]]
        mid = [c for c in same if c % 64]
        switch = [c for c in cuts if c % 64 == 0 and c not in same]
        assert spin and mid and len(switch) > 1

    @pytest.mark.parametrize("cut", SPAWN_JOIN_CUTS)
    def test_budget_cut_identical_across_engines(self, cut):
        binary = spawn_join_binary()
        fast = run_engine(binary, "predecoded", max_instructions=cut)
        assert fast[0][:2] == ("fault", "instruction-budget-exhausted")
        assert fast[1]["instructions"] == cut
        assert fast == run_engine(binary, "reference", max_instructions=cut)


class TestInlineMemory:
    """The fused code's page kernels and inlined L1 LRU update agree
    with ``Memory`` and ``L1Cache.access``: every access size, page-
    and line-crossing accesses, most-recently-used and older hits, and
    misses that evict from a full set."""

    @staticmethod
    def program():
        base = MPX_PUB_BASE + 0x2000
        code = [isa.MovRI(regs.RBX, base), isa.MovRI(regs.RAX, 0)]
        for n, (disp, size) in enumerate(
            [(0, 1), (8, 2), (16, 4), (24, 8), (4092, 8), (60, 8), (61, 4)]
        ):
            code.append(
                isa.Store(isa.Mem(base=regs.RBX, disp=disp),
                          isa.Imm(0x1122334455667788 * (n + 1)), size)
            )
            # Reading it back at every width pins the byte order.
            for width in (1, 2, 4, 8):
                code.append(isa.Load(
                    regs.RCX, isa.Mem(base=regs.RBX, disp=disp), width
                ))
                code.append(isa.Alu("add", regs.RAX, regs.RAX, regs.RCX))
        # Lines 4 KiB apart share an L1 set; ten of them overflow its
        # eight ways, and revisits hit older ways.
        for k in (0, 1, 1, 2, 3, 0, 4, 5, 6, 7, 8, 1, 0, 9, 2, 2, 5):
            code.append(
                isa.Load(regs.RCX, isa.Mem(base=regs.RBX, disp=4096 * k), 8)
            )
            code.append(isa.Alu("xor", regs.RAX, regs.RAX, regs.RCX))
        code.append(isa.Halt())
        return code

    def test_identical_across_paths(self):
        signatures = {}
        for column in PROFILER_COLUMNS:
            engine = "reference" if column == "reference" else "predecoded"
            machine = make_machine(self.program(), engine=engine)
            if column == "handlers":
                machine.add_step_hook(lambda thread, pc, insn, cycles: None)
            machine.run()
            signatures[column] = machine_signature(machine)
        assert signatures["fused"] == signatures["reference"]
        assert signatures["handlers"] == signatures["reference"]
        hits, misses = signatures["reference"]["cache"][0]
        assert hits > 8 and misses > 10


class TestTraces:
    """On the unprofiled path a fused block is a trace that runs
    through direct jumps; budget cuts anywhere in one must agree with
    the reference engine."""

    #: A loop whose body is three blocks chained by Jmps:
    #: a (5-7) -> b (3-4) -> c (8-9) -> a while rax < 100.
    CHAINED = [
        isa.MovRI(regs.RAX, 0),
        isa.MovRI(regs.RBX, MPX_PUB_BASE + 0x100),
        isa.Jmp("a", addr=5),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
        isa.Jmp("c", addr=8),
        isa.Store(isa.Mem(base=regs.RBX), regs.RAX, 8),
        isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(2)),
        isa.Jmp("b", addr=3),
        isa.Load(regs.RCX, isa.Mem(base=regs.RBX), 4),
        isa.Br("lt", regs.RAX, isa.Imm(100), "a", addr=5),
        isa.MovRR(regs.RAX, regs.RCX),
        isa.Halt(),
    ]
    LABELS = {"b": 3, "a": 5, "c": 8}

    def make(self, engine):
        return make_machine(self.CHAINED, engine=engine, labels=self.LABELS)

    @pytest.mark.parametrize(
        "name, pc, count",
        [
            ("trace-div-zero", 0, 8),
            ("trace-unmapped", 0, 5),
            ("trace-third-segment", 0, 10),
            ("self-jump", 0, 1),
            ("jump-cycle", 0, 3),
            ("jump-cycle", 1, 2),
        ],
    )
    def test_trace_shapes(self, name, pc, count):
        # The fault programs' traces: faults after a followed Jmp, and
        # jump cycles that stop formation before a repeated pc.
        machine = make_machine(FAULT_PROGRAMS[name])
        assert machine._fuser.fuse(pc)[1] == count

    def test_chained_loop_forms_traces(self):
        fuse = self.make("predecoded")._fuser.fuse
        assert fuse(0)[1] == 10  # 0-2, a, b, c
        assert fuse(5)[1] == 7  # a, b, c
        # A tallying trace is the same trace, one segment per label.
        record = fuse(5, tally=True)[3]
        assert fuse(5, tally=True)[1] == 7
        assert [(pc, len(charges)) for pc, charges in record[3]] == [
            (5, 3), (3, 2), (8, 2)
        ]

    def test_budget_cut_at_every_instruction(self):
        reference = self.make("reference")
        assert reference.run() == 99
        total = reference.stats.instructions
        for cut in range(1, total):
            signatures = {}
            for engine in ENGINES:
                machine = self.make(engine)
                with pytest.raises(MachineFault) as info:
                    machine.run(max_instructions=cut)
                assert info.value.kind == "instruction-budget-exhausted"
                signatures[engine] = machine_signature(machine)
            assert signatures["predecoded"] == signatures["reference"], cut
            assert signatures["reference"]["instructions"] == cut

    @pytest.mark.parametrize("budget", (999, 1000, 1001))
    @pytest.mark.parametrize("name", ("self-jump", "jump-cycle"))
    def test_jump_cycle_budget_fault_identical(self, name, budget):
        signatures = {}
        for engine in ENGINES:
            machine = make_machine(FAULT_PROGRAMS[name], engine=engine)
            with pytest.raises(MachineFault) as info:
                machine.run(max_instructions=budget)
            assert info.value.kind == "instruction-budget-exhausted"
            signatures[engine] = machine_signature(machine)
        assert signatures["predecoded"] == signatures["reference"]

    def test_jmp_ended_blocks_of_a_program_become_traces(self):
        # Guards the optimisation itself: every block a run entered
        # whose basic block ends in a Jmp out of it runs on into the
        # target, unless the basic block is already MAX_BLOCK long.
        binary = compile_source(STRADDLING_LOOP, OUR_MPX, seed=5)
        machine = loaded(binary)("predecoded")
        assert machine.run() == 52
        fuse = machine._fuser.fuse
        traced = 0
        for pc, entry in enumerate(machine._blocks):
            record = entry and fuse(pc, tally=True)[3]
            if not record:
                continue
            # The trace's first segment is the basic block at pc.
            block = len(record[3][0][1])
            last = machine.code[pc + block - 1]
            if (
                type(last) is isa.Jmp
                and not pc <= last.addr < pc + block
                and block < MAX_BLOCK
            ):
                assert entry[1] > block, pc
                traced += 1
        assert traced >= 3


class TestCallbackCut:
    """A budget cut inside a trusted callback leaves the thread in U
    code the native was running: the machine refuses to resume rather
    than run that code as if no native frame were pending."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("cut", (500, 1500, 3000))
    def test_resume_after_cut(self, engine, cut):
        binary = compile_source(CALLBACK, OUR_MPX, seed=5)
        machine = loaded(binary)(engine)
        with pytest.raises(MachineFault) as info:
            machine.run(max_instructions=cut)
        assert info.value.kind == "instruction-budget-exhausted"
        if cut == 500:
            # Before the callback: an ordinary resumable cut.
            assert machine.torn_callback is None
            assert machine.run() == 128
            return
        assert "u_qsort" in info.value.detail
        before = machine_signature(machine)
        with pytest.raises(MachineFault) as info:
            machine.run()
        assert info.value.kind == FAULT_TORN
        assert "u_qsort" in info.value.detail
        assert machine_signature(machine) == before
        machine.reset()
        assert machine.run() == 128

    @pytest.mark.parametrize("cut", (1500, 3000))
    def test_cut_state_identical_across_engines(self, cut):
        binary = compile_source(CALLBACK, OUR_MPX, seed=5)
        signatures = {}
        for engine in ENGINES:
            machine = loaded(binary)(engine)
            with pytest.raises(MachineFault):
                machine.run(max_instructions=cut)
            signatures[engine] = machine_signature(machine)
        assert signatures["predecoded"] == signatures["reference"]


class TestBudgetBoundary:
    """The instruction budget gates *starting* an instruction: a
    program whose final budgeted instruction halts it must return its
    exit code, not be misreported as evicted.  Regression tests for the
    off-by-one where ``budget <= 0`` was checked before
    ``thread.alive``, run across both engines (the fast engine's fused
    blocks additionally stop short of the budget here)."""

    def straight_line(self, n_movs):
        code = [isa.MovRI(regs.RAX, 41) for _ in range(n_movs)]
        code.append(isa.MovRI(regs.RAX, 42))
        code.append(isa.Halt())
        return code

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_movs", (4, 100))  # within / past a quantum
    def test_exact_budget_halt_returns_exit_code(self, engine, n_movs):
        code = self.straight_line(n_movs)
        machine = make_machine(code, engine=engine)
        exit_code = machine.run(max_instructions=len(code))
        assert exit_code == 42
        assert machine.stats.instructions == len(code)
        assert "instruction-budget-exhausted" not in machine.stats.faults

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_movs", (4, 100))
    def test_one_instruction_short_still_evicts(self, engine, n_movs):
        code = self.straight_line(n_movs)
        machine = make_machine(code, engine=engine)
        with pytest.raises(MachineFault) as excinfo:
            machine.run(max_instructions=len(code) - 1)
        assert excinfo.value.kind == "instruction-budget-exhausted"
        assert machine.stats.instructions == len(code) - 1
        assert machine.exit_code is None

    def test_budget_fault_state_identical_across_engines(self):
        # Evict a spin loop on a budget that lands mid-block and
        # mid-quantum; retired counts and pcs must agree bit-for-bit.
        code = [
            isa.MovRI(regs.RAX, 0),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(1)),
            isa.Jmp("loop", addr=1),
            isa.Halt(),
        ]
        signatures = {}
        for engine in ENGINES:
            machine = make_machine(code, engine=engine)
            with pytest.raises(MachineFault) as excinfo:
                machine.run(max_instructions=1001)
            assert excinfo.value.kind == "instruction-budget-exhausted"
            signatures[engine] = machine_signature(machine)
        assert signatures["predecoded"] == signatures["reference"]

"""Basic-block profiling and per-site check-overhead attribution.

This module answers "which *function* are the cycles in?" (a roll-up of
the block totals, :meth:`BlockProfiler.function_report`) and the two
questions the paper's evaluation actually turns on:

* **which basic block** do cycles, instructions, and L1 cache misses
  land on, and along which control-flow edges does execution travel
  (Fig. 7's observation that ~70% of Privado's time is one tight
  loop); and
* **which inserted check** costs what — every executed ``bnd`` / CFI /
  magic-word / stack-probe / shadow-stack site is charged its exact
  simulated cycle cost, rolled up per category into the Fig. 5-8-style
  overhead decomposition the ``report`` CLI subcommand renders.

Blocks are the intervals between consecutive labels in the linked
binary's ``label_addrs`` — every branch target carries a label, so
label-delimited intervals are exactly the leader-delimited basic
blocks of the final code.  The profiler attaches through
``Machine.add_step_hook`` as a *block observer*.  Wherever a machine
steps instructions one at a time through the step hooks (the reference
engine, what no whole trace fits in at the end of a quantum or of the
budget, runs with other step hooks, and a trace whose cost only
stepping can attribute) it is charged per instruction by
:meth:`BlockProfiler.on_step`.  Wherever the fast engine runs traces --
single- and multi-thread schedules alike -- the traces tally their own
runs, one record per trace with a segment per profiler block it passes
through, and :meth:`BlockProfiler.fold_blocks` folds one thread's
records in whenever the machine's block loop steps, reaches a sample
point or stops, each into its trace's running sums; the per-block,
per-edge and per-site totals are expanded from those sums when read.
The trace that reaches a sample point runs whole, noting where its
misses and delegated cycles fell, and the machine hands the profiler
the sample as of the point (:meth:`BlockProfiler.sample_within`).  The
per-instruction path is the oracle: both paths, and both engines,
report identical totals, edges, sites, samples and flamegraphs,
faulting runs included -- pinned by a differential test.

Zero-cost when off: nothing here runs unless a profiler is attached,
and attaching one never changes the binary or simulated cycles.

Usage::

    process = compile_and_load(src, OUR_MPX)
    prof = attach_block_profiler(process.machine)
    process.run()
    for row in prof.report(top=5):
        print(row.name, row.cycles, row.cache_misses)
    for row in prof.function_report(top=5):
        print(row.name, row.cycles, row.bnd_checks, row.cfi_checks)
    print(prof.check_summary())
    write_flamegraph(prof, "out.folded")
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass

from ..backend.isa import CHECK_CATEGORIES, check_kind
from ..machine.costs import CACHE_MISS_PENALTY

#: Deterministic sampling stride for counter tracks: one sample per
#: this many retired instructions.  Keyed on instruction counts (not
#: host time), so the sampled trajectory is identical across engines.
SAMPLE_STRIDE = 1024

#: The check-cycle counter tracks, one per category.
_CHECK_TRACKS = tuple(
    f"blockprof.check_cycles.{cat}" for cat in CHECK_CATEGORIES
)


@dataclass
class BlockRow:
    """One basic block's attribution totals."""

    name: str
    func: str
    start: int
    cycles: int
    instructions: int
    cache_misses: int
    cycle_share: float


@dataclass
class FunctionRow:
    """One function's totals, rolled up from its blocks and sites."""

    name: str
    cycles: int = 0
    instructions: int = 0
    cycle_share: float = 0.0
    bnd_checks: int = 0
    cfi_checks: int = 0


@dataclass
class CheckSiteRow:
    """One executed check site's exact cost."""

    addr: int
    category: str
    block: str
    func: str
    count: int
    cycles: int


class _Trace:
    """One trace's plan, built on its first fold or sample, and what
    its folded runs added up to."""

    __slots__ = (
        "segments", "blocks", "count", "checks", "sites",
        "runs", "extra", "misses", "preds",
    )

    def __init__(self, segments: tuple, blocks: tuple, sites: tuple):
        # Kept so that id(segments), the trace's key, stays unique.
        self.segments = segments
        # Per segment: (block name, block start, instructions, static
        # cycles).
        self.blocks = blocks
        self.count = sum(block[2] for block in blocks)
        # Check sites as (index in the trace, pc, category, cycles), and
        # their cycles per category.
        self.sites = sites
        checks: dict[str, int] = {}
        for _, _, kind, cost in sites:
            checks[kind] = checks.get(kind, 0) + cost
        self.checks = tuple(checks.items())
        self.runs = self.extra = 0
        self.misses = [0] * len(blocks)
        # Anchor pc of the block run before the first segment -> runs.
        self.preds: dict[int, int] = {}


def _merged_view(field: str, doc: str) -> property:
    return property(lambda self: self._view()[field], doc=doc)


class BlockProfiler:
    """Attributes execution to basic blocks, edges, and check sites."""

    def __init__(self, machine):
        binary = machine.binary
        self._machine = machine
        # One anchor per address: every label is a block leader.  When
        # a function label and a block label share an address, keep the
        # lexicographically-first name (deterministic either way).
        anchors: dict[int, str] = {}
        for name, addr in sorted(binary.label_addrs.items()):
            anchors.setdefault(addr, name)
        starts = sorted(anchors)
        self._starts = starts
        self._names = [anchors[a] for a in starts]
        # Function anchors: labels without a dot, plus T-import stubs
        # (lexicographically-first name again when two share an
        # address).  Every function anchor is also a block anchor, so
        # each block lies inside exactly one function.
        fn_anchors: dict[int, str] = {}
        for name, addr in sorted(binary.label_addrs.items()):
            if "." not in name or name.startswith("stub."):
                fn_anchors.setdefault(addr, name)
        self._fn_starts = sorted(fn_anchors)
        self._fn_names = [fn_anchors[a] for a in self._fn_starts]

        # What on_step charged: block name -> cycles, instructions, L1
        # misses and start; (src, dst) -> runs; pc -> [category, count,
        # cycles].
        self._stepped = {
            "cycles": {}, "instructions": {}, "cache_misses": {},
            "block_start": {}, "edges": {}, "sites": {},
        }
        # id(segments) -> _Trace: what fold_blocks charged.
        self._traces: dict[int, _Trace] = {}
        # Both merged, while nothing new was charged.
        self._merged: dict | None = None
        # Thread id -> anchor pc of the block it ran last.
        self._last_block: dict[int, int] = {}
        self._steps = 0
        # Running totals the counter-track samples read: check cycles
        # per category and L1 misses.
        self._checks = dict.fromkeys(CHECK_CATEGORIES, 0)
        self._missed = 0
        # Deterministic counter-track samples: (instruction index,
        # core-cycle timestamp, {track: cumulative value}).
        self.samples: list[tuple[int, int, dict]] = []

    cycles = _merged_view("cycles", "Block name -> cycles.")
    instructions = _merged_view("instructions", "Block name -> instructions.")
    cache_misses = _merged_view(
        "cache_misses", "Block name -> L1 misses (blocks that took some)."
    )
    block_start = _merged_view("block_start", "Block name -> start address.")
    edges = _merged_view("edges", "(src, dst) block names -> runs.")
    sites = _merged_view(
        "sites", "Check site pc -> [category, count, cycles]."
    )

    # -- symbolization ---------------------------------------------------

    def symbolize(self, pc: int) -> str:
        index = bisect.bisect_right(self._starts, pc) - 1
        if index < 0:
            return "<prelude>"
        return self._names[index]

    def func_of(self, pc: int) -> str:
        index = bisect.bisect_right(self._fn_starts, pc) - 1
        if index < 0:
            return "<prelude>"
        return self._fn_names[index]

    def _start(self, pc: int) -> int:
        index = bisect.bisect_right(self._starts, pc) - 1
        return self._starts[index] if index >= 0 else 0

    # -- the step hook ---------------------------------------------------

    def on_step(self, thread, pc: int, insn, cycles: int) -> None:
        """Machine step-hook entry point (see ``Machine.add_step_hook``)."""
        self._merged = None
        stepped = self._stepped
        index = bisect.bisect_right(self._starts, pc) - 1
        name = self._names[index] if index >= 0 else "<prelude>"
        totals = stepped["cycles"]
        totals[name] = totals.get(name, 0) + cycles
        insns = stepped["instructions"]
        insns[name] = insns.get(name, 0) + 1
        misses = self._machine.hook_cache_misses
        if misses:
            missing = stepped["cache_misses"]
            missing[name] = missing.get(name, 0) + misses
            self._missed += misses
        if name not in stepped["block_start"]:
            stepped["block_start"][name] = self._start(pc)
        # The anchor convention of the machine's tallies: the block's
        # label address, or the pc itself before the first label.
        anchor = self._starts[index] if index >= 0 else pc
        last = self._last_block.get(thread.tid)
        if last != anchor:
            if last is not None:
                _edge(stepped["edges"], self.symbolize(last), name, 1)
            self._last_block[thread.tid] = anchor
        kind = check_kind(insn)
        if kind is not None:
            site = stepped["sites"].get(pc)
            if site is None:
                site = stepped["sites"][pc] = [kind, 0, 0]
            site[1] += 1
            site[2] += cycles
            self._checks[kind] += cycles
        self._steps += 1
        if self._steps % SAMPLE_STRIDE == 0:
            self._sample(thread)

    # -- the fused-block path ------------------------------------------

    def until_sample(self, unfolded: int = 0) -> int:
        """Instructions left up to and including the next sample point,
        ``unfolded`` instructions after what was folded in."""
        return SAMPLE_STRIDE - (self._steps + unfolded) % SAMPLE_STRIDE

    def fold_blocks(self, thread, tallies: list, last: int) -> None:
        """Fold in the trace runs ``thread`` tallied since the last fold
        (see ``Machine.add_step_hook`` for the layout): each record adds
        to its trace's running sums and to the running totals the
        samples read.  A predecessor of -1 is the block the thread ran
        before the batch."""
        self._merged = None
        traces, checks = self._traces, self._checks
        before = self._last_block.get(thread.tid)
        steps = missed = 0
        for record in tallies:
            segments = record[3]
            trace = traces.get(id(segments)) or self._trace(segments)
            runs = record[0]
            trace.runs += runs
            trace.extra += record[1]
            misses = record[4:]
            trace.misses = list(map(operator.add, trace.misses, misses))
            missed += sum(misses)
            preds = trace.preds
            for pred, n in record[2].items():
                if pred < 0:
                    if before is None:
                        continue
                    pred = before
                preds[pred] = preds.get(pred, 0) + n
            steps += runs * trace.count
            for kind, cost in trace.checks:
                checks[kind] += runs * cost
        self._steps += steps
        self._missed += missed
        self._last_block[thread.tid] = last

    def sample_within(self, segments: tuple, point: int, ts: int,
                      misses: int) -> None:
        """Take the sample ``point`` instructions into a run of the
        trace of ``segments`` that reaches this profiler's next sample
        point: ``ts`` is the core's cycles there and ``misses`` the L1
        misses the run took before it."""
        trace = self._traces.get(id(segments)) or self._trace(segments)
        values = dict(zip(_CHECK_TRACKS, self._checks.values()))
        for index, _, kind, cost in trace.sites:
            if index >= point:
                break
            values[f"blockprof.check_cycles.{kind}"] += cost
        values["blockprof.cache_misses"] = self._missed + misses
        self.samples.append((self._steps + point, ts, values))

    def _trace(self, segments: tuple) -> _Trace:
        code = self._machine.code
        blocks, sites, index = [], [], 0
        for pc, charges in segments:
            blocks.append((
                self.symbolize(pc), self._start(pc), len(charges), sum(charges)
            ))
            for addr, cost in enumerate(charges, pc):
                kind = check_kind(code[addr])
                if kind is not None:
                    sites.append((index + addr - pc, addr, kind, cost))
            index += len(charges)
        trace = self._traces[id(segments)] = _Trace(
            segments, tuple(blocks), tuple(sites)
        )
        return trace

    def _view(self) -> dict:
        """What on_step charged merged with the folded traces' sums
        expanded per block, edge and site."""
        if self._merged is not None:
            return self._merged
        view = {field: dict(values) for field, values in self._stepped.items()}
        view["sites"] = {pc: list(site) for pc, site in view["sites"].items()}
        totals, insns = view["cycles"], view["instructions"]
        missing, starts = view["cache_misses"], view["block_start"]
        edges, sites = view["edges"], view["sites"]
        for trace in self._traces.values():
            runs = trace.runs
            if not runs:  # sampled, never folded
                continue
            src = None
            for (name, start, count, static), missed in zip(
                trace.blocks, trace.misses
            ):
                totals[name] = (
                    totals.get(name, 0) + runs * static
                    + missed * CACHE_MISS_PENALTY
                )
                insns[name] = insns.get(name, 0) + runs * count
                if missed:
                    missing[name] = missing.get(name, 0) + missed
                starts.setdefault(name, start)
                if src is None:
                    for pred, n in trace.preds.items():
                        _edge(edges, self.symbolize(pred), name, n)
                else:
                    _edge(edges, src, name, runs)
                src = name
            # What delegated handlers charged (a jump table's load, say)
            # is the last segment's.
            totals[name] += trace.extra
            for _, pc, kind, cost in trace.sites:
                site = sites.get(pc)
                if site is None:
                    site = sites[pc] = [kind, 0, 0]
                site[1] += runs
                site[2] += runs * cost
        self._merged = view
        return view

    def _sample(self, thread) -> None:
        ts = self._machine.core_cycles[thread.core]
        self.samples.append((self._steps, ts, self._totals()))

    def _totals(self) -> dict:
        """The counter tracks' values now."""
        values = dict(zip(_CHECK_TRACKS, self._checks.values()))
        values["blockprof.cache_misses"] = self._missed
        return values

    # -- reports ---------------------------------------------------------

    def report(self, top: int | None = None) -> list[BlockRow]:
        """Per-block rows, cycles-descending with name tie-break."""
        total = sum(self.cycles.values()) or 1
        rows = [
            BlockRow(
                name=name,
                func=self.func_of(self.block_start[name]),
                start=self.block_start[name],
                cycles=cycles,
                instructions=self.instructions.get(name, 0),
                cache_misses=self.cache_misses.get(name, 0),
                cycle_share=cycles / total,
            )
            for name, cycles in self.cycles.items()
        ]
        rows.sort(key=lambda r: (-r.cycles, r.name))
        return rows[:top] if top else rows

    def function_report(self, top: int | None = None) -> list[FunctionRow]:
        """Per-function rows — code before the first function label
        lands in ``<prelude>``, T-import stubs in their ``stub.*``
        bucket — cycles-descending with name tie-break."""
        rows: dict[str, FunctionRow] = {}
        for block in self.report():
            row = rows.setdefault(block.func, FunctionRow(block.func))
            row.cycles += block.cycles
            row.instructions += block.instructions
        for site in self.check_sites():
            row = rows[site.func]
            if site.category == "bnd":
                row.bnd_checks += site.count
            elif site.category == "cfi":
                row.cfi_checks += site.count
        total = sum(self.cycles.values()) or 1
        for row in rows.values():
            row.cycle_share = row.cycles / total
        ordered = sorted(rows.values(), key=lambda r: (-r.cycles, r.name))
        return ordered[:top] if top else ordered

    def edge_report(
        self, top: int | None = None
    ) -> list[tuple[str, str, int]]:
        """(src, dst, count) control-flow edges, count-descending."""
        rows = [(src, dst, n) for (src, dst), n in self.edges.items()]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows[:top] if top else rows

    def check_sites(self) -> list[CheckSiteRow]:
        """Every executed check site with its exact cycle cost."""
        rows = [
            CheckSiteRow(
                addr=addr,
                category=cat,
                block=self.symbolize(addr),
                func=self.func_of(addr),
                count=count,
                cycles=cycles,
            )
            for addr, (cat, count, cycles) in self.sites.items()
        ]
        rows.sort(key=lambda r: (-r.cycles, r.addr))
        return rows

    def check_summary(self) -> dict[str, dict]:
        """Per-category totals; every category is present (zeros kept),
        so decompositions never silently drop an axis."""
        summary = {
            cat: {"count": 0, "cycles": 0} for cat in CHECK_CATEGORIES
        }
        for _addr, (cat, count, cycles) in sorted(self.sites.items()):
            summary[cat]["count"] += count
            summary[cat]["cycles"] += cycles
        return summary

    # -- exporters -------------------------------------------------------

    def flamegraph_lines(self) -> list[str]:
        """Collapsed-stack lines (``func;block cycles``) for flamegraph
        tooling.  The function-entry block collapses onto the function
        frame itself; lines are sorted for byte-stable output."""
        folded: dict[str, int] = {}
        for row in self.report():
            frame = (
                row.func
                if row.name == row.func
                else f"{row.func};{row.name}"
            )
            folded[frame] = folded.get(frame, 0) + row.cycles
        return [f"{frame} {value}" for frame, value in sorted(folded.items())]

    def publish(self, registry) -> None:
        """Fold the profile into an obs registry: roll-up counters plus
        Perfetto counter-track samples on the cycle clock."""
        summary = self.check_summary()
        for cat in CHECK_CATEGORIES:
            registry.counter("blockprof.check_cycles", kind=cat).inc(
                summary[cat]["cycles"]
            )
            registry.counter("blockprof.check_count", kind=cat).inc(
                summary[cat]["count"]
            )
        registry.counter("blockprof.blocks").inc(len(self.cycles))
        registry.counter("blockprof.edges").inc(len(self.edges))
        # Close the trajectory with the final totals so short runs
        # (under one stride) still draw a track.
        wall = max(self._machine.core_cycles) if self._machine.core_cycles else 0
        samples = [*self.samples, (self._steps, wall, self._totals())]
        for _steps, ts, values in samples:
            for track, value in sorted(values.items()):
                registry.add_counter_sample(track, ts, value)


def _edge(edges: dict, src: str, dst: str, runs: int) -> None:
    if src != dst:
        edges[src, dst] = edges.get((src, dst), 0) + runs


def attach_block_profiler(machine) -> BlockProfiler:
    """Attach a fresh block profiler via the machine's step-hook API
    (as a block observer, so the fast engine stays on fused blocks)."""
    profiler = BlockProfiler(machine)
    machine.add_step_hook(profiler.on_step)
    return profiler


def detach_block_profiler(machine, profiler: BlockProfiler) -> None:
    """Stop a profiler attached with :func:`attach_block_profiler`."""
    machine.remove_step_hook(profiler.on_step)


def write_flamegraph(profiler: BlockProfiler, path: str) -> None:
    """Write the collapsed-stack profile to ``path`` (one frame per
    line, ``flamegraph.pl``/speedscope-compatible)."""
    with open(path, "w") as handle:
        for line in profiler.flamegraph_lines():
            handle.write(line + "\n")

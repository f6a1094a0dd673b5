"""The virtual CPU: executes linked binaries with cycle accounting.

The machine implements ConfISA exactly as the instrumentation expects:

* memory operands compute ``seg + (base & 0xffffffff) + ...`` when the
  32-bit segmentation addressing is in use, so fs/gs-prefixed accesses
  physically cannot escape their segment (Section 3);
* MPX bound checks compare against the ``bnd0``/``bnd1`` ranges the
  loader installed and fault on violation;
* CFI checks read *code as data*: ``CheckMagic`` fetches the 64-bit
  encoding of the word at the target address and compares it with the
  (re-negated) expected magic value (Section 4);
* unmapped accesses fault — guard areas are simply unmapped.

Both execution engines step one instruction at a time through one
:meth:`Machine._step` over a per-pc step table, which also measures
each instruction for the step hooks:

* the **reference** engine's table entries interpret ``code[pc]``
  through the dict dispatch over the ``_i_*`` handlers below
  (:meth:`Machine._execute`): the executable specification;
* the **predecoded** engine (default) runs code generated by
  :mod:`repro.machine.superblock` the first time execution reaches it.
  Every quantum runs whole traces -- straight-line code through
  unconditional direct jumps -- fused into one function each
  while a block's count fits in what is left of the quantum and of
  the instruction budget, paying dispatch once per block with
  Stats/cycle accounting batched between fault points, and steps the
  rest through its table of one-instruction blocks.  A single live
  thread runs blocks back to back across quanta until a schedule
  event (a thread spawn, join or exit) or the budget.  With block
  profilers attached the same loop runs the same traces, emitted to
  tally their own runs for them; any other step hook sends every
  instruction through the step table.  Rare instructions (jump tables,
  indirect control flow, shadow-stack ops) call the reference ``_i_*``
  handler.

The engines are observably identical — simulated cycles, ``Stats``
counters, fault kinds/addresses, and the ``add_step_hook`` API agree
bit-for-bit (pinned by the differential suite under
``tests/machine/test_engine_equivalence.py``); only host wall-clock
differs.

Multi-threading is round-robin over a fixed number of cores, one
``QUANTUM`` (64 instructions) per runnable thread per round, with
per-core cycle counters and per-core L1 caches; simulated wall-clock
time is the maximum core time.
"""

from __future__ import annotations

from ..arith import MASK64, eval_bin, eval_un, signed
from ..backend import isa, regs
from ..errors import (
    FAULT_BOUNDS,
    FAULT_CFI,
    FAULT_CHKSTK,
    FAULT_EXEC,
    FAULT_TORN,
    FAULT_UNMAPPED,
    MachineFault,
)
from ..link.layout import CODE_BASE, NATIVE_BASE, THREAD_STACK_SIZE
from . import costs
from .cache import LINE_SIZE, L1Cache
from .memory import Memory
from .superblock import QUANTUM, BlockFuser

MASK32 = 0xFFFFFFFF

ENGINE_PREDECODED = "predecoded"
ENGINE_REFERENCE = "reference"
ENGINES = (ENGINE_PREDECODED, ENGINE_REFERENCE)


class Thread:
    __slots__ = (
        "tid",
        "regs",
        "pc",
        "alive",
        "core",
        "shadow",
        "pub_stack",
        "priv_stack",
        "waiting_on",
        "ready_time",
        "finish_time",
    )

    def __init__(self, tid: int, core: int):
        self.tid = tid
        self.regs = [0] * regs.NUM_GPRS
        self.pc = 0
        self.alive = True
        self.core = core
        self.shadow: list[int] = []
        self.pub_stack = (0, 0)
        self.priv_stack = (0, 0)
        # tid of a thread this one is blocked joining on (consumes no
        # core cycles while set).
        self.waiting_on: int | None = None
        # Virtual-time bookkeeping: a thread cannot execute before it
        # was spawned, and a joiner resumes no earlier than the target
        # finished.
        self.ready_time = 0
        self.finish_time = 0


class Stats:
    __slots__ = (
        "instructions",
        "bnd_checks",
        "cfi_checks",
        "calls",
        "t_calls",
        "loads",
        "stores",
        "faults",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)
        # Fault kind -> occurrence count (a fault normally ends the run,
        # but callers that catch-and-restart keep accumulating here).
        self.faults: dict[str, int] = {}


class Machine:
    def __init__(self, binary, natives, n_cores: int = 4,
                 engine: str = ENGINE_PREDECODED):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; pick from {ENGINES}")
        self.binary = binary
        self.config = binary.config
        self.layout = binary.layout
        self.code = binary.code
        self.natives = natives  # list of callables(machine, thread)
        self.mem = Memory()
        self.n_cores = n_cores
        self.caches = [L1Cache() for _ in range(n_cores)]
        self.core_cycles = [0] * n_cores
        self.threads: list[Thread] = []
        self.stats = Stats()
        self.exit_code: int | None = None
        # Architectural state installed by the loader:
        self.fs_base = 0
        self.gs_base = 0
        self.bnd = [(0, 0), (0, 0)]  # bnd0 (public), bnd1 (private)
        self._next_tid = 0
        # Post-load image captured by seal(); reset() rewinds to it.
        self._image_state = None
        # Step hooks: callables (thread, pc, insn, cycles) invoked after
        # every retired instruction.  Empty by default; the fast path
        # pays one truthiness test per instruction and nothing else.
        self._step_hooks: list = []
        # The owners of the attached hooks when every hook is a block
        # observer (see add_step_hook), else None.  ``()`` with no hooks.
        self._block_observers: tuple | None = ()
        # While hooks are attached, the cache-miss delta of the retiring
        # instruction (on the executing thread's core) is published here
        # before the hooks run, so profilers can attribute L1 events
        # per block without changing the hook signature.  Never updated
        # on the hook-free fast path.
        self.hook_cache_misses = 0
        # The cycles and cache misses the step hooks were handed so far
        # (running totals; see _step).
        self._hooked = [0, 0]
        # The ``stats.instructions`` count at which the current run's
        # budget is spent, and whether a trusted callback stepped U
        # code since the fused loop last started (see ``run``).
        self._budget_end = 0
        self._called_back = False
        # The trusted function whose callback the last run stopped
        # inside (see ``TContext.call_u``), else None.
        self.torn_callback: str | None = None
        self._dispatch = {
            isa.MagicWord: self._i_magic,
            isa.MovRI: self._i_mov_ri,
            isa.MovRR: self._i_mov_rr,
            isa.MovFuncAddr: self._i_mov_fa,
            isa.Alu: self._i_alu,
            isa.SetCC: self._i_setcc,
            isa.Load: self._i_load,
            isa.Store: self._i_store,
            isa.Lea: self._i_lea,
            isa.Push: self._i_push,
            isa.Pop: self._i_pop,
            isa.Jmp: self._i_jmp,
            isa.JmpTable: self._i_jmp_table,
            isa.Br: self._i_br,
            isa.CallD: self._i_call_d,
            isa.CallI: self._i_call_i,
            isa.RetPlain: self._i_ret,
            isa.JmpInd: self._i_jmp_ind,
            isa.JmpReg: self._i_jmp_reg,
            isa.CheckMagic: self._i_check_magic,
            isa.BndChk: self._i_bndchk,
            isa.ChkStk: self._i_chkstk,
            isa.TlsBase: self._i_tlsbase,
            isa.ShadowPush: self._i_shadow_push,
            isa.ShadowPop: self._i_shadow_pop,
            isa.Halt: self._i_halt,
            isa.Fail: self._i_fail,
        }
        self.engine = engine
        # code[pc] -> what _step runs for it; on the fast engine, also
        # code[pc] -> fused block entry, emitted lazily by the fuser.
        self._blocks: list | None = None
        self._tallied: list | None = None
        # The tallying traces' pending records and the label address of
        # the profiler block the running thread last ran (-1: none since
        # a fold); see BlockFuser.
        self._pending: list[list] = []
        self._prev = [-1]
        self._fuser = None
        if engine == ENGINE_REFERENCE:
            self._steps = [self._execute] * len(self.code)
        else:
            self._fuser = BlockFuser(self)
            self._steps = self._fuser.steps
            self._blocks = [None] * len(self.code)

    # ------------------------------------------------------------------
    # Step hooks (the supported way to observe execution; replaces the
    # old pattern of monkey-patching ``_step``, which composed wrongly
    # when attached twice)

    def add_step_hook(self, hook) -> None:
        """Register ``hook(thread, pc, insn, cycles)`` to run after each
        retired instruction.  ``cycles`` is the simulated cost the
        instruction added to its core, cache penalties included; the
        instruction's cache-miss count is readable from
        ``machine.hook_cache_misses`` during the callback.  The U
        instructions a trusted callback steps inside a native gateway
        reach the hooks first, so the gateway is handed only its own
        cycles and misses.

        A hook that is the ``on_step`` method of an object that also has
        ``fold_blocks`` is a *block observer* (the block profiler).
        While only block observers are attached, the fast engine keeps
        running the traces of unprofiled runs in every quantum, single-
        and multi-thread alike, and the traces tally their own runs;
        any other hook sends every instruction through the step table.
        Each observer gets one thread's tallies at a time as
        ``fold_blocks(thread, tallies, last)``: ``tallies`` lists the
        records ``[runs, extra, preds, segments, *misses]`` of the
        traces that ran, each segment ``(pc, charges)`` inside one
        profiler block (see ``BlockFuser``), and ``last`` is the label
        address of the profiler block the thread ran last.  Everything
        is folded before ``observer.until_sample()`` more instructions
        retire, except the run of the one trace that reaches that
        sample point, which hands the observer the sample as of the
        point first, as ``sample_within(segments, point, ts, misses)``:
        ``point`` instructions into the trace, at ``ts`` core cycles,
        after the run took ``misses`` L1 misses.  Nothing is pending
        once a run returns or raises, so detaching needs no fold."""
        if hook in self._step_hooks:
            raise ValueError("step hook already attached")
        self._step_hooks.append(hook)
        self._refresh_observers()

    def remove_step_hook(self, hook) -> None:
        if hook not in self._step_hooks:
            raise ValueError("step hook not attached")
        self._step_hooks.remove(hook)
        self._refresh_observers()

    def _refresh_observers(self) -> None:
        owners = []
        for hook in self._step_hooks:
            owner = getattr(hook, "__self__", None)
            if (
                not hasattr(owner, "fold_blocks")
                or hook != getattr(owner, "on_step", None)
            ):
                self._block_observers = None
                return
            owners.append(owner)
        self._block_observers = tuple(owners)
        if owners and self._blocks is not None and self._tallied is None:
            self._tallied = [None] * len(self.code)

    # ------------------------------------------------------------------
    # Thread management

    def spawn(self, pc: int, stack_slot: int | None = None) -> Thread:
        tid = self._next_tid
        self._next_tid += 1
        slot = stack_slot if stack_slot is not None else tid
        thread = Thread(tid, core=tid % self.n_cores)
        thread.pc = pc
        pub_lo, pub_hi = self.layout.stack_range(False, slot)
        thread.pub_stack = (pub_lo, pub_hi)
        if self.layout.private is not None:
            thread.priv_stack = self.layout.stack_range(True, slot)
        # Leave headroom and keep 16-byte alignment.
        thread.regs[regs.RSP] = pub_hi - 64
        self.threads.append(thread)
        return thread

    @property
    def wall_cycles(self) -> int:
        return max(self.core_cycles)

    @property
    def total_cycles(self) -> int:
        return sum(self.core_cycles)

    # ------------------------------------------------------------------
    # Image snapshot / reset

    def seal(self):
        """Freeze the current state as this machine's *image* — the
        point ``reset()`` rewinds to.  The loader seals every machine
        at the end of ``load()``, so a loaded machine can always be
        rewound to its pristine post-load state without re-linking."""
        from .snapshot import MachineState

        self._image_state = MachineState.capture(self)
        return self._image_state

    def reset(self) -> None:
        """Restore the sealed post-load image in place: memory (lazy,
        copy-on-write), caches, cycle counters, Stats, threads, and
        protection state.  Step hooks stay attached."""
        if self._image_state is None:
            raise ValueError("machine was never sealed; cannot reset")
        self._image_state.restore(self)

    # ------------------------------------------------------------------
    # Execution

    def run(self, max_instructions: int = 500_000_000) -> int:
        """Run until every thread halts; returns main's exit code.

        ``max_instructions`` budgets every instruction the run starts,
        including the U code trusted callbacks step (``TContext.call_u``
        stops a callback where the budget runs out).  A callback counts
        against the scheduler's budget at the end of the quantum it ran
        in, never against the quantum itself.

        A run that stopped inside a trusted callback left its thread in
        U code the native was running, so the next run raises a
        ``FAULT_TORN`` fault naming the trusted function instead of
        resuming; nothing is retired or counted until ``reset()``.
        """
        if self.torn_callback is not None:
            raise MachineFault(
                FAULT_TORN,
                f"the last run stopped inside a callback of trusted "
                f"{self.torn_callback}; reset() before running again",
            )
        self._budget_end = self.stats.instructions + max_instructions
        try:
            return self._run_loop(max_instructions)
        except MachineFault as fault:
            self.stats.faults[fault.kind] = (
                self.stats.faults.get(fault.kind, 0) + 1
            )
            raise

    def _run_loop(self, max_instructions: int) -> int:
        """Round-robin over the runnable threads, one quantum each."""
        budget = max_instructions
        while True:
            alive = [t for t in self.threads if t.alive]
            if not alive:
                break
            runnable = []
            for thread in alive:
                if thread.waiting_on is not None:
                    target = next(
                        (t for t in self.threads if t.tid == thread.waiting_on),
                        None,
                    )
                    if target is not None and target.alive:
                        continue  # blocked: burns no cycles
                    thread.waiting_on = None
                    if target is not None:
                        # Resume no earlier than the join target ended.
                        core = thread.core
                        self.core_cycles[core] = max(
                            self.core_cycles[core], target.finish_time
                        )
                # A core idles until the thread it hosts is spawned.
                if self.core_cycles[thread.core] < thread.ready_time:
                    self.core_cycles[thread.core] = thread.ready_time
                runnable.append(thread)
            if not runnable:
                raise MachineFault("deadlock", "all live threads blocked")
            relaxed = (
                len(alive) == 1
                and self._blocks is not None
                and self._block_observers is not None
            )
            for thread in runnable:
                room = QUANTUM
                if relaxed:
                    # The only live thread: its quantum grid is
                    # unobservable until a schedule event or the budget,
                    # so run fused blocks back to back, then finish the
                    # quantum the stop fell inside (nothing if it fell
                    # on the grid).
                    executed = self._run_blocks(thread, budget)
                    budget -= executed
                    if executed:
                        room = -executed % QUANTUM
                if thread.alive:
                    budget = self._run_quantum(
                        thread, room, budget, max_instructions
                    )
        return self.exit_code if self.exit_code is not None else 0

    def _run_quantum(self, thread: Thread, room: int, budget: int,
                     max_instructions: int) -> int:
        """Run ``thread`` for the ``room`` instructions left in its
        quantum, or until it dies; returns the remaining budget, less
        what trusted callbacks stepped.

        The quantum runs this thread alone, so fused blocks whose
        counts fit in what is left of the quantum and of the budget
        run whole, and ``_step`` steps the rest.  The budget gates
        *starting* an instruction, so a program whose final budgeted
        instruction halts it still returns its exit code instead of
        being misreported as evicted.
        """
        limit = min(room, budget)
        executed = 0
        if self._blocks is not None and self._block_observers is not None:
            executed = self._run_blocks(thread, limit)
        step = self._step
        while executed < limit and thread.alive:
            step(thread)
            executed += 1
        if executed < room and thread.alive:
            raise MachineFault(
                "instruction-budget-exhausted",
                f"exceeded {max_instructions} instructions",
            )
        return self._budget_end - self.stats.instructions

    def _run_blocks(self, thread: Thread, room: int) -> int:
        """Run ``thread`` through lazily fused block functions (see
        ``BlockFuser.fuse``) while the next block's count fits in
        ``room``; returns how many instructions retired.

        Only blocks that can change the schedule (fuse marks blocks
        containing ``Halt`` or the native gateway impure) are followed
        by a :meth:`_schedule_changed` check, which can stop the run.
        A pc outside the code also stops it, so the caller's step
        raises that fault only if the budget lets the instruction
        start.

        With block observers attached the same traces tally their runs
        (see ``BlockFuser``), and the next sample point is one more
        limit: traces run while they end before it, and the one that
        reaches it runs whole in its noting form, which hands each
        observer the sample as of its point (:meth:`_sample_trace`).  A
        trace whose cost only stepping can attribute goes through
        ``on_step`` (:meth:`_step_block`).  The tallies are folded into
        the observers before any sample or step through the hooks and
        when the run stops, faults included.
        """
        self._called_back = False
        observers = self._block_observers
        tally = bool(observers)
        blocks = self._tallied if tally else self._blocks
        fuse = self._fuser.fuse
        n = len(blocks)
        n_threads = len(self.threads)
        # Blocks run while they fit in ``stop``; ``stop + slack`` is
        # what is left of ``room``.
        stop, slack = self._sample_stop(room, observers, 0)
        try:
            while True:
                pc = thread.pc
                if not 0 <= pc < n:
                    break
                entry = blocks[pc]
                if entry is None:
                    entry = blocks[pc] = fuse(pc, tally)
                count = entry[1]
                if count <= stop:
                    entry[0](thread)
                    stop -= count
                elif count <= stop + slack:
                    # The trace reaches a sample point.
                    unfolded = 0
                    if entry[3] is None:
                        entry[0](thread)
                    else:
                        self._sample_trace(thread, pc, entry[3], observers)
                        unfolded = count
                    stop, slack = self._sample_stop(
                        stop + slack - count, observers, unfolded
                    )
                else:
                    break
                if not entry[2] and self._schedule_changed(
                    thread, n_threads, observers
                ):
                    break
        finally:
            if observers:
                self._fold(thread, observers)
        return room - stop - slack

    def _schedule_changed(self, thread: Thread, n_threads: int,
                          observers: tuple) -> bool:
        """Whether a fused run must stop after an impure block: the
        thread died, blocked on a join or spawned another thread, the
        attached step hooks changed, or a trusted callback spent budget
        the run's ``room`` does not know of."""
        return (
            not thread.alive
            or thread.waiting_on is not None
            or len(self.threads) != n_threads
            or self._block_observers is not observers
            or self._called_back
        )

    @staticmethod
    def _sample_stop(left: int, observers: tuple,
                     unfolded: int) -> tuple[int, int]:
        """Split the ``left`` instructions a fused run may retire into
        ``(stop, slack)``: ``stop`` before the observers' next sample
        point, ``slack`` from it on, with ``unfolded`` instructions
        retired since the last fold."""
        if not observers:
            return left, 0
        point = min(o.until_sample(unfolded) for o in observers)
        stop = min(left, point - 1)
        return stop, left - stop

    def _fold(self, thread: Thread, observers: tuple) -> None:
        """Hand the pending records of ``thread``'s runs to every block
        observer (see ``add_step_hook``) and start a new batch."""
        pending = self._pending
        if pending:
            for observer in observers:
                observer.fold_blocks(thread, pending, self._prev[0])
            for record in pending:
                record[0] = record[1] = 0
                record[2].clear()
                record[4:] = [0] * (len(record) - 4)
            pending.clear()
        self._prev[0] = -1

    def _pend_prefix(self, segments: tuple, pc: int, misses: int,
                     notes) -> None:
        """Pend the instructions a run of ``segments`` retired before
        the one at ``pc`` faulted (all of them for a pc in none):
        ``notes`` are the L1 misses where each segment began and
        ``misses`` where the faulting instruction began."""
        parts, prev, pending = [], self._prev, self._pending
        for start, charges in segments:
            if start <= pc < start + len(charges):
                if pc > start:
                    parts.append((start, charges[:pc - start]))
                break
            parts.append((start, charges))
        if parts:
            marks = (*notes[:len(parts)], misses)
            missed = [b - a for a, b in zip(marks, marks[1:])]
            pending.append([1, 0, {prev[0]: 1}, tuple(parts), *missed])
            prev[0] = self._fuser._anchor(parts[-1][0])

    def _step_block(self, thread: Thread, count: int) -> None:
        """Step ``count`` instructions of ``thread`` through the step
        hooks, after folding the pending tallies into the observers: a
        tallying trace whose cost only stepping can attribute."""
        self._fold(thread, self._block_observers)
        step = self._step
        for _ in range(count):
            step(thread)

    def _sample_trace(self, thread: Thread, pc: int, record: list,
                      observers: tuple) -> None:
        """Run the tallying trace at ``pc``, which reaches a sample
        point, whole in its noting form (``BlockFuser.noting``) after
        folding, and hand each observer whose point falls inside it the
        sample as of that point.  A fault pends the retired prefix, as
        in every tallying trace, and still samples the points before
        it."""
        self._fold(thread, observers)
        noted = self._fuser.noting(pc, record)
        core = thread.core
        start = self.core_cycles[core], self.caches[core].misses
        try:
            noted[0](thread)
        except MachineFault:
            retired = 0
            for begin, charges in record[3]:
                if begin <= thread.pc < begin + len(charges):
                    retired += thread.pc - begin
                    break
                retired += len(charges)
            self._hand_samples(thread, observers, record, noted, start,
                               retired)
            raise
        self._hand_samples(thread, observers, record, noted, start,
                           len(noted[2][0]) - 1)

    def _hand_samples(self, thread: Thread, observers: tuple, record: list,
                      noted: tuple, start: tuple, retired: int) -> None:
        """Hand each observer whose sample point lies within the first
        ``retired`` instructions of a noting run ``noted`` (see
        ``BlockFuser.noting``) of ``record``'s trace, begun at ``start``
        (cycles, L1 misses), its sample as of that point."""
        _, notes, (static, after, before) = noted
        now = self.caches[thread.core].misses

        def missed(point: int) -> int:
            """The L1 misses before the instruction ``point`` in."""
            note = after[point]
            # A note past the last retired instruction is stale.
            if note is None or note[0] > retired:
                return now
            return notes[note[1]]

        for observer in observers:
            point = observer.until_sample()
            if point > retired:
                continue
            # Count on from the entry, or from the last delegated
            # handler before the point, whose charges only a note knows.
            ts, misses = start
            begin = 0
            note = before[point]
            if note is not None:
                begin = note[0] + 1
                ts, misses = notes[note[1]], missed(begin)
            head = missed(point)
            ts += static[point] - static[begin]
            ts += (head - misses) * costs.CACHE_MISS_PENALTY
            observer.sample_within(record[3], point, ts, head - start[1])

    def _step(self, thread: Thread) -> None:
        """One instruction through the step table, measured for the
        step hooks when any are attached."""
        steps = self._steps
        pc = thread.pc
        if not 0 <= pc < len(steps):
            # An explicit bounds check: Python's negative indexing would
            # otherwise let a negative PC silently wrap around and
            # execute the wrong instruction instead of faulting.
            raise MachineFault(FAULT_EXEC, f"pc out of code: {pc}")
        hooks = self._step_hooks
        if not hooks:
            steps[pc](thread)
            return
        # A native gateway's trusted callbacks step U instructions
        # (TContext.call_u) that the hooks see retire first; the
        # gateway is handed only its own cost, the rest of the rise.
        core = thread.core
        cache = self.caches[core]
        hooked = self._hooked
        start_cycles = self.core_cycles[core] - hooked[0]
        start_misses = cache.misses - hooked[1]
        steps[pc](thread)
        cycles = self.core_cycles[core] - hooked[0] - start_cycles
        misses = cache.misses - hooked[1] - start_misses
        hooked[0] += cycles
        hooked[1] += misses
        self.hook_cache_misses = misses
        insn = self.code[pc]
        for hook in hooks:
            hook(thread, pc, insn, cycles)

    def _execute(self, thread: Thread) -> None:
        """The reference engine's step: retire ``code[pc]`` -- count
        it, charge its base cost, run its ``_i_*`` handler."""
        insn = self.code[thread.pc]
        self.stats.instructions += 1
        try:
            cost = costs.BASE_COST[insn.cost_class]
            handler = self._dispatch[type(insn)]
        except KeyError:
            cost, handler = 0, self._i_unknown
        self.core_cycles[thread.core] += cost
        handler(thread, insn)

    def charge(self, thread: Thread, cycles: int) -> None:
        self.core_cycles[thread.core] += cycles

    def publish_metrics(self, registry) -> None:
        """Snapshot execution counters into an obs registry.

        Counter names follow docs/OBSERVABILITY.md; calling this twice
        on the same registry accumulates (counters are monotonic).
        """
        stats = self.stats
        counter = registry.counter
        counter("machine.instructions").inc(stats.instructions)
        counter("machine.checks", kind="bnd").inc(stats.bnd_checks)
        counter("machine.checks", kind="cfi").inc(stats.cfi_checks)
        counter("machine.calls").inc(stats.calls)
        counter("machine.t_calls").inc(stats.t_calls)
        if self.config.separate_tu:
            counter("machine.t_stack_switches").inc(stats.t_calls)
        counter("machine.loads").inc(stats.loads)
        counter("machine.stores").inc(stats.stores)
        counter("machine.cycles.wall").inc(self.wall_cycles)
        counter("machine.cycles.total").inc(self.total_cycles)
        counter("machine.threads").inc(len(self.threads))
        counter("machine.cache.hits").inc(sum(c.hits for c in self.caches))
        counter("machine.cache.misses").inc(sum(c.misses for c in self.caches))
        for kind in sorted(stats.faults):
            counter("machine.faults", kind=kind).inc(stats.faults[kind])

    # ------------------------------------------------------------------
    # Operand helpers

    def _val(self, thread: Thread, operand) -> int:
        if isinstance(operand, isa.Imm):
            return operand.value & MASK64
        return thread.regs[operand]

    def effective_address(self, thread: Thread, mem: isa.Mem) -> int:
        if mem.abs is not None:
            addr = mem.abs + mem.disp
            if mem.index is not None:
                index = thread.regs[mem.index]
                if mem.use32:
                    index &= MASK32
                addr += index * mem.scale
        else:
            base = thread.regs[mem.base]
            if mem.use32:
                base &= MASK32
            addr = base + mem.disp
            if mem.index is not None:
                index = thread.regs[mem.index]
                if mem.use32:
                    index &= MASK32
                addr += index * mem.scale
        if mem.seg == isa.SEG_FS:
            addr += self.fs_base
        elif mem.seg == isa.SEG_GS:
            addr += self.gs_base
        return addr & MASK64

    def _touch(self, thread: Thread, addr: int, size: int = 1) -> None:
        """Charge L1 traffic for every cache line the access spans.

        An access crossing a 64-byte line boundary occupies both lines
        (the cache-pressure effect the Figure 6 OurMPX vs OurMPX-Sep
        gap is built on), so each spanned line is touched and each miss
        charged — not just the first.
        """
        cache = self.caches[thread.core]
        if (addr & (LINE_SIZE - 1)) + size <= LINE_SIZE:
            if not cache.access(addr):
                self.core_cycles[thread.core] += costs.CACHE_MISS_PENALTY
            return
        misses = cache.access_span(addr, size)
        if misses:
            self.core_cycles[thread.core] += (
                misses * costs.CACHE_MISS_PENALTY
            )

    def read_data(self, thread: Thread, addr: int, size: int) -> int:
        if addr >= CODE_BASE:
            word = self.read_code_word(addr)
            if size >= 8:
                return word
            # Sub-word reads of code-as-data truncate to the requested
            # width, exactly like sub-word reads of ordinary memory.
            return word & ((1 << (8 * size)) - 1)
        self._touch(thread, addr, size)
        return self.mem.read_int(addr, size)

    def write_data(self, thread: Thread, addr: int, size: int, value: int):
        if addr >= CODE_BASE:
            raise MachineFault(FAULT_UNMAPPED, "write to code space", addr=addr)
        self._touch(thread, addr, size)
        self.mem.write_int(addr, size, value)

    def read_code_word(self, addr: int) -> int:
        index = addr - CODE_BASE
        if 0 <= index < len(self.code):
            return self.code[index].encoding()
        raise MachineFault(FAULT_UNMAPPED, "code read out of range", addr=addr)

    # ------------------------------------------------------------------
    # Instruction semantics (reference engine)

    def _i_magic(self, t, insn):
        t.pc += 1

    def _i_mov_ri(self, t, insn):
        t.regs[insn.dst] = insn.imm & MASK64
        t.pc += 1

    def _i_mov_rr(self, t, insn):
        t.regs[insn.dst] = t.regs[insn.src]
        t.pc += 1

    def _i_mov_fa(self, t, insn):
        t.regs[insn.dst] = insn.value & MASK64
        t.pc += 1

    def _i_alu(self, t, insn):
        a = self._val(t, insn.a)
        if insn.op in ("neg", "not"):
            t.regs[insn.dst] = eval_un(insn.op, a)
        else:
            t.regs[insn.dst] = eval_bin(insn.op, a, self._val(t, insn.b))
        t.pc += 1

    def _i_setcc(self, t, insn):
        t.regs[insn.dst] = eval_bin(
            insn.op, self._val(t, insn.a), self._val(t, insn.b)
        )
        t.pc += 1

    @staticmethod
    def _access_size(insn) -> int:
        size = insn.size
        if not isa.valid_access_size(size):
            raise MachineFault(FAULT_EXEC, f"bad access size {size!r}")
        return size

    def _i_load(self, t, insn):
        size = self._access_size(insn)
        addr = self.effective_address(t, insn.mem)
        t.regs[insn.dst] = self.read_data(t, addr, size)
        self.stats.loads += 1
        t.pc += 1

    def _i_store(self, t, insn):
        size = self._access_size(insn)
        addr = self.effective_address(t, insn.mem)
        self.write_data(t, addr, size, self._val(t, insn.src))
        self.stats.stores += 1
        t.pc += 1

    def _i_lea(self, t, insn):
        t.regs[insn.dst] = self.effective_address(t, insn.mem)
        t.pc += 1

    def _i_push(self, t, insn):
        rsp = (t.regs[regs.RSP] - 8) & MASK64
        t.regs[regs.RSP] = rsp
        self.write_data(t, rsp, 8, self._val(t, insn.src))
        t.pc += 1

    def _i_pop(self, t, insn):
        rsp = t.regs[regs.RSP]
        t.regs[insn.dst] = self.read_data(t, rsp, 8)
        t.regs[regs.RSP] = (rsp + 8) & MASK64
        t.pc += 1

    def _i_jmp(self, t, insn):
        t.pc = insn.addr

    def _i_jmp_table(self, t, insn):
        index = signed(t.regs[insn.reg]) - insn.base
        if not (0 <= index < len(insn.addrs)):
            raise MachineFault(FAULT_EXEC, "jump-table index out of range")
        # Table load + indirect branch.
        self.core_cycles[t.core] += 1 + costs.INDIRECT_JUMP_EXTRA
        t.pc = insn.addrs[index]

    def _i_br(self, t, insn):
        taken = eval_bin(insn.op, self._val(t, insn.a), self._val(t, insn.b))
        t.pc = insn.addr if taken else t.pc + 1

    def _i_call_d(self, t, insn):
        self.stats.calls += 1
        retaddr = CODE_BASE + t.pc + 1
        rsp = (t.regs[regs.RSP] - 8) & MASK64
        t.regs[regs.RSP] = rsp
        self.write_data(t, rsp, 8, retaddr)
        t.pc = insn.addr

    def _i_call_i(self, t, insn):
        self.stats.calls += 1
        target = t.regs[insn.reg]
        if not (CODE_BASE <= target < CODE_BASE + len(self.code)):
            raise MachineFault(FAULT_EXEC, "indirect call outside code",
                               addr=target)
        retaddr = CODE_BASE + t.pc + 1
        rsp = (t.regs[regs.RSP] - 8) & MASK64
        t.regs[regs.RSP] = rsp
        self.write_data(t, rsp, 8, retaddr)
        t.pc = target - CODE_BASE

    def _i_ret(self, t, insn):
        rsp = t.regs[regs.RSP]
        target = self.read_data(t, rsp, 8)
        t.regs[regs.RSP] = (rsp + 8) & MASK64
        if not (CODE_BASE <= target < CODE_BASE + len(self.code)):
            raise MachineFault(FAULT_EXEC, "return outside code", addr=target)
        t.pc = target - CODE_BASE

    def _i_jmp_ind(self, t, insn):
        addr = self.effective_address(t, insn.mem)
        target = self.read_data(t, addr, 8)
        self.core_cycles[t.core] += costs.INDIRECT_JUMP_EXTRA
        if target >= NATIVE_BASE:
            self._native(t, target - NATIVE_BASE)
            return
        if CODE_BASE <= target < CODE_BASE + len(self.code):
            t.pc = target - CODE_BASE
            return
        raise MachineFault(FAULT_EXEC, "indirect jump target", addr=target)

    def _i_jmp_reg(self, t, insn):
        target = t.regs[insn.reg] + insn.skip
        self.core_cycles[t.core] += costs.INDIRECT_JUMP_EXTRA
        # Strict upper bound: CODE_BASE + len(code) is one past the last
        # word and must fault here, not execute garbage.
        if not (CODE_BASE <= target < CODE_BASE + len(self.code)):
            raise MachineFault(FAULT_EXEC, "jump outside code", addr=target)
        t.pc = target - CODE_BASE

    def _i_check_magic(self, t, insn):
        self.stats.cfi_checks += 1
        target = t.regs[insn.reg]
        word = self.read_code_word(target)  # faults if not code
        expected = ~insn.inv_value & MASK64
        if word != expected:
            raise MachineFault(
                FAULT_CFI,
                f"magic mismatch at target (kind={insn.kind})",
                addr=target,
            )
        t.pc += 1

    def _i_bndchk(self, t, insn):
        self.stats.bnd_checks += 1
        if insn.mem is not None:
            addr = self.effective_address(t, insn.mem)
            self.core_cycles[t.core] += costs.BNDCHK_MEM_EXTRA
        else:
            addr = t.regs[insn.reg]
        lo, hi = self.bnd[insn.bnd]
        if not (lo <= addr < hi):
            raise MachineFault(
                FAULT_BOUNDS,
                f"bnd{insn.bnd} violation [{lo:#x},{hi:#x})",
                addr=addr,
            )
        t.pc += 1

    def _i_chkstk(self, t, insn):
        rsp = t.regs[regs.RSP]
        lo, hi = t.pub_stack
        if not (lo <= rsp <= hi):
            raise MachineFault(FAULT_CHKSTK, "rsp escaped its stack", addr=rsp)
        t.pc += 1

    def _i_tlsbase(self, t, insn):
        t.regs[insn.dst] = t.regs[regs.RSP] & ~(THREAD_STACK_SIZE - 1)
        t.pc += 1

    def _i_shadow_push(self, t, insn):
        t.shadow.append(self.read_data(t, t.regs[regs.RSP], 8))
        t.pc += 1

    def _i_shadow_pop(self, t, insn):
        actual = self.read_data(t, t.regs[regs.RSP], 8)
        if not t.shadow or t.shadow.pop() != actual:
            raise MachineFault(FAULT_CFI, "shadow stack mismatch")
        t.pc += 1

    def _i_halt(self, t, insn):
        t.alive = False
        t.finish_time = self.core_cycles[t.core]
        if t.tid == 0:
            self.exit_code = t.regs[regs.RAX]

    def _i_fail(self, t, insn):
        raise MachineFault(FAULT_CFI, "__debugbreak reached")

    def _i_unknown(self, t, insn):
        # An instruction type or cost class the machine does not know:
        # loading never inspects either, so this surfaces at execution.
        raise MachineFault(
            FAULT_EXEC,
            f"unknown instruction {type(insn).__name__} "
            f"(cost class {insn.cost_class!r})",
        )

    # ------------------------------------------------------------------
    # Trusted dispatch

    def _native(self, t: Thread, index: int) -> None:
        self.stats.t_calls += 1
        if not (0 <= index < len(self.natives)):
            raise MachineFault(FAULT_EXEC, f"bad native index {index}")
        self.natives[index](self, t)

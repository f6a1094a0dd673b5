"""Generated-code fast path of the predecoded engine.

The reference engine interprets one instruction at a time through
``Machine._dispatch``.  The predecoded engine instead runs Python
functions that :class:`BlockFuser` generates from ``machine.code``, and
this module's :class:`_Emitter` is the one place their per-instruction
semantics are written down.  It emits one shape, the **fused block**:
one function for straight-line code, with per-instruction dispatch gone
and ``Stats``/cycle accounting batched -- every per-instruction charge
is known at fuse time, so the fault-free path pays one flush at block
exit.  Exactness at faults comes from a reconcile table keyed by pc (no
pc occurs twice in a block): each fallible statement records its pc
first, and the ``except`` handler replays the cumulative pre-fault
charges for that pc before re-raising.  Blocks come in two extents:

* a **trace** is what the scheduler (:meth:`Machine._run_blocks`) runs:
  straight-line code from its entry pc through every unconditional
  direct ``Jmp`` into the jump's target, up to the next other
  control-flow terminator, a label reached by falling through, a pc
  already in the trace or ``MAX_BLOCK`` instructions.  A trace has one
  path, so every fault-free run retires exactly its count.  While block
  profilers are attached the scheduler runs the same traces from a
  second table, emitted with a tally epilogue (see :class:`BlockFuser`),
  and a trace that reaches a sample point in a noting form that also
  notes where the point's sample stands; unprofiled runs never execute
  that code, so their generated sources are unchanged;
* a **stepping entry** is the one-instruction block at a pc.  The table
  ``machine._steps`` holds one per pc, emitted the first time execution
  steps that pc; it steps what no whole trace fits in (the end of a
  quantum or of the budget), the rest of a quantum after a schedule
  event, every instruction under step hooks other than a block
  profiler, and what a block profiler must see stepped.  A trace of one
  instruction is its stepping entry.

The common shapes (moves, ALU ops, compares, loads, stores, push/pop,
bnd/CFI/stack checks, direct calls and branches) are inlined as
straight-line statements (div/mod through ``arith.eval_bin``, which
raises the division fault).  Memory accesses inline the whole L1 LRU
update of ``L1Cache.access`` and move their bytes with page kernels
(byte indexing, or bound ``struct`` ``unpack_from``/``pack_into``
for 2, 4 and 8 bytes); an access of any other size faults in the
reference handler.  What is rare or complex -- jump tables,
indirect calls, jumps and returns, shadow-stack ops, unknown
instructions -- calls the reference ``_i_*`` handler after charging
what ``Machine._execute`` charges, and unusual address shapes
call ``Machine.effective_address``.

Generated sources embed only literals and positional ``O{n}``
parameters for the objects they need (instructions, operands,
reconcile tables).  Compiled code objects are cached per binary, by pc,
and die with it, so every machine built from the same binary -- a
serving fork, a re-load -- only binds already-compiled code to its own
globals (:meth:`BlockFuser._bind`; known stepping entries when the
machine is built, traces when first entered), with
the objects passed as parameter defaults rather than through a
namespace copy.

Blocks are capped at the scheduler ``QUANTUM`` (64 instructions).  A
quantum runs one thread alone and runs a fused block only when its
count fits in what is left of the quantum and of the budget, so no
block crosses a point where another thread could run or the budget
could fault.  With a single live thread the quantum grid is
unobservable between schedule events, so blocks run back to back
across it until an event or the budget, and the scheduler then
finishes the quantum the stop fell inside.  That keeps budget faults
and multi-thread interleavings bit-identical to the reference engine
(pinned by ``tests/machine/test_engine_equivalence.py``).
"""

from __future__ import annotations

import bisect
import builtins
import collections
import functools
import operator
import struct
import types
import weakref

from ..arith import MASK64, SIGN_BIT, eval_bin, eval_un, signed
from ..backend import isa, regs
from ..backend.isa import check_kind
from ..errors import (
    FAULT_BOUNDS,
    FAULT_CFI,
    FAULT_CHKSTK,
    FAULT_PERM,
    FAULT_UNMAPPED,
    MachineFault,
)
from ..link.layout import CODE_BASE, THREAD_STACK_SIZE
from . import costs
from .cache import DEFAULT_SETS, DEFAULT_WAYS, LINE_BITS, LINE_SIZE
from .memory import PAGE_MASK, PAGE_SIZE

MASK32 = 0xFFFFFFFF
TWO64 = 1 << 64

#: The scheduler quantum: instructions a thread runs before the next
#: runnable thread gets its turn (``Machine._run_loop``).
QUANTUM = 64

#: Longest fusable block — one quantum, so any block fits in a fresh
#: quantum.  Longer straight-line runs are split; the tail simply
#: starts its own block.
MAX_BLOCK = QUANTUM

#: Instructions that end a basic block (every way control can leave).
TERMINATORS = (
    isa.Jmp,
    isa.Br,
    isa.JmpTable,
    isa.CallD,
    isa.CallI,
    isa.RetPlain,
    isa.JmpInd,
    isa.JmpReg,
    isa.Halt,
    isa.Fail,
)

_SIGNED_SYMS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_BIT_SYMS = {"and": "&", "or": "|", "xor": "^"}
#: Binary ALU ops emitted inline; only div/mod can fault.
_INLINE_ALU = frozenset(
    ("add", "sub", "mul", "div", "mod", "shl", "shr", *_BIT_SYMS)
)

#: Delegated-to-reference instruction kinds that are known to be
#: schedule-neutral: they may fault (which propagates) but can never
#: kill the thread, spawn/unblock another one, or attach a step hook.
#: ``JmpInd`` is the one gateway to natives (spawn/join/recv) and is
#: deliberately absent; so is ``Halt``.  Blocks containing only neutral
#: work are "pure" and let the driver skip its schedule checks.
_NEUTRAL_DELEGATES = frozenset(
    (
        isa.JmpTable,
        isa.CallI,
        isa.RetPlain,
        isa.JmpReg,
        isa.ShadowPush,
        isa.ShadowPop,
    )
)


#: Little-endian page kernels for the multi-byte access sizes:
#: ``U{n}(page, offset)`` reads and ``P{n}(page, offset, value)`` writes
#: ``n`` bytes (byte accesses index the page directly).
_PAGE_KERNELS = {
    f"{prefix}{size}": getattr(struct.Struct(fmt), method)
    for size, fmt in ((2, "<H"), (4, "<I"), (8, "<Q"))
    for prefix, method in (("U", "unpack_from"), ("P", "pack_into"))
}


def _stepped(insn) -> bool:
    """Whether a tallying trace holding ``insn`` steps through
    ``Machine._step_block`` (see ``BlockFuser``): the native gateway, or
    a check site with no emitter (the shadow-stack ops read memory
    through the cache, so their cost is only known at run time)."""
    kind = type(insn)
    return kind is isa.JmpInd or (
        kind not in _EMITTERS and check_kind(insn) is not None
    )


def _schedule_neutral(insn) -> bool:
    kind = type(insn)
    if kind is isa.Halt or kind is isa.JmpInd:
        return False
    return kind in _EMITTERS or kind in _NEUTRAL_DELEGATES


#: id(binary) -> (pc -> stepping entry, pc -> trace entry, pc ->
#: tallying trace entry, pc -> noting form of a tallying trace), dropped
#: when the binary is collected.  Entries remember the instructions they
#: were generated from and are regenerated if the code word changed.
_IMAGES: dict[int, tuple[dict, dict, dict, dict]] = {}


def _compile(source: str) -> types.CodeType:
    module = compile(source, "<superblock>", "exec")
    return next(
        const for const in module.co_consts
        if isinstance(const, types.CodeType)
    )


def _image_entries(binary) -> tuple[dict, dict, dict, dict]:
    key = id(binary)
    entries = _IMAGES.get(key)
    if entries is None:
        entries = _IMAGES[key] = ({}, {}, {}, {})
        weakref.finalize(binary, _IMAGES.pop, key, None)
    return entries


class BlockFuser:
    """Per-machine code generator.

    ``steps`` is the predecoded step table; every slot starts as a
    stub that emits the pc's stepping entry on first execution.
    ``fuse(pc) -> (fn, count, pure)`` builds the scheduler's block at
    ``pc``, a trace through direct jumps (see :meth:`_trace`): ``fn``
    runs the whole trace on a thread; ``count`` is how many
    instructions it retires; ``pure`` is True when the block cannot
    change the thread schedule (no ``Halt``, no native gateway), which
    lets the block loop skip its per-block schedule checks.

    ``fuse(pc, tally=True)`` adds a ``record`` to the entry of the same
    trace emitted for a run with block observers attached.  Its
    *segments*, the stretches that begin at its entry or at a followed
    ``Jmp``'s target, each lie inside one profiler block and are known
    at fuse time as ``(pc, charges)``, ``charges`` being the cycles each
    instruction is charged besides cache-miss penalties.  Its ``fn``
    also tallies each run into ``record = [runs, extra, preds,
    segments, *misses]``: the cycles delegated handlers charged beyond
    those (a jump table's load), the first segment's runs per
    predecessor (the label address of the profiler block the thread ran
    before it, -1 for "before the pending batch"; a later segment's is
    the segment before it) and each segment's L1 misses, noted where
    the run enters it.  A record is appended to ``machine._pending`` on
    its first run after a fold (``Machine._fold``); a run that faults
    pends its retired prefix as a record of its own.  The trace that
    reaches a sample point runs whole in its *noting* form
    (:meth:`noting`), which tallies like the tallying form and also
    notes where a sample inside it would fall.  A trace
    whose cost is only known one instruction at a time -- a check site
    with a run-time cost, or the native gateway, whose trusted
    callbacks run U instructions that the observers see retire before
    the gateway does -- gets a ``fn`` that steps it through
    ``Machine._step_block`` instead, and no record; that is decided
    from its instructions (:func:`_stepped`), so no tally epilogue is
    emitted for it.
    """

    def __init__(self, machine):
        self.machine = machine
        self.code = machine.code
        self.leaders = frozenset(machine.binary.label_addrs.values())
        (
            self._step_entries, self._trace_entries, self._tally_entries,
            self._note_entries,
        ) = _image_entries(machine.binary)
        # pc -> this machine's noting form of the tallying trace there.
        self._noting: dict[int, tuple] = {}
        self._labels = sorted(self.leaders)
        # Globals of every generated function.  All of these are
        # captured by reference; the loader and MachineState.restore
        # mutate them in place (never rebind), so generated code stays
        # coherent with later loader and snapshot changes.
        self.globals = {
            "__builtins__": builtins,
            "S": machine.stats,
            "C": machine.core_cycles,
            "CACHES": machine.caches,
            "BND": machine.bnd,
            "PAGES": machine.mem._pages,
            "RO": machine.mem._ro_pages,
            "MREAD": machine.mem.read_int,
            "MWRITE": machine.mem.write_int,
            "RCW": machine.read_code_word,
            "TOUCH": machine._touch,
            "MACH": machine,
            "MF": MachineFault,
            "FU": FAULT_UNMAPPED,
            "FP": FAULT_PERM,
            "FC": FAULT_CFI,
            "FBND": FAULT_BOUNDS,
            "FK": FAULT_CHKSTK,
            "M": MASK64,
            "SB": SIGN_BIT,
            "T64": TWO64,
            "EB": eval_bin,
            "PEND": machine._pending,
            "PV": machine._prev,
            "PFX": machine._pend_prefix,
            **_PAGE_KERNELS,
        }
        step = self.step

        def emit_on_first_use(t):
            step(t.pc)(t)

        self._stub = emit_on_first_use
        self.steps = [emit_on_first_use] * len(self.code)
        # Stepping entries this binary has already emitted (for an
        # earlier machine, or the one a fork's image was taken from) are
        # bound now, so a fork's first request pays nothing for them.
        for pc, (insns, code, objs, *_) in self._step_entries.items():
            if self.code[pc] is insns[0]:
                self.steps[pc] = self._bind(code, objs)

    def _bind(self, code: types.CodeType, objs: tuple):
        return types.FunctionType(
            code, self.globals, code.co_name, objs or None
        )

    def step(self, pc: int):
        """The stepping entry for ``code[pc]``, emitting it on first
        use."""
        fn = self.steps[pc]
        if fn is self._stub:
            entry = self._entry(self._step_entries, [pc], [self.code[pc]])
            fn = self.steps[pc] = self._bind(entry[1], entry[2])
        return fn

    def fuse(self, pc: int, tally: bool = False):
        """The scheduler's entry ``(fn, count, pure)`` for the trace at
        ``pc``, or with ``tally`` ``(fn, count, pure, record)`` (see the
        class docstring)."""
        pcs, insns = self._trace(pc)
        count = len(insns)
        if not tally:
            if count < 2:
                return self.step(pc), 1, _schedule_neutral(insns[0])
            entry = self._entry(self._trace_entries, pcs, insns)
            return self._bind(entry[1], entry[2]), count, entry[3]
        if any(map(_stepped, insns)):
            step = functools.partial(self.machine._step_block, count=count)
            return step, count, all(map(_schedule_neutral, insns)), None
        entry = self._entry(self._tally_entries, pcs, insns, self._anchor)
        segments = entry[4]
        record = [0, 0, collections.defaultdict(int), segments]
        record += [0] * len(segments)
        fn = self._bind(entry[1], (*entry[2], record))
        return fn, count, entry[3], record

    def noting(self, pc: int, record: list) -> tuple:
        """The noting form of the tallying trace at ``pc``, bound to its
        ``record``, as ``(fn, notes, plan)``; emitted on the trace's
        first sample crossing and kept with the binary.  ``fn`` runs and
        tallies the trace like the tallying form, and also stores the L1
        misses into ``notes`` before each instruction that can touch the
        L1 and the core's cycles after each delegated handler.  ``plan``
        is ``(static, after, before)``, each indexed by a point ``k``
        instructions in: the static charges of the instructions before
        it, and as ``(index in the trace, slot in notes)`` or None the
        first miss note at or after it and the last cycle note before
        it."""
        noted = self._noting.get(pc)
        if noted is None:
            pcs, insns = self._trace(pc)
            entry = self._entry(
                self._note_entries, pcs, insns, self._anchor, noting=True
            )
            plan = entry[5]
            notes = [0] * (len(plan[1]) + len(plan[2]))
            fn = self._bind(entry[1], (*entry[2], record, notes))
            noted = self._noting[pc] = fn, notes, plan
        return noted

    def _entry(self, entries: dict, pcs: list, insns: list,
               anchor=None, noting: bool = False) -> tuple:
        """The entry ``(insns, code, objs, pure, segments)`` in
        ``entries`` for the trace of ``insns`` at ``pcs``, emitted (with
        a tally epilogue keyed by ``anchor``, if given) unless the
        cached one was generated from the same instructions.  A noting
        form (see :meth:`noting`) adds its ``plan``."""
        entry = entries.get(pcs[0])
        if (
            entry is None
            or len(entry[0]) != len(insns)
            or not all(map(operator.is_, entry[0], insns))
        ):
            emitter = _Emitter(self, anchor, noting)
            for index, (p, insn) in enumerate(zip(pcs, insns), 1):
                # Every Jmp but a last one is run through.
                emitter.emit(p, insn, through=index < len(insns))
            code_obj, objs = emitter.build(pcs[-1], insns[-1])
            entry = entries[pcs[0]] = (
                tuple(insns), code_obj, objs, not emitter.impure,
                tuple((p, tuple(charges)) for p, charges in emitter.segments),
                *((emitter.plan(),) if noting else ()),
            )
        return entry

    def _trace(self, pc: int) -> tuple[list, list]:
        """The pcs and instructions of the trace at ``pc``: straight-line
        code through every unconditional ``Jmp`` into its target, up to
        any other terminator, a label other than where the trace (or
        the stretch after its last ``Jmp``) began, a pc already in it or
        outside the code, or ``MAX_BLOCK`` instructions."""
        code = self.code
        n = len(code)
        leaders = self.leaders
        pcs: list[int] = []
        insns: list = []
        seen: set[int] = set()
        start = i = pc
        while 0 <= i < n and i not in seen and len(insns) < MAX_BLOCK:
            if i in leaders and i != start:
                break
            insn = code[i]
            pcs.append(i)
            insns.append(insn)
            seen.add(i)
            if type(insn) is isa.Jmp:
                start = i = insn.addr
            elif isinstance(insn, TERMINATORS):
                break
            else:
                i += 1
        return pcs, insns

    def _anchor(self, pc: int) -> int:
        """The address of the last label at or before ``pc`` (``pc``
        itself when there is none): one key per profiler block."""
        index = bisect.bisect_right(self._labels, pc)
        return self._labels[index - 1] if index else pc

class _Emitter:
    """Generates the body of one fused block.

    Accounting discipline: per-instruction charges accumulate at *fuse
    time* in ``cum``.  A block emits one flush at exit (or before a
    delegated reference call, which must observe exact state); every
    fallible inlined instruction first writes ``t.pc`` and registers the
    cumulative charges pending at that point — including its own
    pre-charges, since the reference engine charges before it checks —
    in ``recon``, and the generated ``except`` block replays those
    charges before re-raising, so machine state at any fault is
    bit-identical to per-instruction execution.  Post-charges applied
    after the fault point (``loads``/``stores``) join ``cum`` only after
    the fallible statement, so they are visible to later fault points
    but not to the instruction's own.  Dynamic cache-miss charges are
    applied inline, so they need no reconciliation.
    """

    #: cum/recon slots: instructions, cycles, loads, stores,
    #: cfi_checks, bnd_checks, calls.
    _FLUSH_STMTS = (
        "S.instructions += {}",
        "C[c] += {}",
        "S.loads += {}",
        "S.stores += {}",
        "S.cfi_checks += {}",
        "S.bnd_checks += {}",
        "S.calls += {}",
    )

    def __init__(self, fuser: BlockFuser, anchor=None, noting=False):
        self.machine = fuser.machine
        # pc -> label address of its profiler block when the trace
        # tallies its runs (see BlockFuser), else None.
        self.anchor = anchor
        self.noting = noting
        self.lines: list[str] = []
        self.objs: list = []
        self.cum = [0, 0, 0, 0, 0, 0, 0]
        self.recon: dict[int, tuple] = {}
        self.needs_cache = False
        self.impure = False
        self.delegated = False
        self.through = False
        # The trace's segments (see BlockFuser) as (pc, static cycles
        # per instruction), those that can take L1 misses, the static
        # cycles already flushed, and whether a delegated handler may
        # charge more.
        self.segments: list[tuple[int, list]] = []
        self.missing: set[int] = set()
        self.flushed_cycles = 0
        self.dynamic = False
        # Instructions emitted so far, and of those that can touch the
        # L1 the count so far and when the misses were last noted in
        # mi_ and in a segment note.
        self.index = 0
        self.touches = 0
        self.noted = 0
        self.segment_noted = 0
        # Per segment, the local holding the L1 misses where it began:
        # its own note, or an earlier one when nothing touched the L1
        # in between.
        self.notes: list[str] = []
        # A noting form's (index, slot) notes (see BlockFuser.noting).
        self.touch_notes: list[tuple[int, int]] = []
        self.delegate_notes: list[tuple[int, int]] = []

    # -- infrastructure ------------------------------------------------

    def build(self, last_p: int, last) -> tuple[types.CodeType, tuple]:
        """Finish after the last instruction ``last`` (at ``last_p``);
        returns the compiled function and its parameter objects."""
        self.flush()
        if not isinstance(last, TERMINATORS) and not self.delegated:
            # A block split at MAX_BLOCK or at the end of the code space
            # falls through too (an out-of-range pc faults in the
            # driver, exactly like the per-instruction engines).
            self.lines.append(f"t.pc = {last_p + 1}")
        if self.recon:
            self._obj(self.recon)
        return _compile(self._render()), tuple(self.objs)

    def _render(self) -> str:
        params = "".join(f", O{i}" for i in range(len(self.objs)))
        tally = self.anchor is not None
        if tally:
            params += ", T_, N_" if self.noting else ", T_"
        head = [f"def _superblock(t{params}):"]
        lines = list(self.lines)
        if self.needs_cache:
            lines.append("cache_.hits += h_")
        if any("r[" in line for line in lines):
            head.append("    r = t.regs")
        head.append("    c = t.core")
        if self.needs_cache or (tally and self.touches):
            head.append("    cache_ = CACHES[c]")
        if self.needs_cache:
            head.append("    sets_ = cache_._sets")
            head.append("    h_ = 0")
        notes = self.notes
        if tally and self.touches:
            pend = f"PFX(T_[3], t.pc, mi_, ({', '.join(notes)},))"
            # The except clause reads every note.
            names = " = ".join(dict.fromkeys(notes))
            head.append(f"    mi_ = {names} = cache_.misses")
            if self.dynamic:
                head.append("    c0_ = C[c]")
        elif tally:
            # Nothing in the trace can miss.
            pend = f"PFX(T_[3], t.pc, 0, ({'0, ' * len(notes)}))"
        if not self.recon and not tally:
            body = ["    " + line for line in lines]
        else:
            body = ["    try:"]
            body.extend("        " + line for line in lines)
            body.append("    except MF:")
            if self.needs_cache:
                body.append("        cache_.hits += h_")
            if self.recon:
                body.append(f"        d_ = O{len(self.objs) - 1}.get(t.pc)")
                body.append("        if d_ is not None:")
                for index, stmt in enumerate(self._FLUSH_STMTS):
                    body.append("            " + stmt.format(f"d_[{index}]"))
            if tally:
                # mi_ holds the misses where the faulting instruction
                # began: the retired prefix took those.
                body.append("        " + pend)
            body.append("        raise")
        if tally:
            body.extend("    " + line for line in self._epilogue(notes))
        return "\n".join(head + body) + "\n"

    def _epilogue(self, notes: list) -> list[str]:
        """The tally epilogue (see ``BlockFuser``): count the run, the
        misses of each segment that can take some (from its note to the
        next), what delegated handlers charged besides static cycles
        and miss penalties, and the first segment's predecessor."""
        ends = [*notes[1:], "cache_.misses"]
        anchors = [self.anchor(pc) for pc, _ in self.segments]
        lines = ["T_[0] += 1", "if T_[0] == 1:", "    PEND.append(T_)"]
        if self.dynamic:
            lines.append(
                f"T_[1] += C[c] - c0_ - {self.flushed_cycles} - (cache_.misses"
                f" - m0_) * {costs.CACHE_MISS_PENALTY}"
            )
        lines.extend(
            f"T_[{4 + index}] += {ends[index]} - {notes[index]}"
            for index in sorted(self.missing)
        )
        lines += ["k_ = PV[0]", f"if k_ != {anchors[0]}:"]
        lines.append("    T_[2][k_] += 1")
        # A later segment's predecessor is static.
        indent = "    " if anchors[-1] == anchors[0] else ""
        return [*lines, f"{indent}PV[0] = {anchors[-1]}"]

    def plan(self) -> tuple:
        """A noting form's plan (see ``BlockFuser.noting``)."""
        static = [0]
        for _, charges in self.segments:
            for charge in charges:
                static.append(static[-1] + charge)
        touches, delegates = dict(self.touch_notes), dict(self.delegate_notes)
        after, before, note = [], [], None
        for index in reversed(range(len(static))):
            note = (index, touches[index]) if index in touches else note
            after.append(note)
        note = None
        for index in range(len(static)):
            before.append(note)
            note = (index, delegates[index]) if index in delegates else note
        return tuple(static), tuple(reversed(after)), tuple(before)

    def _note(self, notes: list, value: str) -> str:
        """A noting form's statement storing ``value`` in a new slot of
        ``N_``, registered in ``notes`` for the current instruction."""
        slot = len(self.touch_notes) + len(self.delegate_notes)
        notes.append((self.index, slot))
        return f"N_[{slot}] = {value}"

    def flush(self) -> None:
        cum = self.cum
        self.flushed_cycles += cum[1]
        for index, value in enumerate(cum):
            if value:
                self.lines.append(self._FLUSH_STMTS[index].format(value))
                cum[index] = 0

    def _obj(self, obj) -> str:
        self.objs.append(obj)
        return f"O{len(self.objs) - 1}"

    def _simple(self, cost: int, stmt: str) -> None:
        self.cum[0] += 1
        self.cum[1] += cost
        self.lines.append(stmt)

    def _pre(self, p: int, cost: int, *, cfi=0, bnd=0, calls=0) -> None:
        """Charge an inlined fallible instruction's pre-fault costs:
        snapshot the pending state its fault point must observe."""
        cum = self.cum
        cum[0] += 1
        cum[1] += cost
        cum[4] += cfi
        cum[5] += bnd
        cum[6] += calls
        self.recon[p] = tuple(cum)
        self._fault_point(p)

    def _delegate(self, p: int, insn, cost: int, name: str) -> None:
        """Run the reference handler ``Machine.<name>``, charged as
        ``Machine._execute`` charges it.  The handler (and anything it
        reaches — natives can observe counters, or raise right through
        us) must see exact state: flush static charges and any batched
        cache hits first."""
        self.cum[0] += 1
        self.cum[1] += cost
        self.flush()
        if self.needs_cache:
            self.lines.append("cache_.hits += h_")
            self.lines.append("h_ = 0")
        self._fault_point(p)
        self.lines.append(f"MACH.{name}(t, {self._obj(insn)})")
        if self.noting:
            self.lines.append(self._note(self.delegate_notes, "C[c]"))
        self.delegated = self.dynamic = True
        self.touches += 1
        self.missing.add(len(self.segments) - 1)

    def _fault_point(self, p: int) -> None:
        """Mark the instruction at ``p`` as the one that may fault next;
        a tallying trace also notes the L1 misses before it in ``mi_``
        unless nothing that can touch the L1 ran since the last note."""
        self.lines.append(f"t.pc = {p}")
        if self.anchor is not None and self.touches != self.noted:
            self.lines.append("mi_ = cache_.misses")
            self.noted = self.touches

    def _signed(self, var: str, operand) -> str:
        """A signed view of ``operand``: a literal, or ``var`` after
        emitting its conversion."""
        if isinstance(operand, isa.Imm):
            return str(signed(operand.value))
        lines = self.lines
        lines.append(f"{var} = r[{operand}]")
        lines.append(f"if {var} & SB:")
        lines.append(f"    {var} -= T64")
        return var

    def _cache_lines(self, var: str, size: int) -> list[str]:
        """The L1 charge of a ``size``-byte access at ``var``: the update
        of ``L1Cache.access`` inlined for the default geometry (the only
        one Machine builds) -- a most-recently-used hit, a hit that moves
        its line last, or a miss that evicts the oldest line of a full
        set -- and ``TOUCH`` for an access spanning two lines, which a
        byte never does.  A block batches its hit count into ``h_``."""
        self.needs_cache = True
        self.touches += 1
        self.missing.add(len(self.segments) - 1)
        lines = [
            f"ln_ = {var} >> {LINE_BITS}",
            f"w_ = sets_[ln_ & {DEFAULT_SETS - 1}]",
            "if w_ and w_[-1] == ln_:",
            "    h_ += 1",
            "elif ln_ in w_:",
            "    w_.remove(ln_)",
            "    w_.append(ln_)",
            "    h_ += 1",
            "else:",
            f"    if len(w_) >= {DEFAULT_WAYS}:",
            "        del w_[0]",
            "    w_.append(ln_)",
            "    cache_.misses += 1",
            f"    C[c] += {costs.CACHE_MISS_PENALTY}",
        ]
        if size == 1:
            return lines
        return [
            f"if ({var} & {LINE_SIZE - 1}) + {size} <= {LINE_SIZE}:",
            *("    " + line for line in lines),
            "else:",
            f"    TOUCH(t, {var}, {size})",
        ]

    def _addr_expr(self, mem_op: isa.Mem) -> str:
        """The effective-address expression for the common shapes;
        unusual ones call ``Machine.effective_address`` (infallible)."""
        disp, scale = mem_op.disp, mem_op.scale
        if mem_op.abs is not None:
            const = mem_op.abs + disp
            if mem_op.index is None and mem_op.seg is None:
                return repr(const & MASK64)
            if mem_op.seg is None:
                idx = mem_op.index
                if mem_op.use32:
                    return (
                        f"(({const} + (r[{idx}] & {MASK32}) * {scale}) & M)"
                    )
                return f"(({const} + r[{idx}] * {scale}) & M)"
        elif not mem_op.use32 and mem_op.seg is None:
            base = mem_op.base
            if mem_op.index is None:
                return f"((r[{base}] + {disp}) & M)"
            return (
                f"((r[{base}] + {disp} + r[{mem_op.index}] * {scale}) & M)"
            )
        elif mem_op.use32:
            # fs/gs bases are read at execute time, like the reference.
            base = mem_op.base
            seg = ""
            if mem_op.seg == isa.SEG_FS:
                seg = " + MACH.fs_base"
            elif mem_op.seg == isa.SEG_GS:
                seg = " + MACH.gs_base"
            idx = mem_op.index
            if idx is None:
                return f"(((r[{base}] & {MASK32}) + {disp}{seg}) & M)"
            return (
                f"(((r[{base}] & {MASK32}) + {disp}"
                f" + (r[{idx}] & {MASK32}) * {scale}{seg}) & M)"
            )
        return f"MACH.effective_address(t, {self._obj(mem_op)})"

    @staticmethod
    def _operand(value) -> str:
        if isinstance(value, isa.Imm):
            return repr(value.value & MASK64)
        return f"r[{value}]"

    # -- dispatch ------------------------------------------------------

    def emit(self, p: int, insn, through: bool = False) -> None:
        """Emit ``insn`` at ``p``; ``through`` says a ``Jmp`` is not the
        block's last instruction, so the block runs on at its target."""
        if not self.segments:
            self.segments.append((p, []))
            self.notes.append("m0_")
        charges = self.segments[-1][1]
        self.delegated = False
        self.through = through
        charged = self.flushed_cycles + self.cum[1]
        start, touches = len(self.lines), self.touches
        self._emit(p, insn)
        charges.append(self.flushed_cycles + self.cum[1] - charged)
        if self.noting and self.touches != touches:
            # Nothing before the instruction's first line touches the L1.
            self.lines.insert(
                start, self._note(self.touch_notes, "cache_.misses")
            )
        self.index += 1

    def _emit(self, p: int, insn) -> None:
        kind = type(insn)
        if not _schedule_neutral(insn):
            self.impure = True
        reference = self.machine._dispatch.get(kind)
        cost = costs.BASE_COST.get(insn.cost_class)
        if reference is None or cost is None:
            self._delegate(p, insn, 0, "_i_unknown")
            return
        method = _EMITTERS.get(kind)
        if method is None:
            self._delegate(p, insn, cost, reference.__name__)
            return
        method(self, p, insn, cost)

    # -- infallible straight-line instructions -------------------------

    def _e_magic(self, p, insn, cost):
        self.cum[0] += 1
        self.cum[1] += cost

    def _e_mov_ri(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = {insn.imm & MASK64}")

    def _e_mov_rr(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = r[{insn.src}]")

    def _e_mov_fa(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = {insn.value & MASK64}")

    def _e_tlsbase(self, p, insn, cost):
        mask = ~(THREAD_STACK_SIZE - 1)
        self._simple(cost, f"r[{insn.dst}] = r[{regs.RSP}] & {mask}")

    def _e_lea(self, p, insn, cost):
        self._simple(cost, f"r[{insn.dst}] = {self._addr_expr(insn.mem)}")

    def _e_alu(self, p, insn, cost):
        dst, op, a, b = insn.dst, insn.op, insn.a, insn.b
        if op in ("neg", "not"):
            if isinstance(a, isa.Imm):
                value = eval_un(op, a.value & MASK64)
                self._simple(cost, f"r[{dst}] = {value}")
            elif op == "neg":
                self._simple(cost, f"r[{dst}] = -r[{a}] & M")
            else:
                self._simple(cost, f"r[{dst}] = ~r[{a}] & M")
            return
        if op not in _INLINE_ALU:
            self._delegate(p, insn, cost, "_i_alu")
            return
        ea, eb = self._operand(a), self._operand(b)
        if op in ("div", "mod"):
            # Faults on a zero divisor at execute time, never at emit.
            self._pre(p, cost)
            self.lines.append(f"r[{dst}] = EB({op!r}, {ea}, {eb})")
            return
        if isinstance(a, isa.Imm) and isinstance(b, isa.Imm):
            value = eval_bin(op, a.value & MASK64, b.value & MASK64)
            self._simple(cost, f"r[{dst}] = {value}")
            return
        if op == "add":
            expr = f"({ea} + {eb}) & M"
        elif op == "sub":
            expr = f"({ea} - {eb}) & M"
        elif op in _BIT_SYMS:
            expr = f"{ea} {_BIT_SYMS[op]} {eb}"
        elif op == "mul":
            expr = f"({self._signed('x_', a)} * {self._signed('y_', b)}) & M"
        else:
            sh = str(b.value & 63) if isinstance(b, isa.Imm) else f"({eb} & 63)"
            if op == "shl":
                expr = f"({ea} << {sh}) & M"
            else:
                expr = f"({self._signed('x_', a)} >> {sh}) & M"
        self._simple(cost, f"r[{dst}] = {expr}")

    def _condition(self, insn) -> str:
        """``insn.op`` applied to ``insn.a``/``insn.b`` (a COND_OP)."""
        a, b, op = insn.a, insn.b, insn.op
        if op in ("eq", "ne"):
            sym = "==" if op == "eq" else "!="
            return f"{self._operand(a)} {sym} {self._operand(b)}"
        sa = self._signed("x_", a)
        return f"{sa} {_SIGNED_SYMS[op]} {self._signed('y_', b)}"

    def _e_setcc(self, p, insn, cost):
        if insn.op not in isa.COND_OPS:
            self._delegate(p, insn, cost, "_i_setcc")
            return
        dst = insn.dst
        if isinstance(insn.a, isa.Imm) and isinstance(insn.b, isa.Imm):
            value = eval_bin(
                insn.op, insn.a.value & MASK64, insn.b.value & MASK64
            )
            self._simple(cost, f"r[{dst}] = {value}")
            return
        self._simple(cost, f"r[{dst}] = 1 if {self._condition(insn)} else 0")

    # -- fallible inlined instructions ---------------------------------

    @staticmethod
    def _page_read(var: str, size: int) -> list[str]:
        """``v_`` = the ``size`` bytes at ``var``, through the page
        kernel when they lie in one materialized page."""
        if size == 1:  # a byte never crosses a page
            fits, read = "", "v_ = pg_[o_]"
        else:
            fits = f" and o_ <= {PAGE_SIZE - size}"
            read = f"v_, = U{size}(pg_, o_)"
        return [
            f"o_ = {var} & {PAGE_MASK}",
            f"pg_ = PAGES.get({var} - o_)",
            f"if pg_ is not None{fits}:",
            f"    {read}",
            "else:",
            f"    v_ = MREAD({var}, {size})",
        ]

    def _e_load(self, p, insn, cost):
        size = insn.size
        if not isa.valid_access_size(size):
            self._delegate(p, insn, cost, "_i_load")
            return
        expr = self._addr_expr(insn.mem)
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"a_ = {expr}")
        lines.append(f"if a_ >= {CODE_BASE}:")
        if size == 8:
            lines.append("    v_ = RCW(a_)")
        else:
            lines.append(f"    v_ = RCW(a_) & {(1 << (8 * size)) - 1}")
        lines.append("else:")
        lines.extend("    " + line for line in self._cache_lines("a_", size))
        lines.extend("    " + line for line in self._page_read("a_", size))
        lines.append(f"r[{insn.dst}] = v_")
        self.cum[2] += 1

    def _e_store(self, p, insn, cost):
        size = insn.size
        if not isa.valid_access_size(size):
            self._delegate(p, insn, cost, "_i_store")
            return
        expr = self._addr_expr(insn.mem)
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"a_ = {expr}")
        lines.append(f"if a_ >= {CODE_BASE}:")
        lines.append('    raise MF(FU, "write to code space", addr=a_)')
        lines.extend(self._cache_lines("a_", size))
        # Register values and emitted immediates are already 64-bit.
        value = self._operand(insn.src)
        if size == 1:
            write = f"pg_[o_] = {value} & 255"
        elif size == 8:
            write = f"P8(pg_, o_, {value})"
        else:
            write = f"P{size}(pg_, o_, {value} & {(1 << (8 * size)) - 1})"
        body = [
            "b_ = a_ - o_",
            "rg_ = RO.get(b_)",
            "if rg_ is not None:",
            "    for lo_, hi_ in rg_:",
            f"        if a_ < hi_ and a_ + {size} > lo_:",
            '            raise MF(FP, "write to read-only memory", addr=a_)',
            "pg_ = PAGES.get(b_)",
            "if pg_ is not None:",
            f"    {write}",
            "else:",
            f"    MWRITE(a_, {size}, {value})",
        ]
        lines.append(f"o_ = a_ & {PAGE_MASK}")
        if size == 1:  # a byte never crosses a page
            lines.extend(body)
        else:
            lines.append(f"if o_ <= {PAGE_SIZE - size}:")
            lines.extend("    " + line for line in body)
            lines.append("else:")
            lines.append(f"    MWRITE(a_, {size}, {value})")
        self.cum[3] += 1

    def _e_push(self, p, insn, cost):
        self._pre(p, cost)
        self._push(self._operand(insn.src))

    def _push(self, value: str) -> None:
        """Move ``rsp`` down a word and store ``value`` there."""
        lines = self.lines
        lines.append(f"rsp_ = (r[{regs.RSP}] - 8) & M")
        lines.append(f"r[{regs.RSP}] = rsp_")
        lines.append(f"v_ = {value}")
        lines.append(f"if rsp_ >= {CODE_BASE}:")
        lines.append('    raise MF(FU, "write to code space", addr=rsp_)')
        lines.extend(self._cache_lines("rsp_", 8))
        lines.append(f"o_ = rsp_ & {PAGE_MASK}")
        lines.append("pg_ = None")
        lines.append(
            f"if o_ <= {PAGE_SIZE - 8} and not RO.get(rsp_ - o_):"
        )
        lines.append("    pg_ = PAGES.get(rsp_ - o_)")
        lines.append("if pg_ is not None:")
        lines.append("    P8(pg_, o_, v_)")
        lines.append("else:")
        lines.append("    MWRITE(rsp_, 8, v_)")

    def _e_pop(self, p, insn, cost):
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"rsp_ = r[{regs.RSP}]")
        lines.append(f"if rsp_ >= {CODE_BASE}:")
        lines.append("    v_ = RCW(rsp_)")
        lines.append("else:")
        lines.extend(
            "    " + line for line in self._cache_lines("rsp_", 8)
        )
        lines.extend("    " + line for line in self._page_read("rsp_", 8))
        lines.append(f"r[{insn.dst}] = v_")
        lines.append(f"r[{regs.RSP}] = (rsp_ + 8) & M")

    def _e_check_magic(self, p, insn, cost):
        self._pre(p, cost, cfi=1)
        lines = self.lines
        lines.append(f"x_ = r[{insn.reg}]")
        lines.append("w_ = RCW(x_)")
        lines.append(f"if w_ != {~insn.inv_value & MASK64}:")
        detail = f"magic mismatch at target (kind={insn.kind})"
        lines.append(f"    raise MF(FC, {detail!r}, addr=x_)")

    def _e_bndchk(self, p, insn, cost):
        if insn.mem is not None:
            # The fixed post-address surcharge is pre-fault in the
            # reference, so it batches with the base cost.
            cost += costs.BNDCHK_MEM_EXTRA
        self._pre(p, cost, bnd=1)
        lines = self.lines
        if insn.mem is not None:
            lines.append(f"a_ = {self._addr_expr(insn.mem)}")
        else:
            lines.append(f"a_ = r[{insn.reg}]")
        lines.append(f"lo_, hi_ = BND[{insn.bnd}]")
        lines.append("if not (lo_ <= a_ < hi_):")
        lines.append(
            f'    raise MF(FBND, f"bnd{insn.bnd} violation '
            '[{lo_:#x},{hi_:#x})", addr=a_)'
        )

    def _e_chkstk(self, p, insn, cost):
        self._pre(p, cost)
        lines = self.lines
        lines.append(f"rsp_ = r[{regs.RSP}]")
        lines.append("lo_, hi_ = t.pub_stack")
        lines.append("if not (lo_ <= rsp_ <= hi_):")
        lines.append('    raise MF(FK, "rsp escaped its stack", addr=rsp_)')

    # -- terminators ---------------------------------------------------

    def _e_jmp(self, p, insn, cost):
        if self.through:
            self._e_magic(p, insn, cost)
            # The target begins a segment: note its L1 misses, unless
            # nothing touched the L1 since the last segment note.
            self.segments.append((insn.addr, []))
            note = self.notes[-1]
            if self.anchor is not None and self.touches != self.segment_noted:
                # A segment note is a miss note too.
                note = f"m{len(self.segments) - 1}_"
                self.lines.append(f"{note} = mi_ = cache_.misses")
                self.noted = self.segment_noted = self.touches
            self.notes.append(note)
        else:
            self._simple(cost, f"t.pc = {insn.addr}")

    def _e_br(self, p, insn, cost):
        if insn.op not in isa.COND_OPS:
            self._delegate(p, insn, cost, "_i_br")
            return
        self._simple(
            cost,
            f"t.pc = {insn.addr} if {self._condition(insn)} else {p + 1}",
        )

    def _e_call_d(self, p, insn, cost):
        self._pre(p, cost, calls=1)
        self._push(str(CODE_BASE + p + 1))
        self.lines.append(f"t.pc = {insn.addr}")

    def _e_halt(self, p, insn, cost):
        self.cum[0] += 1
        self.cum[1] += cost
        # finish_time reads the cycle counter, so the batched charges
        # must land first.
        self.flush()
        lines = self.lines
        lines.append(f"t.pc = {p}")
        lines.append("t.alive = False")
        lines.append("t.finish_time = C[c]")
        lines.append("if t.tid == 0:")
        lines.append(f"    MACH.exit_code = r[{regs.RAX}]")

    def _e_fail(self, p, insn, cost):
        self._pre(p, cost)
        self.lines.append('raise MF(FC, "__debugbreak reached")')


#: Instruction type -> emitter.  Types absent here (indirect control
#: flow, shadow-stack ops, unknown instructions) call their reference
#: handler.
_EMITTERS = {
    isa.MagicWord: _Emitter._e_magic,
    isa.MovRI: _Emitter._e_mov_ri,
    isa.MovRR: _Emitter._e_mov_rr,
    isa.MovFuncAddr: _Emitter._e_mov_fa,
    isa.Alu: _Emitter._e_alu,
    isa.SetCC: _Emitter._e_setcc,
    isa.Load: _Emitter._e_load,
    isa.Store: _Emitter._e_store,
    isa.Lea: _Emitter._e_lea,
    isa.Push: _Emitter._e_push,
    isa.Pop: _Emitter._e_pop,
    isa.Jmp: _Emitter._e_jmp,
    isa.Br: _Emitter._e_br,
    isa.CallD: _Emitter._e_call_d,
    isa.CheckMagic: _Emitter._e_check_magic,
    isa.BndChk: _Emitter._e_bndchk,
    isa.ChkStk: _Emitter._e_chkstk,
    isa.TlsBase: _Emitter._e_tlsbase,
    isa.Halt: _Emitter._e_halt,
    isa.Fail: _Emitter._e_fail,
}

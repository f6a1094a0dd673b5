"""ConfVerify: the static binary verifier (Section 5.2, Appendix A).

ConfVerify removes ConfLLVM from the TCB: given only a linked binary
and the magic prefixes, it re-establishes that the instrumentation is
sufficient for confidentiality.  It performs, per the paper:

1. **Disassembly / CFG recovery** anchored on the MCall magic words
   (procedure entries), rejecting direct jumps that leave their
   procedure;
2. a per-procedure **dataflow analysis** re-inferring the taint of
   every register at every instruction, seeded from the entry magic's
   taint bits (unused argument registers and caller-saves private,
   callee-saves public);
3. the **checks**: memory-operand taints must be evidenced, under the
   MPX scheme, by an MPX check in the same basic block (the one rule in
   :mod:`.evidence`; a prefixed or 32-bit operand is refused, since the
   loader leaves the fs and gs bases at 0) and, under the segmentation
   scheme, by an fs/gs prefix with 32-bit addressing; an absolute
   operand is rated by its address, so it may carry neither a prefix
   nor 32-bit addressing under either scheme; every store's
   source taint must be ⊑ the operand's region; direct calls' register
   taints must match the callee's magic bits; indirect calls and
   returns must use the CheckMagic pattern with matching bits; ``rsp``
   may only change by constants and (for frame extension) must be
   followed by ``chkstk``; no indirect jumps (other than the read-only
   externals-table stubs), no segment-register writes, no stray
   ``ret``; and for the segmentation scheme, every register-anchored
   operand must be fs/gs-prefixed and 32-bit.

Before any of that it checks that the binary names nothing outside its
own spaces: every symbol (label or function magic address) lies inside
the code, every ALU, set and branch operation is one the machine
implements, every memory operand has a base register or an absolute
address, and every register operand names a general-purpose register
(U code names no segment register at all).

It also re-checks the magic-uniqueness property: no non-magic word's
encoding carries either 59-bit prefix — and, because code is readable
as data, that every magic *word* is itself legitimate: a call-kind word
must carry the MCall prefix, a ret-kind word must carry the MRet
prefix, and ret-kind words outside the linker's start/thunk preamble
may appear only at return sites (immediately after a call).  Without
the placement rule an attacker-controlled compiler could plant a spare
MRet word mid-procedure and divert a corrupted return address to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arith import MASK64
from ..backend import isa, regs
from ..errors import VerifyError
from ..ir.core import BIN_OPS, UN_OPS
from ..link.layout import MPX_STACK_OFFSET, externals_table
from ..link.objfile import Binary
from ..obs import events
# ELIDE_LIMIT is re-exported for the mutation oracle (fuzz/mutate.py).
from .evidence import ELIDE_LIMIT, access_keys, check_key, key_regs

L, H = 0, 1

#: Instruction fields that hold a register id (or an ``Imm``).
_REG_FIELDS = ("dst", "src", "a", "b", "reg")

#: The operations the machine implements, per instruction class.
_OPS = {
    isa.Alu: BIN_OPS | UN_OPS,
    isa.SetCC: isa.COND_OPS,
    isa.Br: isa.COND_OPS,
}


@dataclass
class _Proc:
    name: str
    magic_addr: int
    entry: int
    end: int  # exclusive
    bits: int


class BinaryVerifier:
    def __init__(self, binary: Binary):
        self.binary = binary
        self.config = binary.config
        if not self.config.cfi or self.config.shadow_stack:
            raise VerifyError(
                "config-not-verifiable",
                "ConfVerify requires the magic-sequence CFI scheme",
            )
        if self.config.scheme is None:
            raise VerifyError(
                "config-not-verifiable",
                "ConfVerify requires a bounds scheme (mpx or seg)",
            )
        self.code = binary.code
        self.mcall_word_base = binary.mcall_prefix << 5
        self.mret_word_base = binary.mret_prefix << 5
        for symbols in (binary.label_addrs, binary.func_magic_addrs):
            for name, addr in symbols.items():
                if not 0 <= addr < len(self.code):
                    raise VerifyError(
                        "symbol-outside-code", f"{name} @{addr}"
                    )
        self._stub_addrs = {
            addr
            for name, addr in binary.label_addrs.items()
            if name.startswith("stub.")
        }
        self.layout = binary.layout
        self._externals_range = externals_table(
            self.layout, len(binary.imports)
        )

    # ------------------------------------------------------------------

    def verify(self) -> None:
        with events.span("verify.uniqueness", cat="verify"):
            self._check_magic_uniqueness()
        with events.span("verify.cfg", cat="verify"):
            procs = self._find_procedures()
            self._check_stubs()
        events.counter("verifier.procedures").inc(len(procs))
        with events.span("verify.dataflow", cat="verify"):
            for proc in procs:
                self._verify_procedure(proc)

    # ------------------------------------------------------------------
    # Stage 1: structure

    def _check_magic_uniqueness(self) -> None:
        for addr, word in enumerate(self.code):
            self._check_operands(addr, word)
            if isinstance(word, isa.MagicWord):
                continue
            enc = word.encoding()
            prefix = enc >> 5
            if prefix in (self.binary.mcall_prefix, self.binary.mret_prefix):
                raise VerifyError(
                    "magic-not-unique",
                    f"non-magic word encodes a magic prefix: {word!r}",
                )
        self._check_magic_placement()

    @staticmethod
    def _check_operands(addr: int, word) -> None:
        """Every operation must be one the machine implements, every
        memory operand must be anchored at a register or an absolute
        address, and every register operand must name a general-purpose
        register (the dataflow tracks exactly those); U code may not
        name the segment registers at all."""
        ops = _OPS.get(type(word))
        if ops is not None and word.op not in ops:
            raise VerifyError("bad-operation", f"@{addr}: {word!r}")
        mem = getattr(word, "mem", None)
        operands = [getattr(word, name, None) for name in _REG_FIELDS]
        if mem is not None:
            if mem.base is None and mem.abs is None:
                raise VerifyError("unanchored-operand", f"@{addr}: {word!r}")
            operands += [mem.base, mem.index]
        for reg in operands:
            if type(reg) is int and not 0 <= reg < regs.NUM_GPRS:
                raise VerifyError(
                    "segment-register-write"
                    if reg in (regs.FS, regs.GS)
                    else "bad-register",
                    f"@{addr}: {word!r}",
                )

    def _check_magic_placement(self) -> None:
        """Every magic word must be legitimate *as a word*.

        A call-kind word must carry the MCall prefix and a ret-kind
        word the MRet prefix (a ret-kind word carrying the MCall prefix
        would be a forged indirect-call target that the uniqueness scan
        above deliberately skips).  Ret-kind words outside the linker
        preamble (the start/thread-exit/T-return thunks that precede
        the first procedure) may only appear at return sites, i.e.
        immediately after a call — a spare MRet word anywhere else
        would let a corrupted return address land mid-procedure.
        """
        preamble_end = len(self.code)
        for addr, word in enumerate(self.code):
            if isinstance(word, isa.MagicWord) and word.kind == "call":
                preamble_end = addr
                break
        for addr, word in enumerate(self.code):
            if not isinstance(word, isa.MagicWord):
                continue
            expected_prefix = (
                self.binary.mcall_prefix
                if word.kind == "call"
                else self.binary.mret_prefix
            )
            if (word.value >> 5) != expected_prefix:
                raise VerifyError(
                    "bad-magic-word",
                    f"{word.kind} magic with wrong prefix @{addr}",
                )
            if word.kind == "ret" and addr >= preamble_end:
                prev = self.code[addr - 1] if addr > 0 else None
                if not isinstance(prev, (isa.CallD, isa.CallI)):
                    raise VerifyError(
                        "stray-ret-magic",
                        f"ret magic @{addr} is not at a return site",
                    )

    def _find_procedures(self) -> list[_Proc]:
        entries: list[tuple[int, int]] = []  # (magic addr, bits)
        for addr, word in enumerate(self.code):
            if isinstance(word, isa.MagicWord) and word.kind == "call":
                if (word.value >> 5) != self.binary.mcall_prefix:
                    raise VerifyError(
                        "bad-magic-word", f"call magic with wrong prefix @{addr}"
                    )
                entries.append((addr, word.value & 0x1F))
        if not entries:
            raise VerifyError("no-procedures", "no MCall magic words found")
        stub_start = min(self._stub_addrs) if self._stub_addrs else len(self.code)
        procs = []
        addr_to_name = {
            maddr: name for name, maddr in self.binary.func_magic_addrs.items()
        }
        for index, (maddr, bits) in enumerate(entries):
            end = (
                entries[index + 1][0]
                if index + 1 < len(entries)
                else stub_start
            )
            name = addr_to_name.get(maddr, f"proc@{maddr}")
            procs.append(_Proc(name, maddr, maddr + 1, end, bits))
        return procs

    def _check_stubs(self) -> None:
        """Each T-import stub is one ``jmp [abs]`` through a slot of the
        externals table.  The table's range comes from the layout
        (``layout.externals_table``), not from the binary, and the
        loader writes and write-protects every slot itself, so a stub
        can only reach a T wrapper."""
        lo, hi = self._externals_range
        for addr in self._stub_addrs:
            insn = self.code[addr]
            if not isinstance(insn, isa.JmpInd):
                raise VerifyError("bad-stub", f"stub @{addr} is {insn!r}")
            mem = insn.mem
            ok = (
                mem.abs is not None
                and mem.base is None
                and mem.index is None
                and lo <= mem.abs + mem.disp < hi
            )
            if not ok:
                raise VerifyError(
                    "bad-stub", f"stub @{addr} jumps outside externals table"
                )

    # ------------------------------------------------------------------
    # Stage 2+3: per-procedure dataflow and checks

    def _verify_procedure(self, proc: _Proc) -> None:
        blocks = self._build_blocks(proc)
        entry_state = self._entry_state(proc.bits)
        in_states: dict[int, list[int]] = {proc.entry: entry_state}
        worklist = [proc.entry]
        seen_once: set[int] = set()
        iterations = 0
        edges = 0
        while worklist:
            leader = worklist.pop()
            state = in_states[leader]
            out_edges = self._flow_block(
                proc, blocks, leader, list(state)
            )
            iterations += 1
            edges += len(out_edges)
            seen_once.add(leader)
            for target, out_state in out_edges:
                if target not in blocks:
                    raise VerifyError(
                        "jump-outside-procedure",
                        f"{proc.name}: edge to {target} leaves the procedure",
                    )
                old = in_states.get(target)
                if old is None:
                    in_states[target] = list(out_state)
                    worklist.append(target)
                else:
                    merged = [max(a, b) for a, b in zip(old, out_state)]
                    if merged != old:
                        in_states[target] = merged
                        worklist.append(target)
        events.counter("verifier.blocks").inc(len(blocks))
        events.counter("verifier.cfg_edges").inc(edges)
        events.counter("verifier.dataflow_iterations").inc(iterations)

    def _entry_state(self, bits: int) -> list[int]:
        state = [H] * regs.NUM_GPRS  # dead registers conservatively private
        for i, reg in enumerate(regs.ARG_REGS):
            state[reg] = (bits >> i) & 1
        for reg in regs.CALLEE_SAVE:
            state[reg] = L
        state[regs.RSP] = L
        return state

    def _build_blocks(self, proc: _Proc) -> dict[int, int]:
        """Return {leader addr: end addr} for the procedure's blocks."""
        leaders = {proc.entry}
        addr = proc.entry
        while addr < proc.end:
            insn = self.code[addr]
            if isinstance(insn, (isa.Jmp, isa.Br)):
                leaders.add(insn.addr)
                leaders.add(addr + 1)
            addr += 1
        ordered = sorted(x for x in leaders if proc.entry <= x < proc.end)
        blocks = {}
        for i, leader in enumerate(ordered):
            end = ordered[i + 1] if i + 1 < len(ordered) else proc.end
            blocks[leader] = end
        return blocks

    # -- the per-block transfer function, enforcing all checks ----------

    def _flow_block(self, proc, blocks, leader, state):
        """Walk one block; returns [(successor leader, out state)].

        ``checked`` holds the evidence keys of the MPX checks seen in this
        block (:mod:`.evidence`), removed on register redefinition and
        cleared at calls: the paper's verifier "looks for MPX checks ...
        in the same basic block".
        """
        checked: set = set()
        edges: list[tuple[int, list[int]]] = []
        addr = leader
        end = blocks[leader]
        code = self.code

        def define(reg: int, taint: int) -> None:
            state[reg] = taint
            for key in [k for k in checked if reg in key_regs(k)]:
                checked.discard(key)

        def operand_taint(op) -> int:
            if isinstance(op, isa.Imm):
                return L
            return state[op]

        while addr < end:
            insn = code[addr]
            if isinstance(insn, isa.MagicWord):
                if insn.kind == "call":  # pragma: no cover - proc bounds
                    raise VerifyError("magic-in-body", proc.name)
                addr += 1
                continue
            if isinstance(insn, (isa.MovRI, isa.MovFuncAddr)):
                define(insn.dst, L)
            elif isinstance(insn, isa.MovRR):
                if insn.dst == regs.RSP:
                    raise VerifyError("rsp-overwrite", f"{proc.name}@{addr}")
                define(insn.dst, state[insn.src])
            elif isinstance(insn, isa.Alu):
                self._check_rsp_arith(proc, addr, insn)
                taint = max(operand_taint(insn.a), operand_taint(insn.b))
                if insn.op in ("neg", "not"):
                    taint = operand_taint(insn.a)
                define(insn.dst, taint)
            elif isinstance(insn, isa.SetCC):
                define(
                    insn.dst,
                    max(operand_taint(insn.a), operand_taint(insn.b)),
                )
            elif isinstance(insn, isa.Lea):
                self._check_seg_operand(proc, addr, insn.mem, lea=True)
                define(insn.dst, L)
            elif isinstance(insn, isa.Load):
                region = self._operand_region(proc, addr, insn.mem, checked)
                define(insn.dst, H if region == "priv" else L)
            elif isinstance(insn, isa.Store):
                region = self._operand_region(proc, addr, insn.mem, checked)
                src_taint = operand_taint(insn.src)
                if src_taint == H and region == "pub":
                    raise VerifyError(
                        "store-taint-mismatch",
                        f"{proc.name}@{addr}: private value stored to "
                        f"public memory: {insn!r}",
                    )
            elif isinstance(insn, isa.BndChk):
                key = check_key(insn)
                if key is None:
                    raise VerifyError(
                        "bad-bound-check",
                        f"{proc.name}@{addr}: {insn!r} has an absolute, "
                        "global, prefixed or 32-bit operand",
                    )
                checked.add(key)
            elif isinstance(insn, isa.Push):
                pass
            elif isinstance(insn, isa.Pop):
                # Values popped from the public stack are public, except
                # the CFI return sequence handles its own Pop below.
                nxt = code[addr + 1] if addr + 1 < end else None
                if isinstance(nxt, isa.CheckMagic) and nxt.kind == "ret":
                    self._verify_return(proc, addr, end, state)
                    return edges  # return terminates the block
                define(insn.dst, L)
            elif isinstance(insn, isa.Jmp):
                edges.append((insn.addr, state))
                return edges
            elif isinstance(insn, isa.Br):
                edges.append((insn.addr, list(state)))
                edges.append((addr + 1, state))
                return edges
            elif isinstance(insn, isa.CallD):
                addr = self._verify_direct_call(proc, addr, state)
                checked.clear()
                continue
            elif isinstance(insn, isa.CheckMagic):
                if insn.kind != "call":
                    raise VerifyError(
                        "stray-checkmagic", f"{proc.name}@{addr}"
                    )
                addr = self._verify_indirect_call(proc, addr, state)
                checked.clear()
                continue
            elif isinstance(insn, isa.CallI):
                raise VerifyError(
                    "unchecked-indirect-call", f"{proc.name}@{addr}"
                )
            elif isinstance(insn, isa.RetPlain):
                raise VerifyError("plain-ret", f"{proc.name}@{addr}")
            elif isinstance(insn, (isa.JmpInd, isa.JmpReg, isa.JmpTable)):
                raise VerifyError("indirect-jump", f"{proc.name}@{addr}")
            elif isinstance(insn, isa.ChkStk):
                pass
            elif isinstance(insn, isa.TlsBase):
                define(insn.dst, L)
            elif isinstance(insn, isa.Fail):
                return edges  # dead end
            elif isinstance(insn, isa.Halt):
                raise VerifyError("halt-in-procedure", f"{proc.name}@{addr}")
            else:  # pragma: no cover
                raise VerifyError("unknown-instruction", repr(insn))
            addr += 1
        if addr >= proc.end:
            raise VerifyError(
                "fallthrough-out-of-procedure", f"{proc.name}@{addr}"
            )
        edges.append((addr, state))
        return edges

    # -- helpers ----------------------------------------------------------

    def _check_rsp_arith(self, proc, addr, insn: isa.Alu) -> None:
        if insn.dst != regs.RSP:
            return
        if insn.op not in ("add", "sub") or not isinstance(insn.b, isa.Imm):
            raise VerifyError(
                "rsp-non-constant-arith", f"{proc.name}@{addr}: {insn!r}"
            )
        if insn.a != regs.RSP:
            raise VerifyError("rsp-overwrite", f"{proc.name}@{addr}")
        if insn.op == "sub" and self.config.chkstk:
            nxt = self.code[addr + 1] if addr + 1 < len(self.code) else None
            if not isinstance(nxt, isa.ChkStk):
                raise VerifyError(
                    "missing-chkstk",
                    f"{proc.name}@{addr}: frame extension without chkstk",
                )

    def _check_seg_operand(self, proc, addr, mem: isa.Mem, lea=False) -> None:
        if self.config.scheme != "seg":
            return
        if mem.abs is not None or mem.global_name is not None:
            return
        if mem.seg is None or not mem.use32:
            raise VerifyError(
                "unprefixed-operand",
                f"{proc.name}@{addr}: operand {mem!r} lacks fs/gs + 32-bit "
                "addressing",
            )

    def _operand_region(self, proc, addr, mem: isa.Mem, checked) -> str:
        layout = self.layout
        mpx = self.config.scheme == "mpx"
        if mem.abs is not None and (mem.seg is not None or mem.use32):
            # The machine adds the fs/gs base to a prefixed absolute
            # address (and 32-bit addressing masks nothing there), so
            # abs + disp is not where such an operand points.
            raise VerifyError(
                "prefixed-static-operand", f"{proc.name}@{addr}: {mem!r}"
            )
        if mpx and (mem.seg is not None or mem.use32):
            # The loader leaves the fs and gs bases at 0 under MPX, and
            # both regions lie below 4 GiB: neither confines anything.
            raise VerifyError(
                "prefix-under-mpx", f"{proc.name}@{addr}: {mem!r}"
            )
        if mem.abs is not None:
            if mem.index is not None:
                raise VerifyError(
                    "indexed-static-operand",
                    f"{proc.name}@{addr}: absolute operand with an index "
                    "register could escape its region",
                )
            target = mem.abs + mem.disp
            if layout.private is not None and layout.private.contains(target):
                return "priv"
            if layout.public.contains(target):
                return "pub"
            raise VerifyError(
                "static-operand-outside-regions", f"{proc.name}@{addr}"
            )
        if not mpx:
            if mem.seg not in (isa.SEG_FS, isa.SEG_GS) or not mem.use32:
                raise VerifyError(
                    "unprefixed-operand", f"{proc.name}@{addr}: {mem!r}"
                )
            return "priv" if mem.seg == isa.SEG_GS else "pub"
        # MPX scheme: rsp-anchored operands are covered by chkstk.
        if mem.base == regs.RSP:
            return (
                "priv"
                if self.config.split_stacks and mem.disp >= MPX_STACK_OFFSET
                else "pub"
            )
        for bnd, region in ((0, "pub"), (1, "priv")):
            if not checked.isdisjoint(access_keys(mem, bnd)):
                return region
        raise VerifyError(
            "missing-bounds-check",
            f"{proc.name}@{addr}: unchecked operand {mem!r}",
        )

    def _callee_bits_at(self, target_addr: int, proc, addr) -> int:
        """Taint bits of the procedure or stub a direct call targets."""
        if target_addr in self._stub_addrs:
            name = next(
                n[5:]
                for n, a in self.binary.label_addrs.items()
                if a == target_addr and n.startswith("stub.")
            )
            for ext in self.binary.imports:
                if ext.name == name:
                    return ext.entry_bits
            raise VerifyError("unknown-import", name)  # pragma: no cover
        magic = (
            self.code[target_addr - 1]
            if 0 < target_addr <= len(self.code)
            else None
        )
        if not (isinstance(magic, isa.MagicWord) and magic.kind == "call"):
            raise VerifyError(
                "call-to-non-procedure",
                f"{proc.name}@{addr} -> {target_addr}",
            )
        return magic.value & 0x1F

    def _check_call_bits(self, proc, addr, state, bits: int) -> None:
        for i, reg in enumerate(regs.ARG_REGS):
            expected = (bits >> i) & 1
            if state[reg] > expected:
                raise VerifyError(
                    "call-taint-mismatch",
                    f"{proc.name}@{addr}: arg reg {regs.name(reg)} is "
                    f"private but callee expects public",
                )

    def _after_call(self, proc, addr, state, ret_bit: int) -> int:
        """Verify the return-site magic word and produce the post-call
        state; returns the address execution continues at."""
        magic = self.code[addr] if addr < len(self.code) else None
        if not (isinstance(magic, isa.MagicWord) and magic.kind == "ret"):
            raise VerifyError(
                "missing-return-site-magic", f"{proc.name}@{addr}"
            )
        if (magic.value >> 5) != self.binary.mret_prefix:
            raise VerifyError("bad-magic-word", f"{proc.name}@{addr}")
        if (magic.value & 0x1F) != ret_bit:
            raise VerifyError(
                "return-site-taint-mismatch",
                f"{proc.name}@{addr}: site expects {magic.value & 0x1F}, "
                f"callee returns {ret_bit}",
            )
        state[regs.RAX] = ret_bit
        for reg in (regs.RCX, regs.RDX, regs.R8, regs.R9, regs.R10, regs.R11):
            state[reg] = H  # caller-saves conservatively private
        for reg in regs.CALLEE_SAVE:
            state[reg] = L
        return addr + 1

    def _verify_direct_call(self, proc, addr, state) -> int:
        insn: isa.CallD = self.code[addr]
        bits = self._callee_bits_at(insn.addr, proc, addr)
        self._check_call_bits(proc, addr, state, bits)
        return self._after_call(proc, addr + 1, state, (bits >> 4) & 1)

    def _verify_indirect_call(self, proc, addr, state) -> int:
        check: isa.CheckMagic = self.code[addr]
        expected = ~check.inv_value & MASK64
        if (expected >> 5) != self.binary.mcall_prefix:
            raise VerifyError(
                "bad-icall-check",
                f"{proc.name}@{addr}: check does not target MCall",
            )
        bits = expected & 0x1F
        if state[check.reg] != L:
            raise VerifyError(
                "private-function-pointer", f"{proc.name}@{addr}"
            )
        nxt = self.code[addr + 1] if addr + 1 < len(self.code) else None
        if not (isinstance(nxt, isa.CallI) and nxt.reg == check.reg):
            raise VerifyError(
                "icall-check-pattern",
                f"{proc.name}@{addr}: CheckMagic not followed by CallI on "
                "the same register",
            )
        self._check_call_bits(proc, addr, state, bits)
        return self._after_call(proc, addr + 2, state, (bits >> 4) & 1)

    def _verify_return(self, proc, addr, end, state) -> None:
        pop: isa.Pop = self.code[addr]
        check: isa.CheckMagic = self.code[addr + 1]
        if check.reg != pop.dst:
            raise VerifyError("ret-check-pattern", f"{proc.name}@{addr}")
        expected = ~check.inv_value & MASK64
        if (expected >> 5) != self.binary.mret_prefix:
            raise VerifyError("ret-check-pattern", f"{proc.name}@{addr}")
        ret_bit = expected & 0x1F
        # RAX must be no more tainted than the declared return taint.
        if state[regs.RAX] > (ret_bit & 1):
            raise VerifyError(
                "return-taint-mismatch",
                f"{proc.name}@{addr}: private rax returned as public",
            )
        # The procedure's own entry bits must agree.
        if (ret_bit & 1) != (proc.bits >> 4) & 1:
            raise VerifyError(
                "return-taint-mismatch",
                f"{proc.name}@{addr}: ret bit disagrees with entry magic",
            )
        nxt = self.code[addr + 2] if addr + 2 < len(self.code) else None
        if not (
            isinstance(nxt, isa.JmpReg)
            and nxt.reg == pop.dst
            and nxt.skip == 1
        ):
            raise VerifyError("ret-check-pattern", f"{proc.name}@{addr}")


def verify_binary(binary: Binary) -> None:
    """Run ConfVerify on a linked binary; raises VerifyError on reject."""
    with events.span("compile.verify", cat="verify", config=binary.config.name):
        BinaryVerifier(binary).verify()

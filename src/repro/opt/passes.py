"""Taint-preserving IR optimization passes.

ConfLLVM runs the standard LLVM pipeline but must disable passes that
do not preserve its taint metadata (Section 5.1: "We disable the
remaining optimizations in our prototype").  We model this with a
supported set that every configuration runs, plus "unsupported" passes
(currently local CSE) that only the vanilla ``Base`` pipeline runs.
The OurBare-vs-Base gap in Figure 5 partly comes from exactly this.

All passes here preserve the taint invariants: they never change the
taint of a virtual register or the region of a memory access; they only
remove or replace instructions whose results are provably equivalent.

Each pass accepts an optional ``witness`` (a
:class:`repro.opt.witness.Witness`): when present, the pass records one
obligation per rewrite — the claims the independent translation checker
(:func:`repro.opt.witness.check_witness`) re-derives from the pre/post
IR before the pipeline commits the rewrite.  Passing ``witness=None``
runs the pass uncertified (direct unit-test use).
"""

from __future__ import annotations

from ..arith import eval_bin, eval_un, wrap
from ..errors import MachineFault
from ..ir.core import (
    Bin,
    Block,
    Branch,
    Call,
    CallIndirect,
    Const,
    Copy,
    IRFunction,
    IRModule,
    Jump,
    Lea,
    Load,
    MemRef,
    Ret,
    Store,
    SwitchBr,
    Un,
    VarArgAddr,
    VReg,
)

# ---------------------------------------------------------------------------
# Slot promotion (mem2reg-lite)


def promote_slots(func: IRFunction, witness=None) -> bool:
    """Turn non-address-taken scalar frame slots into virtual registers.

    Promoted registers are zero-initialized at entry so that reads of
    uninitialized locals (undefined behaviour in C) read a defined zero
    instead of tripping the IR verifier.
    """
    promotable = {
        slot.uid: slot
        for slot in func.slots
        if not slot.address_taken and slot.size in (1, 8)
    }
    if not promotable:
        return False
    # A slot is only promotable if every reference is a whole-slot
    # direct Load/Store (no index, no displacement, matching size).
    for block in func.blocks:
        for instr in block.instrs:
            mems: list[tuple[MemRef, int]] = []
            if isinstance(instr, Load):
                mems.append((instr.mem, instr.size))
            elif isinstance(instr, Store):
                mems.append((instr.mem, instr.size))
            elif isinstance(instr, Lea):
                if instr.mem.slot is not None:
                    promotable.pop(instr.mem.slot.uid, None)
                continue
            for mem, size in mems:
                if mem.slot is None:
                    continue
                clean = (
                    mem.index is None
                    and mem.disp == 0
                    and size == mem.slot.size
                )
                if not clean:
                    promotable.pop(mem.slot.uid, None)
    if not promotable:
        return False
    regs = {
        uid: func.new_vreg(slot.taint, f"p.{slot.name}")
        for uid, slot in promotable.items()
    }
    if witness is not None:
        for uid, slot in promotable.items():
            witness.add(
                "layout", f"slot:{uid}", "promoted", regs[uid].id,
                int(slot.taint),
            )
    for block in func.blocks:
        new_instrs = []
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, Load) and instr.mem.slot is not None:
                reg = regs.get(instr.mem.slot.uid)
                if reg is not None:
                    if witness is not None:
                        witness.add(
                            "layout", f"{block.name}@{i}",
                            "slot-access", instr.mem.slot.uid, reg.id,
                        )
                    new_instrs.append(Copy(instr.dst, reg))
                    continue
            if isinstance(instr, Store) and instr.mem.slot is not None:
                reg = regs.get(instr.mem.slot.uid)
                if reg is not None:
                    if witness is not None:
                        witness.add(
                            "layout", f"{block.name}@{i}",
                            "slot-access", instr.mem.slot.uid, reg.id,
                        )
                    new_instrs.append(Copy(reg, instr.src))
                    continue
            new_instrs.append(instr)
        block.instrs = new_instrs
    entry = func.blocks[0]
    inits = [Const(reg, 0) for reg in regs.values()]
    entry.instrs[:0] = inits
    if witness is not None:
        witness.add(
            "taint", f"{entry.name}@init", "zero-init",
            tuple(reg.id for reg in regs.values()),
        )
    func.slots = [s for s in func.slots if s.uid not in promotable]
    return True


# ---------------------------------------------------------------------------
# Block-local copy propagation and constant folding


def _subst(operand, env):
    if isinstance(operand, VReg) and operand.id in env:
        return env[operand.id]
    return operand


def _def_taints(instr) -> tuple:
    return tuple(int(v.taint) for v in instr.defs())


def copyprop_and_fold(func: IRFunction, witness=None) -> bool:
    """Forward-propagate copies/constants within each block and fold
    constant expressions.  Taints are preserved: a propagated value is
    only substituted into positions whose taint the original register
    already had or exceeded (substitution never changes instruction
    taints, only operand identity)."""
    changed = False
    for block in func.blocks:
        env: dict[int, object] = {}  # vreg id -> replacement Operand
        new_instrs = []
        block_changed = False
        for i, original in enumerate(block.instrs):
            instr = _rewrite_uses(original, env)
            # Kill mappings for anything this instruction redefines.
            for d in instr.defs():
                env.pop(d.id, None)
                for key, val in list(env.items()):
                    if isinstance(val, VReg) and val.id == d.id:
                        del env[key]
            if isinstance(instr, Const):
                env[instr.dst.id] = instr.value
            elif isinstance(instr, Copy):
                if isinstance(instr.src, int):
                    env[instr.dst.id] = instr.src
                elif instr.src.taint == instr.dst.taint:
                    env[instr.dst.id] = instr.src
            elif isinstance(instr, Bin):
                if isinstance(instr.a, int) and isinstance(instr.b, int):
                    try:
                        value = eval_bin(instr.op, instr.a, instr.b)
                    except MachineFault:
                        value = None
                    if value is not None:
                        instr = Const(instr.dst, value)
                        env[instr.dst.id] = value
            elif isinstance(instr, Un):
                if isinstance(instr.src, int):
                    value = eval_un(instr.op, instr.src)
                    instr = Const(instr.dst, value)
                    env[instr.dst.id] = value
            if instr is not original:
                block_changed = True
                if witness is not None:
                    witness.add(
                        "taint", f"{block.name}@{i}", "rewrite",
                        _def_taints(original), _def_taints(instr),
                    )
            new_instrs.append(instr)
        if block_changed:
            block.instrs = new_instrs
            changed = True
    return changed


def _rewrite_mem(mem: MemRef, env) -> MemRef:
    base = _subst(mem.base, env) if mem.base is not None else None
    index = _subst(mem.index, env) if mem.index is not None else None
    disp = mem.disp
    # Fold constant index registers into the displacement.
    if isinstance(index, int):
        disp += index * mem.scale
        index = None
    if isinstance(base, int):
        # An absolute base is unusual; keep the original register.
        base = mem.base
    if base is mem.base and index is mem.index and disp == mem.disp:
        return mem
    return MemRef(
        region=mem.region,
        base=base,
        slot=mem.slot,
        global_name=mem.global_name,
        index=index,
        scale=mem.scale,
        disp=disp,
    )


def _rewrite_uses(instr, env):
    """``instr`` with its uses substituted from ``env``; the original
    object itself when nothing changes, so an untouched instruction
    keeps its identity (the witness checker compares by identity)."""
    if isinstance(instr, Copy):
        src = _subst(instr.src, env)
        if src is instr.src:
            return instr
        return Copy(instr.dst, src)
    if isinstance(instr, Un):
        src = _subst(instr.src, env)
        if src is instr.src:
            return instr
        return Un(instr.op, instr.dst, src)
    if isinstance(instr, Bin):
        a, b = _subst(instr.a, env), _subst(instr.b, env)
        if a is instr.a and b is instr.b:
            return instr
        return Bin(instr.op, instr.dst, a, b)
    if isinstance(instr, Load):
        mem = _rewrite_mem(instr.mem, env)
        if mem is instr.mem:
            return instr
        return Load(instr.dst, mem, instr.size)
    if isinstance(instr, Store):
        mem, src = _rewrite_mem(instr.mem, env), _subst(instr.src, env)
        if mem is instr.mem and src is instr.src:
            return instr
        return Store(mem, src, instr.size)
    if isinstance(instr, Lea):
        mem = _rewrite_mem(instr.mem, env)
        if mem is instr.mem:
            return instr
        return Lea(instr.dst, mem)
    if isinstance(instr, Call):
        args = _subst_args(instr.args, env)
        if args is instr.args:
            return instr
        return Call(
            instr.dst,
            instr.name,
            args,
            instr.arg_taints,
            instr.ret_taint,
            instr.n_fixed,
        )
    if isinstance(instr, CallIndirect):
        target = _subst(instr.target, env)
        if isinstance(target, int):
            target = instr.target
        args = _subst_args(instr.args, env)
        if target is instr.target and args is instr.args:
            return instr
        return CallIndirect(
            instr.dst,
            target,
            args,
            instr.arg_taints,
            instr.ret_taint,
            instr.n_fixed,
        )
    if isinstance(instr, VarArgAddr):
        index = _subst(instr.index, env)
        if index is instr.index:
            return instr
        return VarArgAddr(instr.dst, index)
    if isinstance(instr, Branch):
        cond = _subst(instr.cond, env)
        if cond is instr.cond:
            return instr
        if isinstance(cond, int):
            return Jump(instr.if_true if cond != 0 else instr.if_false)
        return Branch(cond, instr.if_true, instr.if_false)
    if isinstance(instr, SwitchBr):
        cond = _subst(instr.cond, env)
        if cond is instr.cond:
            return instr
        if isinstance(cond, int):
            for value, target in instr.table:
                if wrap(value) == wrap(cond):
                    return Jump(target)
            return Jump(instr.default)
        return SwitchBr(cond, instr.table, instr.default)
    if isinstance(instr, Ret):
        value = _subst(instr.value, env)
        if value is instr.value:
            return instr
        return Ret(value)
    return instr


def _subst_args(args: tuple, env) -> tuple:
    """``args`` substituted from ``env``; ``args`` itself if unchanged."""
    new = tuple(_subst(a, env) for a in args)
    if all(x is y for x, y in zip(new, args)):
        return args
    return new


# ---------------------------------------------------------------------------
# Dead code elimination


_PURE = (Const, Copy, Bin, Un, Lea, Load, VarArgAddr)


def dce(func: IRFunction, witness=None) -> bool:
    """Remove pure instructions whose results are never used, to a
    fixpoint: deleting one can leave the registers it read unused.

    One walk counts each register's uses; a register whose count drops
    to zero takes its pure definitions with it.  Deletion is confluent,
    so this removes exactly what repeated whole-function rounds would.
    Witness sites key deletions by pre-pass index.
    """
    uses: dict[int, int] = {}
    defined_at: dict[int, list[tuple[Block, int]]] = {}
    for block in func.blocks:
        for pos, instr in enumerate(block.instrs):
            for u in instr.uses():
                uses[u.id] = uses.get(u.id, 0) + 1
            if isinstance(instr, _PURE):
                defined_at.setdefault(instr.dst.id, []).append((block, pos))
    dead: dict[str, set[int]] = {}
    work = [vid for vid in defined_at if vid not in uses]
    while work:
        for block, pos in defined_at.pop(work.pop(), ()):
            dead.setdefault(block.name, set()).add(pos)
            for u in block.instrs[pos].uses():
                uses[u.id] -= 1
                if not uses[u.id]:
                    work.append(u.id)
    for block in func.blocks:
        gone = dead.get(block.name)
        if not gone:
            continue
        if witness is not None:
            for pos in sorted(gone):
                witness.add(
                    "layout", f"{block.name}@{pos}", "dead",
                    (block.instrs[pos].dst.id,),
                )
        block.instrs = [
            instr for pos, instr in enumerate(block.instrs)
            if pos not in gone
        ]
    return bool(dead)


# ---------------------------------------------------------------------------
# CFG simplification


def simplify_cfg(func: IRFunction, witness=None) -> bool:
    changed = False
    threaded: list[str] = []  # blocks whose terminator was rewritten
    # 1. Thread jumps to blocks that only contain a single Jump.
    block_map = func.block_map()
    forward: dict[str, str] = {}
    for block in func.blocks:
        if len(block.instrs) == 1 and isinstance(block.instrs[0], Jump):
            forward[block.name] = block.instrs[0].target

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            target = resolve(term.target)
            if target != term.target:
                block.instrs[-1] = Jump(target)
                threaded.append(block.name)
                changed = True
        elif isinstance(term, Branch):
            t = resolve(term.if_true)
            f = resolve(term.if_false)
            if t == f:
                block.instrs[-1] = Jump(t)
                threaded.append(block.name)
                changed = True
            elif t != term.if_true or f != term.if_false:
                block.instrs[-1] = Branch(term.cond, t, f)
                threaded.append(block.name)
                changed = True

    # 2. Remove unreachable blocks.
    reachable: set[str] = set()
    stack = [func.blocks[0].name]
    block_map = func.block_map()
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        stack.extend(block_map[name].successors())
    if len(reachable) != len(func.blocks):
        if witness is not None:
            for block in func.blocks:
                if block.name not in reachable:
                    witness.add(
                        "layout", f"block:{block.name}", "unreachable"
                    )
        func.blocks = [b for b in func.blocks if b.name in reachable]
        changed = True

    # 3. Merge straight-line pairs (single successor with single pred).
    preds: dict[str, list[str]] = {b.name: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ].append(block.name)
    block_map = func.block_map()
    merged: set[str] = set()
    for block in func.blocks:
        if block.name in merged:
            continue
        while True:
            term = block.terminator
            if not isinstance(term, Jump):
                break
            succ_name = term.target
            if succ_name == block.name or len(preds[succ_name]) != 1:
                break
            succ = block_map[succ_name]
            if succ is func.blocks[0]:
                break
            block.instrs = block.instrs[:-1] + succ.instrs
            merged.add(succ_name)
            if witness is not None:
                witness.add(
                    "layout", f"block:{succ_name}", "merged", block.name
                )
            preds.pop(succ_name, None)
            for name, plist in preds.items():
                preds[name] = [
                    block.name if p == succ_name else p for p in plist
                ]
            changed = True
    if merged:
        func.blocks = [b for b in func.blocks if b.name not in merged]
    if witness is not None:
        # Threaded terminators of blocks that did not survive the run
        # (removed as unreachable or absorbed by a merge) need no
        # obligation — the blocks' own removal claims cover them.
        survivors = {b.name for b in func.blocks}
        for name in threaded:
            if name in survivors:
                witness.add("taint", f"{name}@term", "thread")
    return changed


# ---------------------------------------------------------------------------
# Local common-subexpression elimination (vanilla-only pass)


def cse_local(func: IRFunction, witness=None) -> bool:
    """Block-local CSE over pure register computations.

    This pass models the optimizations ConfLLVM *disables* ("we chose to
    modify only the most important ones ... we disable the remaining
    optimizations"): only the vanilla Base pipeline runs it.
    """
    changed = False
    for block in func.blocks:
        available: dict[tuple, VReg] = {}
        new_instrs = []
        for i, instr in enumerate(block.instrs):
            key = None
            if isinstance(instr, Bin):
                key = ("bin", instr.op, _okey(instr.a), _okey(instr.b))
            elif isinstance(instr, Un):
                key = ("un", instr.op, _okey(instr.src))
            replaced = False
            if key is not None:
                prev = available.get(key)
                if prev is not None and prev.taint == instr.defs()[0].taint:
                    if witness is not None:
                        witness.add(
                            "taint", f"{block.name}@{i}", "cse",
                            prev.id, instr.defs()[0].id,
                        )
                    new_instrs.append(Copy(instr.defs()[0], prev))
                    changed = True
                    replaced = True
            # Invalidate entries that read or hold any redefined reg...
            for d in instr.defs():
                stale = [
                    k
                    for k, v in available.items()
                    if v.id == d.id or _key_uses(k, d.id)
                ]
                for k in stale:
                    del available[k]
            if isinstance(instr, (Call, CallIndirect)):
                available.clear()
            if replaced:
                continue
            # ...then record this computation as available.
            if key is not None:
                available[key] = instr.defs()[0]
            new_instrs.append(instr)
        block.instrs = new_instrs
    return changed


def _okey(operand):
    if isinstance(operand, VReg):
        return ("r", operand.id)
    return ("i", operand)


def _key_uses(key: tuple, vreg_id: int) -> bool:
    return any(
        isinstance(part, tuple) and part == ("r", vreg_id) for part in key
    )

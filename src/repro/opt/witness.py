"""Translation-validation witnesses for the certified opt pipeline.

Every IR pass in :mod:`repro.opt.pipeline` returns a structured
:class:`Witness` alongside its rewrite: a list of per-rewrite
:class:`Obligation` records (taint-preservation and layout-preservation
claims).  :func:`check_witness` is the independent checker: it
recomputes everything a claim asserts from the ``(pre, post)`` IR it is
handed — the pipeline's own pre-pass snapshot and the rewritten
function, never anything the pass reports about them — and raises
:class:`WitnessError` on any discrepancy, at which point the pipeline
reverts the pass (see ``run_certified_pass``).  A malformed witness
(unknown claim tag, wrong arity, a site or index of the wrong form) is
rejected up front, before any claim is read, so it is a
:class:`WitnessError` too, never a crash.

The obligations are *complete* by construction of the checker, not by
trust in the pass:

* every block whose body changed must be covered by at least one
  obligation anchored in it (a dropped obligation is rejected);
* every obligation must anchor in a block that actually changed (a
  phantom obligation is rejected);
* same-length rewrites (copy propagation, CSE) must carry an obligation
  at *every* differing instruction position;
* slots missing from the post-IR frame must each be justified by a
  ``promoted`` obligation whose promotability the checker re-derives
  from the pre-IR;
* shared virtual registers must keep their taint, and rewritten memory
  accesses their region, bit-for-bit.

The checker is deliberately smaller and dumber than the passes — the
point of translation validation is that the TCB grows by this file,
not by the optimizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ReproError
from ..ir.core import (
    Bin,
    Block,
    Branch,
    Call,
    CallIndirect,
    Const,
    Copy,
    FuncAddr,
    GlobalAddr,
    IRFunction,
    Jump,
    Lea,
    Load,
    LocalAddr,
    MemRef,
    Ret,
    StackSlot,
    Store,
    SwitchBr,
    TlsBaseAddr,
    Un,
    VarArgAddr,
    VReg,
)

_PURE = (Const, Copy, Bin, Un, Lea, Load, VarArgAddr)


class WitnessError(ReproError):
    """A pass witness failed validation against the pre/post IR."""


@dataclass(frozen=True)
class Obligation:
    """One taint- or layout-preservation claim for one rewrite site.

    ``site`` anchors the claim: ``"<block>@<index>"`` for a rewritten
    instruction, ``"<block>@init"`` for inserted entry initializers,
    ``"<block>@term"`` for a rewritten terminator, ``"block:<name>"``
    for a removed block, ``"slot:<uid>"`` for a frame-layout change.
    ``claim`` is a pass-specific payload the checker re-derives.
    """

    kind: str  # "taint" | "layout"
    site: str
    claim: tuple


@dataclass
class Witness:
    """A pass run's self-description, validated by :func:`check_witness`."""

    pass_name: str
    function: str
    origin: str
    obligations: list[Obligation] = field(default_factory=list)

    def add(self, kind: str, site: str, *claim) -> None:
        self.obligations.append(Obligation(kind, site, tuple(claim)))


# ---------------------------------------------------------------------------
# IR snapshot / restore — the revert machinery.


class _Cloner:
    """Deep-clones a function body, preserving VReg/slot identity webs."""

    def __init__(self):
        self._vregs: dict[int, VReg] = {}
        self._slots: dict[int, StackSlot] = {}

    def vreg(self, v):
        if not isinstance(v, VReg):
            return v  # int operand (or None)
        clone = self._vregs.get(v.id)
        if clone is None:
            clone = VReg(v.id, v.taint, v.hint)
            self._vregs[v.id] = clone
        return clone

    def slot(self, s: StackSlot) -> StackSlot:
        clone = self._slots.get(s.uid)
        if clone is None:
            clone = StackSlot(
                s.uid, s.name, s.size, s.align, s.taint,
                s.address_taken, s.offset,
            )
            self._slots[s.uid] = clone
        return clone

    def mem(self, m: MemRef) -> MemRef:
        return MemRef(
            region=m.region,
            base=self.vreg(m.base) if m.base is not None else None,
            slot=self.slot(m.slot) if m.slot is not None else None,
            global_name=m.global_name,
            index=self.vreg(m.index) if m.index is not None else None,
            scale=m.scale,
            disp=m.disp,
        )

    def instr(self, i):
        v = self.vreg
        if isinstance(i, Const):
            return Const(v(i.dst), i.value)
        if isinstance(i, Copy):
            return Copy(v(i.dst), v(i.src))
        if isinstance(i, Un):
            return Un(i.op, v(i.dst), v(i.src))
        if isinstance(i, Bin):
            return Bin(i.op, v(i.dst), v(i.a), v(i.b))
        if isinstance(i, Load):
            return Load(v(i.dst), self.mem(i.mem), i.size)
        if isinstance(i, Store):
            return Store(self.mem(i.mem), v(i.src), i.size)
        if isinstance(i, Lea):
            return Lea(v(i.dst), self.mem(i.mem))
        if isinstance(i, LocalAddr):
            return LocalAddr(v(i.dst), self.slot(i.slot))
        if isinstance(i, GlobalAddr):
            return GlobalAddr(v(i.dst), i.name)
        if isinstance(i, FuncAddr):
            return FuncAddr(v(i.dst), i.fname)
        if isinstance(i, TlsBaseAddr):
            return TlsBaseAddr(v(i.dst))
        if isinstance(i, VarArgAddr):
            return VarArgAddr(v(i.dst), v(i.index))
        if isinstance(i, Call):
            return Call(
                v(i.dst) if i.dst is not None else None,
                i.name, [v(a) for a in i.args],
                list(i.arg_taints), i.ret_taint, i.n_fixed,
            )
        if isinstance(i, CallIndirect):
            return CallIndirect(
                v(i.dst) if i.dst is not None else None,
                v(i.target), [v(a) for a in i.args],
                list(i.arg_taints), i.ret_taint, i.n_fixed,
            )
        if isinstance(i, Jump):
            return Jump(i.target)
        if isinstance(i, Branch):
            return Branch(v(i.cond), i.if_true, i.if_false)
        if isinstance(i, SwitchBr):
            return SwitchBr(v(i.cond), list(i.table), i.default)
        if isinstance(i, Ret):
            return Ret(v(i.value) if i.value is not None else None)
        raise WitnessError(f"cannot snapshot instruction {i!r}")


def snapshot_function(func: IRFunction) -> IRFunction:
    """A deep clone of ``func`` (same counters, fresh object web)."""
    cloner = _Cloner()
    snap = IRFunction(func.name, func.sig, list(func.param_names))
    snap.origin = func.origin
    snap.param_vregs = [cloner.vreg(v) for v in func.param_vregs]
    snap.slots = [cloner.slot(s) for s in func.slots]
    snap.blocks = [
        Block(b.name, [cloner.instr(i) for i in b.instrs])
        for b in func.blocks
    ]
    snap._next_vreg = func._next_vreg
    snap._next_slot = func._next_slot
    snap._next_block = func._next_block
    return snap


def restore_function(func: IRFunction, snap: IRFunction) -> None:
    """Revert ``func`` in place to a snapshot taken before a pass ran."""
    func.origin = snap.origin
    func.param_vregs = snap.param_vregs
    func.slots = snap.slots
    func.blocks = snap.blocks
    func._next_vreg = snap._next_vreg
    func._next_slot = snap._next_slot
    func._next_block = snap._next_block


# ---------------------------------------------------------------------------
# The checker.

def _block_reprs(func: IRFunction) -> dict[str, list[str]]:
    return {b.name: [repr(i) for i in b.instrs] for b in func.blocks}


def _vreg_taints(func: IRFunction) -> dict[int, object]:
    taints: dict[int, object] = {}
    for block in func.blocks:
        for instr in block.instrs:
            for v in (*instr.uses(), *instr.defs()):
                taints[v.id] = v.taint
    for v in func.param_vregs:
        taints[v.id] = v.taint
    return taints


def _site_block(site: str) -> str | None:
    """The block an obligation site anchors in (None for slot sites)."""
    if site.startswith("slot:"):
        return None
    if site.startswith("block:"):
        return site[len("block:"):]
    return site.rsplit("@", 1)[0]


def _covered_blocks(ob: Obligation) -> set[str]:
    """Blocks an obligation accounts for (merges cover both sides)."""
    block = _site_block(ob.site)
    names = {block} if block is not None else set()
    if ob.claim[0] == "merged":
        names.add(ob.claim[1])
    return names


def check_witness(
    witness: Witness, pre: IRFunction, post: IRFunction
) -> None:
    """Validate one pass witness against the pre/post IR; raise
    :class:`WitnessError` on the first failed obligation."""
    if witness.function != post.name or witness.function != pre.name:
        raise WitnessError(
            f"witness names {witness.function!r}, IR is {post.name!r}"
        )
    if witness.origin != pre.origin or witness.origin != post.origin:
        raise WitnessError(
            f"{post.name}: witness origin {witness.origin!r} does not "
            "match the function's lowering provenance"
        )
    if witness.pass_name not in _CLAIM_CHECKERS:
        raise WitnessError(f"unknown pass {witness.pass_name!r} in witness")
    checker, shapes = _CLAIM_CHECKERS[witness.pass_name]
    for ob in witness.obligations:
        if not _well_formed(ob, shapes):
            raise WitnessError(
                f"{post.name}: malformed obligation at {ob.site!r}: "
                f"{ob.kind!r} {ob.claim!r}"
            )

    pre_blocks = _block_reprs(pre)
    post_blocks = _block_reprs(post)
    for name in post_blocks:
        if name not in pre_blocks:
            raise WitnessError(
                f"{post.name}: pass introduced new block {name!r}"
            )

    # Global taint preservation: shared vregs keep their taint.
    pre_taints = _vreg_taints(pre)
    for vid, taint in _vreg_taints(post).items():
        if vid in pre_taints and pre_taints[vid] is not taint:
            raise WitnessError(
                f"{post.name}: vreg %{vid} taint changed "
                f"{pre_taints[vid]!r} -> {taint!r}"
            )

    # Global layout preservation: surviving slots are unchanged;
    # removed slots need a 'promoted' obligation (validated below).
    pre_slots = {s.uid: s for s in pre.slots}
    for slot in post.slots:
        old = pre_slots.get(slot.uid)
        if old is None:
            raise WitnessError(
                f"{post.name}: pass introduced slot {slot!r}"
            )
        if (slot.name, slot.size, slot.align, slot.taint) != (
            old.name, old.size, old.align, old.taint
        ):
            raise WitnessError(
                f"{post.name}: slot {slot.uid} layout changed"
            )
    removed_slots = set(pre_slots) - {s.uid for s in post.slots}
    promoted = {
        ob.claim[1]: ob
        for ob in witness.obligations
        if ob.claim[0] == "promoted"
    }
    promoted_uids = {
        int(ob.site[len("slot:"):]) for ob in promoted.values()
    }
    if removed_slots != promoted_uids:
        raise WitnessError(
            f"{post.name}: removed slots {sorted(removed_slots)} not "
            f"matched by promoted obligations {sorted(promoted_uids)}"
        )

    # Changed-block accounting: full, both directions.
    changed = {
        name
        for name in pre_blocks
        if post_blocks.get(name) != pre_blocks[name]
    }
    covered: set[str] = set()
    for ob in witness.obligations:
        names = _covered_blocks(ob)
        covered |= names
        for name in names:
            if name not in changed:
                raise WitnessError(
                    f"{post.name}: obligation at {ob.site} anchors in "
                    f"unchanged block {name!r}"
                )
    missing = changed - covered
    if missing:
        raise WitnessError(
            f"{post.name}: changed blocks without obligations: "
            f"{sorted(missing)}"
        )

    checker(witness, pre, post)


#: Site grammar, by the form a claim tag anchors at.
_SITE_FORMS = {
    "slot": re.compile(r"slot:[0-9]+"),
    "block": re.compile(r"block:.+"),
    "index": re.compile(r".+@[0-9]+"),
    "init": re.compile(r".+@init"),
    "term": re.compile(r".+@term"),
}


def _field_ok(kind: type, value) -> bool:
    """``tuple`` fields are tuples of ints; others match exactly."""
    if kind is tuple:
        return type(value) is tuple and all(type(v) is int for v in value)
    return type(value) is kind


def _well_formed(ob, shapes: dict) -> bool:
    """Does ``ob`` match its claim tag's ``(kind, site form, fields)``?"""
    claim = ob.claim
    if type(claim) is not tuple or not claim or type(claim[0]) is not str:
        return False
    shape = shapes.get(claim[0])
    if shape is None:
        return False
    kind, form, fields = shape
    return (
        ob.kind == kind
        and type(ob.site) is str
        and _SITE_FORMS[form].fullmatch(ob.site) is not None
        and len(claim) == 1 + len(fields)
        and all(map(_field_ok, fields, claim[1:]))
    )


# ---------------------------------------------------------------------------
# Per-pass claim validation.  Every obligation reaching these checkers
# already matches its pass's shape table (see _CLAIM_CHECKERS).

def _post_block(post: IRFunction, name: str, func_name: str) -> Block:
    for block in post.blocks:
        if block.name == name:
            return block
    raise WitnessError(f"{func_name}: obligation block {name!r} missing")


def _pre_block(pre: IRFunction, name: str, func_name: str) -> Block:
    for block in pre.blocks:
        if block.name == name:
            return block
    raise WitnessError(
        f"{func_name}: obligation block {name!r} not in pre-IR"
    )


def _require_positionwise(
    witness: Witness, pre: IRFunction, post: IRFunction, *, offsets=None
) -> None:
    """Common-block bodies must have equal length, and every differing
    position must carry an obligation (used by the 1:1 rewrite passes).
    ``offsets`` maps block name -> number of instructions inserted at
    the front of the post block (promote_slots' entry initializers)."""
    offsets = offsets or {}
    sites = {ob.site for ob in witness.obligations}
    pre_map = {b.name: b for b in pre.blocks}
    for block in post.blocks:
        old = pre_map.get(block.name)
        if old is None:
            continue
        off = offsets.get(block.name, 0)
        if len(block.instrs) != len(old.instrs) + off:
            raise WitnessError(
                f"{post.name}: block {block.name} length changed "
                "under a positionwise pass"
            )
        for i, pre_instr in enumerate(old.instrs):
            if repr(block.instrs[i + off]) != repr(pre_instr):
                if f"{block.name}@{i}" not in sites:
                    raise WitnessError(
                        f"{post.name}: rewrite at {block.name}@{i} has "
                        "no obligation"
                    )


def _def_taints(instr) -> tuple:
    return tuple(int(v.taint) for v in instr.defs())


def _check_copyprop(witness, pre, post):
    _require_positionwise(witness, pre, post)
    for ob in witness.obligations:
        block_name, _, index = ob.site.rpartition("@")
        _, pre_taints, post_taints = ob.claim
        if pre_taints != post_taints:
            raise WitnessError(
                f"{post.name}: {ob.site}: rewrite changes def taints "
                f"{pre_taints} -> {post_taints}"
            )
        i = int(index)
        pblock = _post_block(post, block_name, post.name)
        oblock = _pre_block(pre, block_name, post.name)
        if i >= len(pblock.instrs) or i >= len(oblock.instrs):
            raise WitnessError(
                f"{post.name}: {ob.site}: index out of range"
            )
        new, old = pblock.instrs[i], oblock.instrs[i]
        if _def_taints(new) != tuple(post_taints):
            raise WitnessError(
                f"{post.name}: {ob.site}: claimed taints {post_taints} "
                f"do not match post-IR {_def_taints(new)}"
            )
        if _def_taints(old) != tuple(pre_taints):
            raise WitnessError(
                f"{post.name}: {ob.site}: claimed taints {pre_taints} "
                f"do not match pre-IR {_def_taints(old)}"
            )
        # Region preservation for rewritten memory accesses.
        for a, b in ((old, new),):
            if isinstance(a, (Load, Store, Lea)) and isinstance(
                b, (Load, Store, Lea)
            ):
                if a.mem.region is not b.mem.region:
                    raise WitnessError(
                        f"{post.name}: {ob.site}: memory region changed"
                    )


def _check_cse(witness, pre, post):
    _require_positionwise(witness, pre, post)
    post_map = {b.name: b for b in post.blocks}
    pre_map = {b.name: b for b in pre.blocks}
    for ob in witness.obligations:
        block_name, _, index = ob.site.rpartition("@")
        _, prev_id, dst_id = ob.claim
        i = int(index)
        block = post_map.get(block_name)
        old = pre_map.get(block_name)
        if block is None or old is None or i >= len(block.instrs):
            raise WitnessError(f"{post.name}: {ob.site}: bad cse site")
        instr = block.instrs[i]
        if not isinstance(instr, Copy) or not isinstance(instr.src, VReg):
            raise WitnessError(
                f"{post.name}: {ob.site}: cse site is not a reg copy"
            )
        if instr.dst.id != dst_id or instr.src.id != prev_id:
            raise WitnessError(
                f"{post.name}: {ob.site}: cse copy does not match claim"
            )
        if instr.dst.taint is not instr.src.taint:
            raise WitnessError(
                f"{post.name}: {ob.site}: cse across taints"
            )
        old_instr = old.instrs[i]
        if not isinstance(old_instr, (Bin, Un)):
            raise WitnessError(
                f"{post.name}: {ob.site}: cse replaced a non-pure "
                "computation"
            )
        # The provider must be an identical computation, earlier in the
        # same block, with no operand or provider redefinition between.
        provider = None
        for j in range(i - 1, -1, -1):
            cand = old.instrs[j]
            defs = {d.id for d in cand.defs()}
            if provider is None and defs == {prev_id} and isinstance(
                cand, (Bin, Un)
            ) and _same_computation(cand, old_instr):
                provider = j
                break
            if prev_id in defs:
                raise WitnessError(
                    f"{post.name}: {ob.site}: cse provider %{prev_id} "
                    "redefined by a different computation"
                )
        if provider is None:
            raise WitnessError(
                f"{post.name}: {ob.site}: no cse provider for %{prev_id}"
            )
        used = {u.id for u in old_instr.uses()}
        for j in range(provider + 1, i):
            between = old.instrs[j]
            defs = {d.id for d in between.defs()}
            if defs & (used | {prev_id}):
                raise WitnessError(
                    f"{post.name}: {ob.site}: operand redefined between "
                    "cse provider and use"
                )
            if isinstance(between, (Call, CallIndirect)):
                raise WitnessError(
                    f"{post.name}: {ob.site}: cse across a call"
                )


def _same_computation(a, b) -> bool:
    def okey(op):
        return ("r", op.id) if isinstance(op, VReg) else ("i", op)

    if isinstance(a, Bin) and isinstance(b, Bin):
        return a.op == b.op and okey(a.a) == okey(b.a) and okey(a.b) == okey(b.b)
    if isinstance(a, Un) and isinstance(b, Un):
        return a.op == b.op and okey(a.src) == okey(b.src)
    return False


def _check_dce(witness, pre, post):
    post_used: set[int] = set()
    for block in post.blocks:
        for instr in block.instrs:
            for u in instr.uses():
                post_used.add(u.id)
    sites: dict[tuple[str, int], Obligation] = {}
    for ob in witness.obligations:
        block_name, _, index = ob.site.rpartition("@")
        sites[(block_name, int(index))] = ob
    pre_map = {b.name: b for b in pre.blocks}
    for block in post.blocks:
        old = pre_map.get(block.name)
        if old is None:
            continue
        # The post block must be exactly the pre block minus the
        # instructions claimed dead at their pre indices.
        deleted = {
            i for (name, i) in sites if name == block.name
        }
        kept = [
            repr(instr)
            for i, instr in enumerate(old.instrs)
            if i not in deleted
        ]
        if kept != [repr(i) for i in block.instrs]:
            raise WitnessError(
                f"{post.name}: block {block.name} is not pre minus the "
                "claimed deletions"
            )
        for i in deleted:
            if i >= len(old.instrs):
                raise WitnessError(
                    f"{post.name}: dce site {block.name}@{i} out of range"
                )
            dead = old.instrs[i]
            ob = sites[(block.name, i)]
            claimed_ids = tuple(ob.claim[1])
            if tuple(d.id for d in dead.defs()) != claimed_ids:
                raise WitnessError(
                    f"{post.name}: dce claim ids {claimed_ids} do not "
                    f"match {dead!r}"
                )
            if not isinstance(dead, _PURE) or not dead.defs():
                raise WitnessError(
                    f"{post.name}: dce deleted impure {dead!r}"
                )
            for vid in claimed_ids:
                if vid in post_used:
                    raise WitnessError(
                        f"{post.name}: dce deleted %{vid} but it is "
                        "still used"
                    )


def _check_simplify_cfg(witness, pre, post):
    post_names = {b.name for b in post.blocks}
    post_targets: set[str] = set()
    for block in post.blocks:
        post_targets.update(block.successors())
    # Recompute the pre-IR jump-forwarding map for thread claims.
    forward = {
        b.name: b.instrs[0].target
        for b in pre.blocks
        if len(b.instrs) == 1 and isinstance(b.instrs[0], Jump)
    }

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    merged_into = {
        _site_block(ob.site): ob.claim[1]
        for ob in witness.obligations
        if ob.claim[0] == "merged"
    }
    for ob in witness.obligations:
        claim = ob.claim[0]
        if claim == "thread":
            block_name = ob.site.rpartition("@")[0]
            new_block = _post_block(post, block_name, post.name)
            old_block = _pre_block(pre, block_name, post.name)
            n = len(old_block.instrs)
            if [repr(i) for i in new_block.instrs[: n - 1]] != [
                repr(i) for i in old_block.instrs[:-1]
            ]:
                raise WitnessError(
                    f"{post.name}: thread rewrote more than the "
                    f"terminator of {block_name}"
                )
            if block_name in set(merged_into.values()):
                # The block also absorbed its successor this run: its
                # terminator was consumed by the merge, whose
                # obligation (validated below) accounts for the tail.
                continue
            if len(new_block.instrs) != n:
                raise WitnessError(
                    f"{post.name}: thread at {block_name} changed "
                    "the block length without a merge obligation"
                )
            old_term = old_block.terminator
            new_term = new_block.terminator
            ok = False
            if isinstance(old_term, Jump) and isinstance(new_term, Jump):
                ok = resolve(old_term.target) == new_term.target
            elif isinstance(old_term, Branch) and isinstance(
                new_term, Branch
            ):
                ok = (
                    resolve(old_term.if_true) == new_term.if_true
                    and resolve(old_term.if_false) == new_term.if_false
                    and isinstance(new_term.cond, VReg)
                    and new_term.cond.id == old_term.cond.id
                )
            elif isinstance(old_term, Branch) and isinstance(
                new_term, Jump
            ):
                t = resolve(old_term.if_true)
                ok = t == resolve(old_term.if_false) == new_term.target
            if not ok:
                raise WitnessError(
                    f"{post.name}: thread at {block_name} does not "
                    "follow the pre-IR jump chain"
                )
        elif claim == "unreachable":
            name = ob.site[len("block:"):]
            if name == pre.blocks[0].name:
                raise WitnessError(
                    f"{post.name}: entry block claimed unreachable"
                )
            if name in post_names or name in post_targets:
                raise WitnessError(
                    f"{post.name}: block {name} claimed unreachable but "
                    "still present or targeted"
                )
            if name not in {b.name for b in pre.blocks}:
                raise WitnessError(
                    f"{post.name}: unreachable claim for unknown block "
                    f"{name}"
                )
        elif claim == "merged":
            name = ob.site[len("block:"):]
            into = ob.claim[1]
            if name in post_names or name in post_targets:
                raise WitnessError(
                    f"{post.name}: block {name} claimed merged but "
                    "still present or targeted"
                )
            if into not in post_names:
                raise WitnessError(
                    f"{post.name}: merge target {into} missing from "
                    "post-IR"
                )
            old = _pre_block(pre, name, post.name)
            absorber = _post_block(post, into, post.name)
            body = [repr(i) for i in absorber.instrs]
            # The surviving block must still start with its own pre
            # body (sans terminator, which the merge consumed)...
            pre_into = _pre_block(pre, into, post.name)
            head = [repr(i) for i in pre_into.instrs[:-1]]
            if body[: len(head)] != head:
                raise WitnessError(
                    f"{post.name}: merge into {into} disturbed the "
                    "absorber's own body"
                )
            # ...and the absorbed body (sans its possibly-rethreaded
            # terminator) must appear inside it.
            needle = [repr(i) for i in old.instrs[:-1]]
            if needle and not _contains_run(body, needle):
                raise WitnessError(
                    f"{post.name}: merged block {name} body not found "
                    f"in {into}"
                )


def _contains_run(haystack: list[str], needle: list[str]) -> bool:
    n = len(needle)
    return any(
        haystack[i:i + n] == needle
        for i in range(len(haystack) - n + 1)
    )


def _check_promote_slots(witness, pre, post):
    pre_slots = {s.uid: s for s in pre.slots}
    promoted: dict[int, tuple[int, object]] = {}  # uid -> (vreg id, taint)
    inits: list[int] = []
    for ob in witness.obligations:
        if ob.claim[0] == "promoted":
            uid = int(ob.site[len("slot:"):])
            _, vreg_id, taint_int = ob.claim
            slot = pre_slots.get(uid)
            if slot is None:
                raise WitnessError(
                    f"{post.name}: promoted unknown slot {uid}"
                )
            if slot.address_taken or slot.size not in (1, 8):
                raise WitnessError(
                    f"{post.name}: slot {uid} is not promotable"
                )
            if int(slot.taint) != taint_int:
                raise WitnessError(
                    f"{post.name}: slot {uid} promotion changes taint"
                )
            # Re-derive promotability: every pre reference must be a
            # whole-slot direct Load/Store.
            for block in pre.blocks:
                for instr in block.instrs:
                    mem = getattr(instr, "mem", None)
                    if isinstance(instr, Lea) and instr.mem.slot is not None \
                            and instr.mem.slot.uid == uid:
                        raise WitnessError(
                            f"{post.name}: slot {uid} address taken via "
                            "lea"
                        )
                    if (
                        isinstance(instr, (Load, Store))
                        and mem is not None
                        and mem.slot is not None
                        and mem.slot.uid == uid
                    ):
                        if (
                            mem.index is not None
                            or mem.disp != 0
                            or instr.size != slot.size
                        ):
                            raise WitnessError(
                                f"{post.name}: slot {uid} has a partial "
                                "access; not promotable"
                            )
            promoted[uid] = (vreg_id, slot.taint)
        elif ob.claim[0] == "zero-init":
            inits = list(ob.claim[1])
        # slot-access claims are validated positionally below.
    n_inits = len(promoted)
    entry = post.blocks[0]
    if sorted(vid for vid, _t in promoted.values()) != sorted(inits):
        raise WitnessError(
            f"{post.name}: zero-init obligation does not cover the "
            "promoted registers"
        )
    by_vid = {vid: taint for vid, taint in promoted.values()}
    for i in range(n_inits):
        instr = entry.instrs[i] if i < len(entry.instrs) else None
        if not isinstance(instr, Const) or instr.value != 0:
            raise WitnessError(
                f"{post.name}: entry is missing zero-initializers"
            )
        if instr.dst.id not in by_vid:
            raise WitnessError(
                f"{post.name}: stray initializer {instr!r}"
            )
        if instr.dst.taint is not by_vid[instr.dst.id]:
            raise WitnessError(
                f"{post.name}: initializer taint mismatch for "
                f"%{instr.dst.id}"
            )
    offsets = {entry.name: n_inits} if n_inits else {}
    _require_positionwise(witness, pre, post, offsets=offsets)
    # Validate each rewritten access.
    pre_map = {b.name: b for b in pre.blocks}
    post_map = {b.name: b for b in post.blocks}
    for ob in witness.obligations:
        if ob.claim[0] != "slot-access":
            continue
        block_name, _, index = ob.site.rpartition("@")
        _, uid, vreg_id = ob.claim
        i = int(index)
        off = offsets.get(block_name, 0)
        old_block = pre_map.get(block_name)
        new_block = post_map.get(block_name)
        if old_block is None or new_block is None or i >= len(
            old_block.instrs
        ):
            raise WitnessError(
                f"{post.name}: bad slot-access site {ob.site}"
            )
        old_instr = old_block.instrs[i]
        new_instr = new_block.instrs[i + off]
        if not isinstance(old_instr, (Load, Store)) or (
            old_instr.mem.slot is None or old_instr.mem.slot.uid != uid
        ):
            raise WitnessError(
                f"{post.name}: {ob.site}: pre-IR is not an access to "
                f"slot {uid}"
            )
        expect_vid, taint = promoted.get(uid, (None, None))
        if expect_vid != vreg_id:
            raise WitnessError(
                f"{post.name}: {ob.site}: access register does not "
                "match the promotion"
            )
        if isinstance(old_instr, Load):
            ok = (
                isinstance(new_instr, Copy)
                and isinstance(new_instr.src, VReg)
                and new_instr.src.id == vreg_id
                and new_instr.dst.id == old_instr.dst.id
            )
        else:
            ok = (
                isinstance(new_instr, Copy)
                and new_instr.dst.id == vreg_id
            )
        if not ok:
            raise WitnessError(
                f"{post.name}: {ob.site}: rewrite is not the promoted "
                "copy"
            )


#: Per pass: its claim checker, and the shape of each claim tag it may
#: emit, ``tag -> (obligation kind, site form, field types)``.
_CLAIM_CHECKERS = {
    "promote_slots": (_check_promote_slots, {
        "promoted": ("layout", "slot", (int, int)),
        "slot-access": ("layout", "index", (int, int)),
        "zero-init": ("taint", "init", (tuple,)),
    }),
    "copyprop_and_fold": (_check_copyprop, {
        "rewrite": ("taint", "index", (tuple, tuple)),
    }),
    "dce": (_check_dce, {"dead": ("layout", "index", (tuple,))}),
    "simplify_cfg": (_check_simplify_cfg, {
        "unreachable": ("layout", "block", ()),
        "merged": ("layout", "block", (str,)),
        "thread": ("taint", "term", ()),
    }),
    "cse_local": (_check_cse, {"cse": ("taint", "index", (int, int))}),
}

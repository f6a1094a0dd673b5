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

IR objects are frozen, so the snapshot shares every instruction with
the function, and the checker compares pre and post *by identity*: a
block changed exactly when its instruction list differs by identity,
and only instructions new to the pass are walked.  A check costs in
proportion to what its pass changed.

The obligations are *complete* by construction of the checker, not by
trust in the pass:

* every block whose body changed must be covered by at least one
  obligation anchored in it (a dropped obligation is rejected);
* every obligation must anchor in a block that actually changed (a
  phantom obligation is rejected);
* every removed block needs a ``block:`` obligation (``unreachable`` or
  ``merged``), which only simplify_cfg may emit;
* same-length rewrites (copy propagation, CSE) must carry an obligation
  at *every* differing instruction position;
* slots missing from the post-IR frame must each be justified by a
  ``promoted`` obligation whose promotability the checker re-derives
  from the pre-IR, with every access to the slot rewritten;
* the function's registers keep their identity, hence their taint:
  every register a new instruction names is one of them; and rewritten
  memory accesses keep their region, bit-for-bit.

The checker is deliberately smaller and dumber than the passes — the
point of translation validation is that the TCB grows by this file,
not by the optimizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress, count
from operator import is_, is_not

from ..errors import ReproError
from ..ir.core import (
    Bin,
    Block,
    Branch,
    Call,
    CallIndirect,
    Const,
    Copy,
    IRFunction,
    Jump,
    Lea,
    Load,
    Store,
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


def snapshot_function(func: IRFunction) -> IRFunction:
    """``func`` as it is now, for a later check or revert: fresh block,
    slot and register lists that share every (frozen) instruction,
    register and slot with ``func``.  A pass changes ``func`` only by
    replacing list entries, which leaves the snapshot as it was."""
    snap = IRFunction(func.name, func.sig, list(func.param_names))
    snap.origin = func.origin
    snap.vregs = list(func.vregs)
    snap.param_vregs = list(func.param_vregs)
    snap.slots = list(func.slots)
    snap.blocks = [Block(b.name, list(b.instrs)) for b in func.blocks]
    snap._next_slot = func._next_slot
    snap._next_block = func._next_block
    return snap


def restore_function(func: IRFunction, snap: IRFunction) -> None:
    """Revert ``func`` in place to a snapshot taken before a pass ran."""
    func.origin = snap.origin
    func.vregs = snap.vregs
    func.param_vregs = snap.param_vregs
    func.slots = snap.slots
    func.blocks = snap.blocks
    func._next_slot = snap._next_slot
    func._next_block = snap._next_block


def unchanged_since(snap: IRFunction, func: IRFunction) -> bool:
    """Does ``func`` still hold exactly what ``snap`` holds, by identity?"""
    return (
        func.origin == snap.origin
        and [b.name for b in func.blocks] == [b.name for b in snap.blocks]
        and all(map(_same, (b.instrs for b in func.blocks),
                    (b.instrs for b in snap.blocks)))
        and _same(func.slots, snap.slots)
        and _same(func.vregs, snap.vregs)
        and _same(func.param_vregs, snap.param_vregs)
    )


# ---------------------------------------------------------------------------
# The checker.

def _same(a: list, b: list) -> bool:
    """Do two lists hold the same objects, in order?"""
    return len(a) == len(b) and all(map(is_, a, b))


def _check_registers(
    pre: IRFunction, post: IRFunction, new_instrs: list
) -> None:
    """The function's registers keep their identity, hence their taint,
    and every register a new instruction or a parameter names is one of
    them: none can be relabelled, or shadowed by an impostor."""
    n, regs = len(pre.vregs), post.vregs
    if regs[:n] != pre.vregs or any(
        v.id != i for i, v in enumerate(regs[n:], n)
    ):
        raise WitnessError(f"{post.name}: pass rewrote the register table")
    named = list(post.param_vregs)
    for instr in new_instrs:
        named += instr.uses()
        named += instr.defs()
    for v in named:
        if v.id not in range(len(regs)) or regs[v.id] is not v:
            raise WitnessError(
                f"{post.name}: {v!r} is not the function's register "
                "of that id"
            )


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

    pre_blocks = {b.name: b for b in pre.blocks}
    post_blocks = {b.name: b for b in post.blocks}
    if len(post_blocks) != len(post.blocks):
        raise WitnessError(f"{post.name}: pass duplicated a block name")
    for name in post_blocks:
        if name not in pre_blocks:
            raise WitnessError(
                f"{post.name}: pass introduced new block {name!r}"
            )
    if pre.blocks and (
        not post.blocks or post.blocks[0].name != pre.blocks[0].name
    ):
        raise WitnessError(f"{post.name}: pass moved the entry block")
    # A block changed exactly when its instruction list differs by
    # identity; instructions no pre block of a changed block held are
    # new, and only they are walked.
    changed = {
        name
        for name, block in pre_blocks.items()
        if name not in post_blocks
        or not _same(block.instrs, post_blocks[name].instrs)
    }
    old = {id(i) for name in changed for i in pre_blocks[name].instrs}
    _check_registers(pre, post, [
        instr
        for name in changed
        if name in post_blocks
        for instr in post_blocks[name].instrs
        if id(instr) not in old
    ])

    # Global layout preservation: surviving slots are unchanged;
    # removed slots need a 'promoted' obligation (validated below).
    pre_slots = {s.uid: s for s in pre.slots}
    for slot in post.slots:
        if pre_slots.get(slot.uid) is not slot:
            raise WitnessError(
                f"{post.name}: pass introduced or rewrote slot {slot!r}"
            )
    # One pass over the obligations: the slots claimed promoted, the
    # blocks claimed removed ('unreachable' or 'merged', which only
    # simplify_cfg may emit), and every block an obligation accounts
    # for (a merge covers both sides).
    promoted_uids: set[int] = set()
    claimed_removed: set[str] = set()
    covered: set[str] = set()
    for ob in witness.obligations:
        site = ob.site
        if site.startswith("slot:"):
            if ob.claim[0] == "promoted":
                promoted_uids.add(int(site[len("slot:"):]))
            continue
        if site.startswith("block:"):
            block = site[len("block:"):]
            claimed_removed.add(block)
            if ob.claim[0] == "merged":
                covered.add(ob.claim[1])
        else:
            block = site.rpartition("@")[0]
        covered.add(block)
    removed_slots = set(pre_slots) - {s.uid for s in post.slots}
    if removed_slots != promoted_uids:
        raise WitnessError(
            f"{post.name}: removed slots {sorted(removed_slots)} not "
            f"matched by promoted obligations {sorted(promoted_uids)}"
        )

    # Changed-block accounting: full, both directions.
    removed_blocks = pre_blocks.keys() - post_blocks.keys()
    if removed_blocks - claimed_removed:
        raise WitnessError(
            f"{post.name}: blocks removed without a block obligation: "
            f"{sorted(removed_blocks - claimed_removed)}"
        )
    if covered - changed:
        raise WitnessError(
            f"{post.name}: obligations anchor in unchanged blocks "
            f"{sorted(covered - changed)}"
        )
    if changed - covered:
        raise WitnessError(
            f"{post.name}: changed blocks without obligations: "
            f"{sorted(changed - covered)}"
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


def _well_formed(ob, shapes: dict) -> bool:
    """Does ``ob`` match its claim tag's ``(kind, site form, fields)``?
    A ``tuple`` field is a tuple of ints; other fields match exactly."""
    claim = ob.claim
    if type(claim) is not tuple or not claim or type(claim[0]) is not str:
        return False
    shape = shapes.get(claim[0])
    if shape is None:
        return False
    kind, form, fields = shape
    if not (
        ob.kind == kind
        and type(ob.site) is str
        and len(claim) == 1 + len(fields)
        and _SITE_FORMS[form].fullmatch(ob.site)
    ):
        return False
    for field_type, value in zip(fields, claim[1:]):
        if type(value) is not field_type:
            return False
        if field_type is tuple:
            for v in value:
                if type(v) is not int:
                    return False
    return True


# ---------------------------------------------------------------------------
# Per-pass claim validation.  Every obligation reaching these checkers
# already matches its pass's shape table (see _CLAIM_CHECKERS).

def _block(func: IRFunction, name: str) -> Block:
    for block in func.blocks:
        if block.name == name:
            return block
    raise WitnessError(f"{func.name}: obligation block {name!r} missing")


def _require_positionwise(
    witness: Witness, pre: IRFunction, post: IRFunction, *, offsets=None
) -> None:
    """Common-block bodies must have equal length, and every position
    where pre and post hold different objects must carry an obligation
    (used by the 1:1 rewrite passes).  ``offsets`` maps block name ->
    number of instructions inserted at the front of the post block
    (promote_slots' entry initializers)."""
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
        new = block.instrs[off:] if off else block.instrs
        for i in compress(count(), map(is_not, old.instrs, new)):
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
        new_instrs = _block(post, block_name).instrs
        old_instrs = _block(pre, block_name).instrs
        if i >= len(new_instrs) or i >= len(old_instrs):
            raise WitnessError(
                f"{post.name}: {ob.site}: index out of range"
            )
        new, old = new_instrs[i], old_instrs[i]
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
        mems = (Load, Store, Lea)
        if isinstance(old, mems) and isinstance(new, mems) and (
            old.mem.region is not new.mem.region
        ):
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
    dead_at: dict[str, dict[int, Obligation]] = {}
    for ob in witness.obligations:
        block_name, _, index = ob.site.rpartition("@")
        dead_at.setdefault(block_name, {})[int(index)] = ob
    pre_map = {b.name: b for b in pre.blocks}
    post_map = {b.name: b for b in post.blocks}
    # check_witness has rejected removed blocks (dce has no block
    # claims) and obligations outside changed blocks, and every changed
    # block carries one, so these are exactly the changed blocks.
    claimed_ids: set[int] = set()
    for name, sites in dead_at.items():
        old = _block(pre, name).instrs
        new = _block(post, name).instrs
        if max(sites) >= len(old):
            raise WitnessError(
                f"{post.name}: dce site {name}@{max(sites)} out of range"
            )
        # The post block must be exactly the pre block minus the
        # instructions claimed dead at their pre indices.
        kept = [instr for i, instr in enumerate(old) if i not in sites]
        if not _same(kept, new):
            raise WitnessError(
                f"{post.name}: block {name} is not pre minus the "
                "claimed deletions"
            )
        for i, ob in sites.items():
            dead = old[i]
            ids = tuple(ob.claim[1])
            if tuple(d.id for d in dead.defs()) != ids:
                raise WitnessError(
                    f"{post.name}: dce claim ids {ids} do not match "
                    f"{dead!r}"
                )
            if not isinstance(dead, _PURE) or not dead.defs():
                raise WitnessError(
                    f"{post.name}: dce deleted impure {dead!r}"
                )
            claimed_ids.update(ids)
    for block in post.blocks:
        for instr in block.instrs:
            for u in instr.uses():
                if u.id in claimed_ids:
                    raise WitnessError(
                        f"{post.name}: dce deleted %{u.id} but it is "
                        "still used"
                    )


def _check_simplify_cfg(witness, pre, post):
    # check_witness has required each block a removal claim names to be
    # a pre-IR block the pass changed, and the entry block to stay.
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
        ob.site[len("block:"):]: ob.claim[1]
        for ob in witness.obligations
        if ob.claim[0] == "merged"
    }
    for ob in witness.obligations:
        claim = ob.claim[0]
        if claim == "thread":
            block_name = ob.site.rpartition("@")[0]
            new_block = _block(post, block_name)
            old_block = _block(pre, block_name)
            n = len(old_block.instrs)
            if not _same(new_block.instrs[: n - 1], old_block.instrs[:-1]):
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
            if name in post_names or name in post_targets:
                raise WitnessError(
                    f"{post.name}: block {name} claimed unreachable but "
                    "still present or targeted"
                )
        elif claim == "merged":
            name = ob.site[len("block:"):]
            into = ob.claim[1]
            if name in post_names or name in post_targets:
                raise WitnessError(
                    f"{post.name}: block {name} claimed merged but "
                    "still present or targeted"
                )
            old = _block(pre, name)
            body = _block(post, into).instrs
            # The surviving block must still start with its own pre
            # body (sans terminator, which the merge consumed)...
            head = _block(pre, into).instrs[:-1]
            if not _same(body[: len(head)], head):
                raise WitnessError(
                    f"{post.name}: merge into {into} disturbed the "
                    "absorber's own body"
                )
            # ...and the absorbed body (sans its possibly-rethreaded
            # terminator) must appear inside it.
            needle = old.instrs[:-1]
            if needle and not _contains_run(body, needle):
                raise WitnessError(
                    f"{post.name}: merged block {name} body not found "
                    f"in {into}"
                )


def _contains_run(haystack: list, needle: list) -> bool:
    """Does ``haystack`` hold ``needle``'s objects contiguously?"""
    n = len(needle)
    return any(
        _same(haystack[i:i + n], needle)
        for i in range(len(haystack) - n + 1)
    )


def _check_promote_slots(witness, pre, post):
    if not post.blocks:
        raise WitnessError(f"{post.name}: pass left no blocks")
    pre_slots = {s.uid: s for s in pre.slots}
    # One walk over the pre-IR re-derives promotability: a slot whose
    # address is taken, or that has a partial access, is disqualified;
    # every other reference is a whole-slot direct Load/Store, and each
    # must be rewritten.
    unpromotable: dict[int, str] = {}
    accesses: dict[int, set[str]] = {}
    for block in pre.blocks:
        for i, instr in enumerate(block.instrs):
            mem = getattr(instr, "mem", None)
            if mem is None or mem.slot is None:
                continue
            uid = mem.slot.uid
            if isinstance(instr, Lea):
                unpromotable[uid] = "address taken via lea"
                continue
            slot = pre_slots.get(uid)
            if (
                mem.index is not None
                or mem.disp != 0
                or slot is None
                or instr.size != slot.size
            ):
                unpromotable[uid] = "has a partial access; not promotable"
            accesses.setdefault(uid, set()).add(f"{block.name}@{i}")
    promoted: dict[int, tuple[int, object]] = {}  # uid -> (vreg id, taint)
    rewritten: dict[int, set[str]] = {}
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
            if uid in unpromotable:
                raise WitnessError(
                    f"{post.name}: slot {uid} {unpromotable[uid]}"
                )
            promoted[uid] = (vreg_id, slot.taint)
        elif ob.claim[0] == "zero-init":
            inits = list(ob.claim[1])
        else:  # slot-access
            rewritten.setdefault(ob.claim[1], set()).add(ob.site)
    # Every access to a promoted slot is claimed rewritten, and nothing
    # else is: so each slot-access site below is a pre-IR access.
    for uid in promoted.keys() | rewritten.keys():
        if uid not in promoted or rewritten.get(uid) != accesses.get(uid):
            raise WitnessError(
                f"{post.name}: slot {uid}: slot-access claims do not "
                "match the accesses to a promoted slot"
            )
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
    # Validate each rewritten access.  check_witness has rejected
    # removed blocks, and _require_positionwise unequal lengths.
    pre_map = {b.name: b for b in pre.blocks}
    post_map = {b.name: b for b in post.blocks}
    for ob in witness.obligations:
        if ob.claim[0] != "slot-access":
            continue
        block_name, _, index = ob.site.rpartition("@")
        _, uid, vreg_id = ob.claim
        i = int(index)
        old_instr = pre_map[block_name].instrs[i]
        new_instr = post_map[block_name].instrs[
            i + offsets.get(block_name, 0)
        ]
        if promoted[uid][0] != vreg_id:
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

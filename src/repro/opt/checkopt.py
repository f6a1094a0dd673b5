"""Post-codegen check optimizer (the ``--checkopt=aggressive`` tier).

Runs between codegen and linking, on each function's pre-link ISA
stream.  Three transforms, each *verifier-legal by construction* — they
only rewrite within the extended basic block (no Label / branch / call
in between), and every question of evidence (which key a check
provides, which keys evidence an operand, which register write removes
a key) is answered by ConfVerify's own rule, :mod:`repro.verifier.evidence`,
so ``verify_binary`` accepts the optimized binary unchanged:

* **redundant-check elision** — delete a ``BndChk`` whose key is
  already available: an earlier surviving check in the same extended
  block established an equal or covering key, and no instruction in
  between redefines the key's registers (available-check dataflow);
* **lea rematerialization dedup** — delete the second of two identical
  global-address ``Lea``s into the same register when nothing between
  them redefines that register.  The machine state is unchanged (the
  register already holds that address) and the verifier still sees the
  register defined public by the first lea; deleting the
  rematerialization *extends check lifetimes*, turning the checks that
  followed it into redundant checks for the elision above;
* **check widening** — rewrite a memory-form ``BndChk`` whose operand
  the register key evidences (no index, displacement within
  ``ELIDE_LIMIT``, which the guard areas cover) into the cheaper
  register form; the register key covers strictly more later
  accesses.

Like the IR passes, every rewrite is certified: the optimizer emits a
:class:`CheckOptWitness` whose edits :func:`check_checkopt_witness`
replays against the pre/post streams — re-deriving provider coverage,
register liveness, and block boundaries from the pre-stream itself, and
rebuilding the post-stream from the edit script.  A malformed edit
(unknown tag, wrong arity, a non-integer index) is rejected before the
replay reads it.  A failed witness keeps the function's original
(unoptimized, still verified) stream and bumps ``opt.witness_rejected``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend import isa
from ..obs import events
from ..verifier.evidence import access_keys, check_key, key_regs
from .witness import WitnessError

#: Instructions that end an extended basic block for check evidence:
#: labels (potential join points), control transfers, and calls (the
#: verifier clears its ``checked`` set at all of these, and calls may
#: clobber caller-save registers at runtime).
_BOUNDARY = (
    isa.Label,
    isa.Jmp,
    isa.Br,
    isa.JmpTable,
    isa.JmpInd,
    isa.JmpReg,
    isa.CallD,
    isa.CallI,
    isa.CheckMagic,
    isa.RetPlain,
    isa.Fail,
    isa.Halt,
)


def _defined_regs(insn) -> tuple[int, ...]:
    """Registers an instruction writes — the verifier's ``define`` sites."""
    if isinstance(
        insn,
        (
            isa.MovRI,
            isa.MovRR,
            isa.MovFuncAddr,
            isa.Alu,
            isa.SetCC,
            isa.Lea,
            isa.Load,
            isa.Pop,
            isa.TlsBase,
        ),
    ):
        return (insn.dst,)
    return ()


def _widenable(chk: isa.BndChk) -> bool:
    """A memory-form check whose operand the register form's key
    evidences."""
    return (
        chk.mem is not None
        and check_key(chk) is not None
        and ("reg", chk.mem.base, chk.bnd) in access_keys(chk.mem, chk.bnd)
    )


def _widen(chk: isa.BndChk) -> isa.BndChk:
    return isa.BndChk(chk.bnd, reg=chk.mem.base)


def _covering_keys(chk: isa.BndChk) -> tuple:
    """The keys whose evidence makes ``chk`` redundant: its own key, or
    any key that evidences a memory-form check's operand.  A covering
    key's registers are a subset of the check's, so any write removing
    the cover also removes the check's own evidence."""
    if chk.mem is None:
        return (check_key(chk),)
    return access_keys(chk.mem, chk.bnd)


def _dedupable_lea(insn) -> bool:
    return (
        isinstance(insn, isa.Lea)
        and insn.mem.global_name is not None
        and insn.mem.base is None
        and insn.mem.index is None
    )


@dataclass
class CheckOptWitness:
    """One function's check-optimization edit script.

    ``edits`` entries are keyed by *pre-stream* index:
    ``("elide", i, j)`` — the check at ``i`` is covered by the
    surviving check at ``j``; ``("dedup-lea", i, j)`` — the lea at
    ``i`` duplicates the surviving lea at ``j``; ``("widen", i)`` —
    the memory-form check at ``i`` becomes register-form.
    """

    function: str
    edits: list[tuple] = field(default_factory=list)


#: Edit tag -> number of pre-stream indices it carries.
_EDIT_ARITY = {"elide": 2, "dedup-lea": 2, "widen": 1}


def _well_formed(edit) -> bool:
    return (
        type(edit) is tuple
        and len(edit) > 0
        and type(edit[0]) is str
        and _EDIT_ARITY.get(edit[0]) == len(edit) - 1
        and all(type(i) is int for i in edit[1:])
    )


def optimize_checks(
    insns: list, function: str
) -> tuple[list, CheckOptWitness]:
    """One forward dataflow pass over a function's ISA stream.

    Returns the rewritten stream and its witness (empty ``edits`` means
    nothing fired).  The input list is not mutated.
    """
    witness = CheckOptWitness(function)
    checked: dict[tuple, int] = {}  # available key -> provider index
    leas: dict[tuple, int] = {}  # (dst, mem repr) -> provider index
    out: list = []
    for i, insn in enumerate(insns):
        if isinstance(insn, _BOUNDARY):
            checked.clear()
            leas.clear()
            out.append(insn)
            continue
        if _dedupable_lea(insn):
            lkey = (insn.dst, repr(insn.mem))
            provider = leas.get(lkey)
            if provider is not None:
                # Identical address already in the register: deleting
                # the remat leaves both machine and verifier state
                # unchanged, so the check evidence on dst survives.
                witness.edits.append(("dedup-lea", i, provider))
                continue
            _invalidate(checked, leas, insn.dst)
            leas[lkey] = i
            out.append(insn)
            continue
        if isinstance(insn, isa.BndChk):
            widened = _widenable(insn)
            if widened:
                insn = _widen(insn)
            provider = next(
                (checked[k] for k in _covering_keys(insn) if k in checked),
                None,
            )
            if provider is not None:
                witness.edits.append(("elide", i, provider))
                continue
            if widened:
                witness.edits.append(("widen", i))
            checked[check_key(insn)] = i
            out.append(insn)
            continue
        for reg in _defined_regs(insn):
            _invalidate(checked, leas, reg)
        out.append(insn)
    return out, witness


def _invalidate(checked: dict, leas: dict, reg: int) -> None:
    for key in [k for k in checked if reg in key_regs(k)]:
        del checked[key]
    for key in [k for k in leas if k[0] == reg]:
        del leas[key]


# ---------------------------------------------------------------------------
# The translation checker: replays the edit script against the
# pre-stream, re-deriving every claim.


def check_checkopt_witness(
    witness: CheckOptWitness, pre: list, post: list
) -> None:
    """Validate an edit script against the pre/post ISA streams."""
    name = witness.function
    for n, edit in enumerate(witness.edits):
        if not _well_formed(edit):
            raise WitnessError(f"{name}: malformed edit #{n}: {edit!r}")

    deleted: set[int] = set()
    widened: set[int] = set()
    for edit in witness.edits:
        kind, i = edit[0], edit[1]
        if i < 0 or i >= len(pre):
            raise WitnessError(f"{name}: edit index {i} out of range")
        if kind == "widen":
            widened.add(i)
        elif i in deleted:
            raise WitnessError(f"{name}: index {i} deleted twice")
        else:
            deleted.add(i)
    if deleted & widened:
        raise WitnessError(f"{name}: edit both deletes and widens a site")

    # The post stream must be exactly the edit script applied to pre.
    expected = []
    for i, insn in enumerate(pre):
        if i in deleted:
            continue
        if i in widened:
            if not (isinstance(insn, isa.BndChk) and _widenable(insn)):
                raise WitnessError(
                    f"{name}: widen at {i} targets a non-widenable "
                    f"instruction {insn!r}"
                )
            insn = _widen(insn)
        expected.append(insn)
    if [repr(x) for x in expected] != [repr(x) for x in post]:
        raise WitnessError(
            f"{name}: post stream is not the edit script applied to pre"
        )

    def clear_path(j: int, i: int, regs: tuple) -> None:
        """No boundary and no write to ``regs`` between j and i in the
        *post* ordering (deleted instructions never execute)."""
        for k in range(j + 1, i):
            if k in deleted:
                continue
            between = pre[k]
            if isinstance(between, _BOUNDARY):
                raise WitnessError(
                    f"{name}: edit at {i} crosses a block boundary at {k}"
                )
            if any(r in regs for r in _defined_regs(between)):
                raise WitnessError(
                    f"{name}: evidence for edit at {i} is killed by a "
                    f"register write at {k}"
                )

    for edit in witness.edits:
        if edit[0] == "elide":
            _, i, j = edit
            if not (0 <= j < i) or j in deleted:
                raise WitnessError(
                    f"{name}: elide at {i} names an invalid provider {j}"
                )
            subject = pre[i]
            provider = pre[j]
            if not isinstance(subject, isa.BndChk) or not isinstance(
                provider, isa.BndChk
            ):
                raise WitnessError(
                    f"{name}: elide at {i} does not involve two checks"
                )
            provider_key = check_key(
                _widen(provider) if j in widened else provider
            )
            if provider_key not in _covering_keys(subject):
                raise WitnessError(
                    f"{name}: check at {j} does not cover the one "
                    f"elided at {i}"
                )
            clear_path(j, i, key_regs(provider_key))
        elif edit[0] == "dedup-lea":
            _, i, j = edit
            if not (0 <= j < i) or j in deleted:
                raise WitnessError(
                    f"{name}: dedup at {i} names an invalid provider {j}"
                )
            subject = pre[i]
            provider = pre[j]
            if not (_dedupable_lea(subject) and _dedupable_lea(provider)):
                raise WitnessError(
                    f"{name}: dedup at {i} is not a global-lea pair"
                )
            if repr(subject) != repr(provider):
                raise WitnessError(
                    f"{name}: deduped lea at {i} differs from its "
                    f"provider at {j}"
                )
            clear_path(j, i, (subject.dst,))


# ---------------------------------------------------------------------------
# Driver: certify and commit per function.


def run_checkopt(obj, config) -> None:
    """Optimize every function of a pre-link unit in place.

    Each function's edit script is validated by
    :func:`check_checkopt_witness` before being committed; a rejected
    witness keeps that function's original stream.
    """
    registry = events.active()
    with events.span("compile.checkopt"):
        for func in obj.functions:
            optimized, witness = optimize_checks(func.insns, func.name)
            if not witness.edits:
                continue
            try:
                check_checkopt_witness(witness, func.insns, optimized)
            except WitnessError:
                if registry is not None:
                    events.counter(
                        "opt.witness_rejected", **{"pass": "checkopt"}
                    ).inc()
                continue
            func.insns = optimized
            if registry is not None:
                for edit in witness.edits:
                    events.counter(
                        "opt.checkopt", kind=edit[0]
                    ).inc()

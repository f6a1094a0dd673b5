"""The MPX bounds-evidence rule (Section 5.1, Fig. 3b; Section 5.2).

ConfVerify accepts a register-anchored memory access under the MPX
scheme only with "an MPX check ... in the same basic block": a
``BndChk`` earlier in the block whose evidence no register write has
since removed.  This module is that rule, and the only copy of it.
ConfVerify applies it; codegen's check coalescing and the certified
check optimizer (``repro.opt.checkopt``) call it rather than restating
it, so the compiler cannot disagree with the verifier.  (The
mutation-kill oracle in ``repro.fuzz.mutate`` keeps its own replay on
purpose: it is the second opinion the verifier is tested against.)

Evidence is a hashable key:

* ``("reg", r, bnd)`` — ``bndchk bnd, r``: ``r`` lies in the bnd
  register's region.  The unmapped guard areas around each region
  (``link.layout.GUARD_SIZE``) are wider than ``ELIDE_LIMIT`` plus one
  word, so every access ``[r + disp]`` with no index and
  ``|disp| < ELIDE_LIMIT`` either lands in the region or faults;
* ``("mem", base, index, scale, disp, bnd)`` — ``bndchk bnd, [...]``
  on exactly the operand of the access.

A memory-form check whose operand carries an absolute address, a global,
a segment prefix or 32-bit addressing provides no key: the machine
checks an address that is not the one such a key would name.
"""

from __future__ import annotations

from ..backend import isa
from ..link.layout import ELIDE_LIMIT


def check_key(chk: isa.BndChk) -> tuple | None:
    """The key ``chk`` provides, or None if the rule refuses it."""
    mem = chk.mem
    if mem is None:
        return ("reg", chk.reg, chk.bnd)
    if (
        mem.abs is not None
        or mem.global_name is not None
        or mem.seg is not None
        or mem.use32
    ):
        return None
    return ("mem", mem.base, mem.index, mem.scale, mem.disp, chk.bnd)


def access_keys(mem: isa.Mem, bnd: int) -> tuple:
    """The keys, any one of which evidences an access to ``[mem]``
    under ``bnd``: the register key when the guard areas cover the
    displacement, then the exact memory key."""
    exact = ("mem", mem.base, mem.index, mem.scale, mem.disp, bnd)
    if (
        mem.base is not None
        and mem.index is None
        and abs(mem.disp) < ELIDE_LIMIT
    ):
        return (("reg", mem.base, bnd), exact)
    return (exact,)


def key_regs(key: tuple) -> tuple:
    """The registers whose redefinition removes ``key``."""
    return key[1:3] if key[0] == "mem" else key[1:2]

"""The MPX bounds-evidence rule that ConfVerify, codegen and checkopt
share, and the well-formedness of the checks it reads."""

from __future__ import annotations

import pytest

from repro.backend import isa, regs
from repro.link.layout import ELIDE_LIMIT
from repro.verifier.evidence import access_keys, check_key, key_regs

RBX, RCX = regs.RBX, regs.RCX


class TestCheckKey:
    def test_register_form(self):
        assert check_key(isa.BndChk(1, reg=RBX)) == ("reg", RBX, 1)

    def test_memory_form(self):
        chk = isa.BndChk(0, mem=isa.Mem(base=RBX, index=RCX, scale=8, disp=4))
        assert check_key(chk) == ("mem", RBX, RCX, 8, 4, 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("abs", 0x1000_0000),
            ("global_name", "g"),
            ("seg", isa.SEG_FS),
            ("use32", True),
        ],
    )
    def test_memory_form_checking_another_address_refused(self, field, value):
        mem = isa.Mem(base=RBX)
        setattr(mem, field, value)
        assert check_key(isa.BndChk(0, mem=mem)) is None


class TestAccessKeys:
    def test_small_displacement_takes_the_register_key(self):
        for disp in (0, ELIDE_LIMIT - 1, -(ELIDE_LIMIT - 1)):
            mem = isa.Mem(base=RBX, disp=disp)
            assert access_keys(mem, 1) == (
                ("reg", RBX, 1),
                ("mem", RBX, None, 1, disp, 1),
            )

    @pytest.mark.parametrize(
        "mem",
        [
            isa.Mem(base=RBX, disp=ELIDE_LIMIT),
            isa.Mem(base=RBX, disp=-ELIDE_LIMIT),
            isa.Mem(base=RBX, index=RCX),
            isa.Mem(index=RCX, scale=8),
        ],
        ids=["disp-limit", "neg-disp-limit", "indexed", "no-base"],
    )
    def test_only_the_exact_key_otherwise(self, mem):
        assert access_keys(mem, 0) == (
            ("mem", mem.base, mem.index, mem.scale, mem.disp, 0),
        )

    def test_a_check_evidences_its_own_operand(self):
        mem = isa.Mem(base=RBX, index=RCX, scale=4, disp=-8)
        assert check_key(isa.BndChk(1, mem=mem)) in access_keys(mem, 1)


def test_key_regs():
    assert key_regs(("reg", RBX, 0)) == (RBX,)
    assert key_regs(("mem", RBX, RCX, 8, 0, 1)) == (RBX, RCX)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(bnd=0),
        dict(bnd=0, reg=RBX, mem=isa.Mem(base=RBX)),
        dict(bnd=2, reg=RBX),
        dict(bnd=-1, reg=RBX),
    ],
    ids=["no-operand", "two-operands", "bnd2", "bnd-1"],
)
def test_malformed_bound_check_refused(kwargs):
    # A check with no operand once verified and then raised TypeError
    # in `run`; bnd 2 raised IndexError there, and bnd -1 silently
    # checked against bnd1.
    with pytest.raises(ValueError, match="bound check"):
        isa.BndChk(**kwargs)

"""Direct ISA-level machine tests.

These build tiny hand-assembled binaries (bypassing the compiler) and
check each instruction's semantics, the CFI machinery, and the fault
paths at machine level, under every execution engine: the classes run
under the default engine, and their ``*OtherEngines`` subclasses at the
end of the module rerun them under the rest.
"""

import pytest

from repro import OUR_MPX, BASE
from repro.arith import MASK64, eval_bin
from repro.backend import isa, regs
from repro.config import BuildConfig
from repro.errors import MachineFault
from repro.link.layout import CODE_BASE
from repro.link.objfile import Binary
from repro.machine.cpu import ENGINES, Machine

#: The engine make_machine builds (switched by ``_OtherEngines``).
ENGINE = ENGINES[0]


def make_machine(code, config=BASE, bnd_private=None):
    binary = Binary(
        code=code,
        label_addrs={"__start": 0},
        func_magic_addrs={},
        global_addrs={},
        global_inits=[],
        imports=[],
        entry="__start",
        config=config,
        pub_globals_size=4096,
        priv_globals_size=4096,
    )
    # The layout comes from the config, as for a linked binary.
    layout = binary.layout
    machine = Machine(binary, natives=[], engine=ENGINE)
    machine.mem.map_range(layout.public.base, layout.public.end)
    if layout.private is not None:
        machine.mem.map_range(layout.private.base, layout.private.end)
    machine.bnd[0] = (layout.public.base, layout.public.end)
    machine.bnd[1] = (
        (layout.private.base, layout.private.end)
        if layout.private
        else machine.bnd[0]
    )
    machine.spawn(0)
    return machine


def run(code, **kw):
    machine = make_machine(code, **kw)
    machine.run()
    return machine


class TestDataMovement:
    def test_mov_and_alu(self):
        machine = run([
            isa.MovRI(regs.RAX, 5),
            isa.MovRI(regs.RBX, 7),
            isa.Alu("mul", regs.RAX, regs.RAX, regs.RBX),
            isa.Alu("add", regs.RAX, regs.RAX, isa.Imm(7)),
            isa.Halt(),
        ])
        assert machine.exit_code == 42

    def test_setcc(self):
        machine = run([
            isa.SetCC("lt", regs.RAX, isa.Imm(3), isa.Imm(9)),
            isa.Halt(),
        ])
        assert machine.exit_code == 1

    def test_operand_shapes_match_arith(self):
        """Every register/immediate shape of every ALU and compare op
        computes what repro.arith says, signs and wraparound included."""
        x, y = MASK64 - 4, 3  # -5 and 3
        ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr",
               "div", "mod", "eq", "ne", "lt", "le", "gt", "ge"]
        shapes = [(regs.RBX, regs.RCX), (isa.Imm(x), regs.RCX),
                  (regs.RBX, isa.Imm(y)), (isa.Imm(x), isa.Imm(y))]
        for op in ops:
            kind = isa.SetCC if op in isa.COND_OPS else isa.Alu
            for a, b in shapes:
                machine = run([
                    isa.MovRI(regs.RBX, x),
                    isa.MovRI(regs.RCX, y),
                    kind(op, regs.RAX, a, b),
                    isa.Halt(),
                ])
                assert machine.exit_code == eval_bin(op, x, y), (op, a, b)
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            for a, b in shapes:
                machine = run([
                    isa.MovRI(regs.RBX, x),
                    isa.MovRI(regs.RCX, y),
                    isa.MovRI(regs.RAX, 1),
                    isa.Br(op, a, b, "t", addr=5),
                    isa.MovRI(regs.RAX, 0),
                    isa.Halt(),
                ])
                assert machine.exit_code == eval_bin(op, x, y), (op, a, b)

    def test_load_store_roundtrip(self):
        base = 0x10000100
        machine = run([
            isa.MovRI(regs.RBX, base),
            isa.MovRI(regs.RCX, 0xABCD),
            isa.Store(isa.Mem(base=regs.RBX), regs.RCX, 8),
            isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
            isa.Halt(),
        ])
        assert machine.exit_code == 0xABCD

    def test_byte_load_zero_extends(self):
        base = 0x10000100
        machine = run([
            isa.MovRI(regs.RBX, base),
            isa.Store(isa.Mem(base=regs.RBX), isa.Imm(0x1FF), 1),
            isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 1),
            isa.Halt(),
        ])
        assert machine.exit_code == 0xFF

    def test_scaled_index_addressing(self):
        base = 0x10000100
        machine = run([
            isa.MovRI(regs.RBX, base),
            isa.MovRI(regs.RCX, 3),
            isa.Store(isa.Mem(base=regs.RBX, disp=24), isa.Imm(99), 8),
            isa.Load(regs.RAX,
                     isa.Mem(base=regs.RBX, index=regs.RCX, scale=8), 8),
            isa.Halt(),
        ])
        assert machine.exit_code == 99

    def test_lea_computes_address(self):
        machine = run([
            isa.MovRI(regs.RBX, 0x1000),
            isa.MovRI(regs.RCX, 4),
            isa.Lea(regs.RAX,
                    isa.Mem(base=regs.RBX, index=regs.RCX, scale=8, disp=2)),
            isa.Halt(),
        ])
        assert machine.exit_code == 0x1000 + 32 + 2

    def test_push_pop(self):
        machine = run([
            isa.Push(isa.Imm(77)),
            isa.Pop(regs.RAX),
            isa.Halt(),
        ])
        assert machine.exit_code == 77


class TestSegmentation:
    def test_fs_prefix_confines_to_public_segment(self):
        config = BuildConfig(name="seg", scheme="seg", cfi=True)
        machine = make_machine([
            isa.MovRI(regs.RBX, 0xDEAD00000100),  # garbage high bits
            isa.Load(regs.RAX,
                     isa.Mem(base=regs.RBX, seg=isa.SEG_FS, use32=True), 8),
            isa.Halt(),
        ], config=config)
        machine.fs_base = machine.layout.public.base
        machine.gs_base = machine.layout.private.base
        # low32(0x...00000100) = 0x100 -> public base + 0x100: mapped.
        machine.mem.write_int(machine.layout.public.base + 0x100, 8, 1234)
        machine.run()
        assert machine.exit_code == 1234

    def test_gs_prefix_reaches_private_segment(self):
        config = BuildConfig(name="seg", scheme="seg", cfi=True)
        machine = make_machine([
            isa.MovRI(regs.RBX, 0x200),
            isa.Load(regs.RAX,
                     isa.Mem(base=regs.RBX, seg=isa.SEG_GS, use32=True), 8),
            isa.Halt(),
        ], config=config)
        machine.fs_base = machine.layout.public.base
        machine.gs_base = machine.layout.private.base
        machine.mem.write_int(machine.layout.private.base + 0x200, 8, 77)
        machine.run()
        assert machine.exit_code == 77


class TestMpxChecks:
    def test_in_bounds_check_passes(self):
        machine = run([
            isa.MovRI(regs.RBX, 0x10000500),
            isa.BndChk(0, reg=regs.RBX),
            isa.MovRI(regs.RAX, 1),
            isa.Halt(),
        ])
        assert machine.exit_code == 1

    def test_out_of_bounds_faults(self):
        with pytest.raises(MachineFault) as e:
            run([
                isa.MovRI(regs.RBX, 0x10),
                isa.BndChk(0, reg=regs.RBX),
                isa.Halt(),
            ])
        assert e.value.kind == "mpx-bound-violation"

    def test_mem_operand_check(self):
        machine = make_machine([
            isa.MovRI(regs.RBX, 0x10000000),
            isa.MovRI(regs.RCX, 100),
            isa.BndChk(0, mem=isa.Mem(base=regs.RBX, index=regs.RCX, scale=8)),
            isa.MovRI(regs.RAX, 2),
            isa.Halt(),
        ])
        machine.run()
        assert machine.exit_code == 2


class TestCfiMachinery:
    def test_check_magic_accepts_matching_word(self):
        word = isa.MagicWord("ret", 0, value=0x123456789AB)
        check = isa.CheckMagic(regs.RBX, "ret", 0,
                               inv_value=~0x123456789AB & ((1 << 64) - 1))
        machine = run([
            isa.MovRI(regs.RBX, CODE_BASE + 4),
            check,
            isa.MovRI(regs.RAX, 3),
            isa.Halt(),
            word,  # address 4
        ])
        assert machine.exit_code == 3

    def test_check_magic_rejects_mismatch(self):
        check = isa.CheckMagic(regs.RBX, "ret", 0, inv_value=0)
        with pytest.raises(MachineFault) as e:
            run([
                isa.MovRI(regs.RBX, CODE_BASE + 3),
                check,
                isa.Halt(),
                isa.MagicWord("ret", 0, value=42),
            ])
        assert e.value.kind == "cfi-check-failed"

    def test_check_magic_on_non_code_faults(self):
        check = isa.CheckMagic(regs.RBX, "ret", 0, inv_value=0)
        with pytest.raises(MachineFault):
            run([
                isa.MovRI(regs.RBX, 0x10000000),  # data, not code
                check,
                isa.Halt(),
            ])

    def test_jmp_reg_skips_magic(self):
        machine = run([
            isa.MovRI(regs.RBX, CODE_BASE + 2),
            isa.JmpReg(regs.RBX, skip=1),
            isa.MagicWord("ret", 0, value=7),  # addr 2, skipped
            isa.MovRI(regs.RAX, 9),            # addr 3, lands here
            isa.Halt(),
        ])
        assert machine.exit_code == 9

    def test_fail_faults(self):
        with pytest.raises(MachineFault) as e:
            run([isa.Fail()])
        assert e.value.kind == "cfi-check-failed"

    def test_magic_word_is_noop_when_executed(self):
        machine = run([
            isa.MagicWord("call", 0, value=55),
            isa.MovRI(regs.RAX, 5),
            isa.Halt(),
        ])
        assert machine.exit_code == 5


class TestControlFlow:
    def test_call_and_ret(self):
        machine = run([
            isa.CallD("f", addr=3),
            isa.MovRI(regs.RBX, 1),  # after return
            isa.Halt(),
            isa.MovRI(regs.RAX, 11),  # f:
            isa.RetPlain(),
        ])
        assert machine.exit_code == 11

    def test_jmp_table_dispatch(self):
        machine = run([
            isa.MovRI(regs.RBX, 6),
            isa.JmpTable(regs.RBX, 5, ["a", "b"], addrs=[4, 2]),
            isa.MovRI(regs.RAX, 100),  # addr 2 (case 6)
            isa.Halt(),
            isa.MovRI(regs.RAX, 200),  # addr 4 (case 5)
            isa.Halt(),
        ])
        assert machine.exit_code == 100

    def test_jmp_table_out_of_range_faults(self):
        with pytest.raises(MachineFault):
            run([
                isa.MovRI(regs.RBX, 99),
                isa.JmpTable(regs.RBX, 5, ["a"], addrs=[2]),
                isa.Halt(),
            ])

    def test_chkstk_passes_in_stack(self):
        machine = run([isa.ChkStk(), isa.MovRI(regs.RAX, 1), isa.Halt()])
        assert machine.exit_code == 1

    def test_chkstk_faults_after_escape(self):
        with pytest.raises(MachineFault) as e:
            run([
                isa.MovRI(regs.RSP, 0x10),
                isa.ChkStk(),
                isa.Halt(),
            ])
        assert e.value.kind == "stack-escape"

    def test_pc_off_end_faults(self):
        with pytest.raises(MachineFault):
            run([isa.MovRI(regs.RAX, 1)])  # no halt: runs off the end

    def test_division_by_zero_faults(self):
        with pytest.raises(MachineFault) as e:
            run([
                isa.MovRI(regs.RAX, 1),
                isa.Alu("div", regs.RAX, regs.RAX, isa.Imm(0)),
                isa.Halt(),
            ])
        assert e.value.kind == "divide-error"


class _OtherEngines:
    """Mixin: rerun the inherited tests under each non-default engine."""

    @pytest.fixture(autouse=True, params=ENGINES[1:])
    def _engine(self, request, monkeypatch):
        monkeypatch.setitem(globals(), "ENGINE", request.param)


class TestDataMovementOtherEngines(_OtherEngines, TestDataMovement):
    pass


class TestSegmentationOtherEngines(_OtherEngines, TestSegmentation):
    pass


class TestMpxChecksOtherEngines(_OtherEngines, TestMpxChecks):
    pass


class TestCfiMachineryOtherEngines(_OtherEngines, TestCfiMachinery):
    pass


class TestControlFlowOtherEngines(_OtherEngines, TestControlFlow):
    pass

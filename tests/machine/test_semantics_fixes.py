"""Regression tests for machine execution-semantics edge cases.

Historical bugs, each exercised under every execution engine:

* a negative PC used to wrap via Python negative indexing and silently
  execute the wrong instruction instead of raising FAULT_EXEC;
* ``JmpReg``'s upper-bound check used ``<=``, admitting a target one
  word past the end of code;
* code-space reads ignored the requested size, returning the full
  64-bit encoding for 1/4-byte loads;
* ``_touch`` charged only the first L1 line of an access, understating
  the cache pressure line-crossing accesses cause;
* an instruction of unknown type or cost class raised a bare
  ``KeyError`` at execute time instead of a machine fault.
"""

import pytest

from repro import BASE
from repro.backend import isa, regs
from repro.errors import FAULT_EXEC, MachineFault
from repro.link.layout import CODE_BASE
from repro.link.objfile import Binary
from repro.machine.cache import L1Cache
from repro.machine.costs import CACHE_MISS_PENALTY
from repro.machine.cpu import ENGINES, Machine


def make_machine(code, config=BASE, engine="predecoded", labels=None):
    binary = Binary(
        code=code,
        label_addrs={"__start": 0, **(labels or {})},
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
    machine = Machine(binary, natives=[], engine=engine)
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


class _Bogus(isa.Insn):
    """An instruction type no engine knows."""

    def __repr__(self):
        return "bogus"


@pytest.mark.parametrize("engine", ENGINES)
class TestUnknownInstruction:
    def unknown_cost_class(self):
        insn = isa.MovRI(regs.RAX, 7)
        insn.cost_class = "warp"
        return insn

    @pytest.mark.parametrize("kind", ("type", "cost-class"))
    def test_faults_at_execute_time(self, engine, kind):
        unknown = _Bogus() if kind == "type" else self.unknown_cost_class()
        code = [isa.MovRI(regs.RBX, 1), unknown, isa.Halt()]
        # Loading never looks at the instruction; only executing it
        # faults, with the same machine state under every engine.
        machine = make_machine(code, engine=engine)
        with pytest.raises(MachineFault) as e:
            machine.run()
        assert e.value.kind == FAULT_EXEC
        assert "unknown instruction" in e.value.detail
        assert machine.stats.instructions == 2
        assert machine.core_cycles[0] == 1
        assert machine.threads[0].pc == 1
        assert machine.stats.faults == {FAULT_EXEC: 1}

    def test_unreached_unknown_instruction_is_harmless(self, engine):
        code = [isa.MovRI(regs.RAX, 5), isa.Halt(), _Bogus()]
        machine = make_machine(code, engine=engine)
        machine.run()
        assert machine.exit_code == 5


@pytest.mark.parametrize("engine", ENGINES)
class TestNegativePC:
    def test_negative_pc_faults_instead_of_wrapping(self, engine):
        # Pre-fix, pc=-2 indexed code[-2] == the MovRI and the program
        # "succeeded" with exit code 99.
        machine = make_machine(
            [
                isa.Jmp("nowhere", addr=-2),
                isa.MovRI(regs.RAX, 99),
                isa.Halt(),
            ],
            engine=engine,
        )
        with pytest.raises(MachineFault) as exc:
            machine.run()
        assert exc.value.kind == FAULT_EXEC
        assert "pc out of code: -2" in exc.value.detail
        assert machine.exit_code is None

    def test_unlinked_jump_faults(self, engine):
        machine = make_machine(
            [isa.Jmp("nowhere"), isa.Halt()], engine=engine
        )
        with pytest.raises(MachineFault) as exc:
            machine.run()
        assert exc.value.kind == FAULT_EXEC


@pytest.mark.parametrize("engine", ENGINES)
class TestJmpRegBounds:
    def test_one_past_end_faults(self, engine):
        code = [
            isa.MovRI(regs.RAX, CODE_BASE + 3),
            isa.JmpReg(regs.RAX, skip=0),
            isa.Halt(),
        ]
        machine = make_machine(code, engine=engine)
        with pytest.raises(MachineFault) as exc:
            machine.run()
        assert exc.value.kind == FAULT_EXEC
        assert exc.value.detail == "jump outside code"
        assert exc.value.addr == CODE_BASE + len(code)

    def test_last_word_is_still_reachable(self, engine):
        machine = make_machine(
            [
                isa.MovRI(regs.RAX, CODE_BASE + 2),
                isa.JmpReg(regs.RAX, skip=0),
                isa.Halt(),
            ],
            engine=engine,
        )
        machine.run()
        assert machine.exit_code == CODE_BASE + 2


@pytest.mark.parametrize("engine", ENGINES)
class TestCodeReadWidth:
    WORD = 0x1122334455667788

    def code(self):
        return [
            isa.Load(regs.RAX, isa.Mem(abs=CODE_BASE + 2), 4),
            isa.Halt(),
            isa.MagicWord(kind="func", taint_bits=0, value=self.WORD),
        ]

    def test_four_byte_code_read_truncates(self, engine):
        machine = make_machine(self.code(), engine=engine)
        machine.run()
        assert machine.exit_code == self.WORD & 0xFFFFFFFF

    def test_full_width_code_read_unchanged(self, engine):
        code = self.code()
        code[0] = isa.Load(regs.RAX, isa.Mem(abs=CODE_BASE + 2), 8)
        machine = make_machine(code, engine=engine)
        machine.run()
        assert machine.exit_code == self.WORD

    def test_one_byte_code_read(self, engine):
        code = self.code()
        code[0] = isa.Load(regs.RAX, isa.Mem(abs=CODE_BASE + 2), 1)
        machine = make_machine(code, engine=engine)
        machine.run()
        assert machine.exit_code == self.WORD & 0xFF


@pytest.mark.parametrize("engine", ENGINES)
class TestLineCrossingCacheCharge:
    def test_straddling_load_touches_both_lines(self, engine):
        machine = make_machine([isa.Halt()], engine=engine)
        addr = machine.layout.public.base + 0x100 + 60  # 60 mod 64
        machine = make_machine(
            [
                isa.MovRI(regs.RBX, addr),
                isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
                isa.Halt(),
            ],
            engine=engine,
        )
        cache = machine.caches[machine.threads[0].core]
        machine.run()
        assert cache.misses == 2
        assert cache.hits == 0

    def test_aligned_load_touches_one_line(self, engine):
        machine = make_machine([isa.Halt()], engine=engine)
        addr = machine.layout.public.base + 0x100
        machine = make_machine(
            [
                isa.MovRI(regs.RBX, addr),
                isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
                isa.Halt(),
            ],
            engine=engine,
        )
        cache = machine.caches[machine.threads[0].core]
        machine.run()
        assert cache.misses == 1

    def test_miss_penalty_charged_per_spanned_line(self, engine):
        def cycles_for(offset):
            machine = make_machine([isa.Halt()], engine=engine)
            addr = machine.layout.public.base + 0x100 + offset
            machine = make_machine(
                [
                    isa.MovRI(regs.RBX, addr),
                    isa.Load(regs.RAX, isa.Mem(base=regs.RBX), 8),
                    isa.Halt(),
                ],
                engine=engine,
            )
            machine.run()
            return machine.wall_cycles

        assert cycles_for(60) - cycles_for(0) == CACHE_MISS_PENALTY


class TestAccessSpan:
    def test_within_one_line(self):
        cache = L1Cache()
        assert cache.access_span(0x1000, 8) == 1
        assert cache.access_span(0x1000, 8) == 0  # now hot
        assert cache.misses == 1
        assert cache.hits == 1

    def test_straddles_two_lines(self):
        cache = L1Cache()
        assert cache.access_span(0x103C, 8) == 2
        assert cache.misses == 2

    def test_large_span_touches_every_line(self):
        cache = L1Cache()
        assert cache.access_span(0x1000, 256) == 4
        assert cache.access_span(0x1000, 256) == 0

    def test_mru_retouch_preserves_lru_order(self):
        cache = L1Cache(n_sets=1, n_ways=2)
        cache.access(0 << 6)
        cache.access(1 << 6)
        cache.access(1 << 6)  # MRU fast path
        cache.access(2 << 6)  # evicts line 0, not line 1
        assert cache.access(1 << 6) is True
        assert cache.access(0 << 6) is False

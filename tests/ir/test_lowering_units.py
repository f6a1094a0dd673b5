"""Unit tests on the AST->IR lowering output (pre-optimization)."""

from repro.frontend import lower_program
from repro.ir.core import (
    Bin,
    Call,
    CallIndirect,
    Jump,
    Lea,
    Load,
    Ret,
    Store,
    SwitchBr,
)
from repro.minic import analyze, parse
from repro.runtime.trusted import T_PROTOTYPES
from repro.taint import PRIVATE, PUBLIC


def ir_for(source, fname):
    module = lower_program(analyze(parse(T_PROTOTYPES + source)))
    return module, module.functions[fname]


def instrs(func, klass):
    return [i for b in func.blocks for i in b.instrs if isinstance(i, klass)]


class TestRegions:
    def test_private_deref_gets_private_region(self):
        _, f = ir_for(
            "private int get(private int *p) { return *p; }", "get"
        )
        loads = [
            i for i in instrs(f, Load) if i.mem.base is not None
        ]
        assert loads and all(l.mem.region is PRIVATE for l in loads)

    def test_public_deref_gets_public_region(self):
        _, f = ir_for("int get(int *p) { return *p; }", "get")
        loads = [i for i in instrs(f, Load) if i.mem.base is not None]
        assert loads and all(l.mem.region is PUBLIC for l in loads)

    def test_private_local_slot_is_private(self):
        _, f = ir_for(
            "void f() { private char buf[8]; buf[0] = (private char)1; }",
            "f",
        )
        slot = next(s for s in f.slots if s.name == "buf")
        assert slot.taint is PRIVATE

    def test_char_accesses_are_one_byte(self):
        _, f = ir_for("char g(char *s) { return s[3]; }", "g")
        loads = [i for i in instrs(f, Load) if i.mem.base is not None]
        assert all(l.size == 1 for l in loads)

    def test_member_access_uses_field_offset(self):
        _, f = ir_for(
            """
            struct pair { int a; int b; };
            int snd(struct pair *p) { return p->b; }
            """,
            "snd",
        )
        loads = [i for i in instrs(f, Load) if i.mem.base is not None]
        assert any(l.mem.disp == 8 for l in loads)

    def test_pointer_arith_scales_by_pointee(self):
        _, f = ir_for("int *bump(int *p) { return p + 3; }", "bump")
        adds = [i for i in instrs(f, Bin) if i.op == "add"]
        assert any(24 in (i.a, i.b) for i in adds)


class TestCallMetadata:
    def test_call_records_signature_taints(self):
        _, f = ir_for(
            """
            private int mix(private int a, int b) { return a + b; }
            int main() { return declassify_int(mix((private int)1, 2)); }
            """,
            "main",
        )
        call = next(c for c in instrs(f, Call) if c.name == "mix")
        assert call.arg_taints == (PRIVATE, PUBLIC)
        assert call.ret_taint is PRIVATE

    def test_indirect_call_lowered_with_taints(self):
        _, f = ir_for(
            """
            int id(int x) { return x; }
            int main() { int (*p)(int); p = id; return p(1); }
            """,
            "main",
        )
        icalls = instrs(f, CallIndirect)
        assert len(icalls) == 1
        assert icalls[0].arg_taints == (PUBLIC,)

    def test_variadic_args_counted(self):
        _, f = ir_for(
            """
            int v(int n, ...) { return __vararg(0); }
            int main() { return v(2, 10, 20); }
            """,
            "main",
        )
        call = next(c for c in instrs(f, Call) if c.name == "v")
        assert call.n_fixed == 1
        assert len(call.args) == 3


class TestControlLowering:
    def test_switch_becomes_switchbr(self):
        _, f = ir_for(
            """
            int f(int x) {
                switch (x) { case 1: return 1; case 2: return 2; }
                return 0;
            }
            """,
            "f",
        )
        switches = instrs(f, SwitchBr)
        assert len(switches) == 1
        assert sorted(v for v, _t in switches[0].table) == [1, 2]

    def test_fallthrough_blocks_chain(self):
        module, f = ir_for(
            """
            int f(int x) {
                int r = 0;
                switch (x) { case 1: r = 1; case 2: r += 2; break; }
                return r;
            }
            """,
            "f",
        )
        sw = instrs(f, SwitchBr)[0]
        case1 = next(t for v, t in sw.table if v == 1)
        case2 = next(t for v, t in sw.table if v == 2)
        block1 = f.block_map()[case1]
        assert isinstance(block1.terminator, Jump)
        assert block1.terminator.target == case2

    def test_string_literals_become_rodata_globals(self):
        module, f = ir_for(
            'int main() { print_str("hello"); return 0; }', "main"
        )
        rodata = [
            g for g in module.globals.values() if g.name.startswith(".str")
        ]
        assert len(rodata) == 1
        assert rodata[0].init_bytes == b"hello\x00"
        assert rodata[0].read_only

    def test_string_literals_deduplicated(self):
        module, _ = ir_for(
            'int main() { print_str("x"); print_str("x"); return 0; }',
            "main",
        )
        rodata = [
            g for g in module.globals.values() if g.name.startswith(".str")
        ]
        assert len(rodata) == 1

    def test_missing_return_synthesized(self):
        _, f = ir_for("int f(int x) { if (x) { return 1; } }", "f")
        rets = instrs(f, Ret)
        assert len(rets) >= 2  # explicit + synthesized fallback

"""Linker and loader tests: layout, magic selection, static checks."""

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, compile_and_load, compile_source
from repro.backend import isa
from repro.errors import LinkError, LoadError, MachineFault
from repro.link.layout import (
    CODE_BASE,
    ELIDE_LIMIT,
    GUARD_SIZE,
    MPX_STACK_OFFSET,
    NATIVE_BASE,
    REGION_SIZE,
    externals_table,
    make_layout,
)
from repro.link.loader import load
from repro.runtime.trusted import T_PROTOTYPES, TrustedRuntime
from repro.verifier import verify_binary

SIMPLE = T_PROTOTYPES + """
private int g_priv;
int g_pub = 3;
int main() { g_priv = (private int)1; return g_pub; }
"""


class TestLayout:
    def test_mpx_regions_disjoint_with_guard(self):
        layout = make_layout(OUR_MPX, 4096, 4096)
        assert layout.public.end < layout.private.base
        assert layout.private.base - layout.public.end >= (1 << 20)

    def test_guard_covers_elided_displacements(self):
        # A register check stands for every access [reg + disp] with
        # |disp| < ELIDE_LIMIT, of up to one word: past the region's
        # end, all of it must fall in the unmapped guard area.
        assert GUARD_SIZE >= ELIDE_LIMIT + 8
        layout = make_layout(OUR_MPX)
        assert layout.private.base - layout.public.end == GUARD_SIZE

    def test_offset_matches_constant(self):
        layout = make_layout(OUR_MPX)
        assert layout.offset == MPX_STACK_OFFSET

    def test_seg_bases_4gb_aligned(self):
        layout = make_layout(OUR_SEG)
        assert layout.public.base % (4 << 30) == 0
        assert layout.private.base % (4 << 30) == 0

    def test_heap_does_not_overlap_stack_area(self):
        layout = make_layout(OUR_MPX, 1 << 20, 0)
        heap_lo, heap_hi = layout.heap_range(False)
        stack_lo, _ = layout.stack_range(False, 7)
        assert heap_hi <= stack_lo

    def test_thread_stacks_disjoint(self):
        layout = make_layout(OUR_MPX)
        r0 = layout.stack_range(False, 0)
        r1 = layout.stack_range(False, 1)
        assert r1[1] == r0[0]

    def test_flat_layout_has_no_private(self):
        layout = make_layout(BASE)
        assert layout.private is None
        assert layout.offset == 0


class TestLinker:
    def test_globals_in_taint_regions(self):
        binary = compile_source(SIMPLE, OUR_MPX)
        layout = binary.layout
        assert layout.public.contains(binary.global_addrs["g_pub"])
        assert layout.private.contains(binary.global_addrs["g_priv"])

    def test_flat_config_merges_regions(self):
        binary = compile_source(SIMPLE, BASE)
        assert binary.layout.private is None
        assert binary.layout.public.contains(binary.global_addrs["g_priv"])

    def test_magic_prefixes_unique_in_code(self):
        binary = compile_source(SIMPLE, OUR_MPX)
        for word in binary.code:
            if isinstance(word, isa.MagicWord):
                continue
            assert (word.encoding() >> 5) not in (
                binary.mcall_prefix,
                binary.mret_prefix,
            )

    def test_magic_words_patched(self):
        binary = compile_source(SIMPLE, OUR_MPX)
        for word in binary.code:
            if isinstance(word, isa.MagicWord) and word.kind == "call":
                assert word.value >> 5 == binary.mcall_prefix

    def test_magic_deterministic_per_seed(self):
        b1 = compile_source(SIMPLE, OUR_MPX, seed=5)
        b2 = compile_source(SIMPLE, OUR_MPX, seed=5)
        b3 = compile_source(SIMPLE, OUR_MPX, seed=6)
        assert b1.mcall_prefix == b2.mcall_prefix
        assert b1.mcall_prefix != b3.mcall_prefix

    def test_externals_table_first_in_public_globals(self):
        binary = compile_source(SIMPLE, OUR_MPX)
        lo, hi = externals_table(binary.layout, len(binary.imports))
        assert lo == binary.layout.public.base
        assert hi == lo + 8 * len(binary.imports)
        assert binary.global_addrs["__externals"] == lo
        others = [
            addr for name, addr in binary.global_addrs.items()
            if name != "__externals"
        ]
        assert not [a for a in others if lo <= a < hi]
        for insn in binary.code:
            if isinstance(insn, isa.JmpInd):
                assert lo <= insn.mem.abs < hi

    def test_stub_per_import(self):
        binary = compile_source(SIMPLE, OUR_MPX)
        stubs = [n for n in binary.label_addrs if n.startswith("stub.")]
        assert len(stubs) == len(binary.imports)

    def test_unknown_entry_rejected(self):
        with pytest.raises(LinkError, match="entry"):
            compile_source("int helper() { return 1; }", OUR_MPX, entry="main")

    def test_undefined_function_rejected(self):
        with pytest.raises(Exception, match="never defined"):
            compile_source("int missing(int x); int main() { return missing(1); }",
                           OUR_MPX)

    def test_function_pointers_point_at_magic(self):
        source = T_PROTOTYPES + """
        int f(int x) { return x; }
        int main() { int (*p)(int); p = f; return p(1); }
        """
        binary = compile_source(source, OUR_MPX)
        for word in binary.code:
            if isinstance(word, isa.MovFuncAddr) and word.func == "f":
                assert word.value == CODE_BASE + binary.func_magic_addrs["f"]

    def test_function_pointers_point_at_entry_without_cfi(self):
        source = T_PROTOTYPES + """
        int f(int x) { return x; }
        int main() { int (*p)(int); p = f; return p(1); }
        """
        binary = compile_source(source, BASE)
        for word in binary.code:
            if isinstance(word, isa.MovFuncAddr) and word.func == "f":
                assert word.value == CODE_BASE + binary.label_addrs["f"]


class TestLoader:
    def test_bounds_registers_installed(self):
        process = compile_and_load(SIMPLE, OUR_MPX)
        machine = process.machine
        layout = machine.layout
        assert machine.bnd[0] == (layout.public.base, layout.public.end)
        assert machine.bnd[1] == (layout.private.base, layout.private.end)

    def test_segment_registers_installed(self):
        process = compile_and_load(SIMPLE, OUR_SEG)
        machine = process.machine
        assert machine.fs_base == machine.layout.public.base
        assert machine.gs_base == machine.layout.private.base

    def test_global_initializers_visible(self):
        process = compile_and_load(SIMPLE, OUR_MPX)
        addr = process.machine.binary.global_addrs["g_pub"]
        assert process.machine.mem.read_int(addr, 8) == 3

    def test_externals_table_read_only(self):
        process = compile_and_load(SIMPLE, OUR_MPX)
        binary = process.machine.binary
        lo, hi = externals_table(binary.layout, len(binary.imports))
        for addr in range(lo, hi):
            with pytest.raises(MachineFault, match="read-only"):
                process.machine.mem.write_int(addr, 1, 0xBA)

    def test_externals_table_holds_native_ids(self):
        process = compile_and_load(SIMPLE, OUR_MPX)
        binary = process.machine.binary
        lo, hi = externals_table(binary.layout, len(binary.imports))
        slots = [
            process.machine.mem.read_int(addr, 8) for addr in range(lo, hi, 8)
        ]
        assert slots == [NATIVE_BASE + i for i in range(len(binary.imports))]

    @pytest.mark.parametrize("entry", ["nosuch", 5])
    def test_unknown_entry_rejected(self, entry):
        binary = compile_source(SIMPLE, OUR_MPX)
        binary.entry = entry
        with pytest.raises(LoadError, match=repr(entry)):
            load(binary)

    def test_guard_between_regions_unmapped(self):
        process = compile_and_load(SIMPLE, OUR_MPX)
        layout = process.machine.layout
        gap = layout.public.end + 100
        assert not process.machine.mem.is_mapped(gap)


# U code that plants a U function pointer in print_int's externals-
# table slot, then calls print_int.  SLOT is filled in per binary.
HIJACK = T_PROTOTYPES + """
void evil(int x) { send(1, "pwned", 5); }
int main() {
    void (*f)(int) = evil;
    int *slot = (int*)SLOT;
    *slot = (int)f;
    print_int(7);
    return 0;
}
"""


class TestHostileBinaries:
    """ConfVerify accepts both binaries.  The externals table is the
    loader's, so nothing the binary's data says can point a T call at
    U code."""

    def test_initializer_over_externals_table_refused(self):
        binary = compile_source(T_PROTOTYPES + """
        void evil(int x) { send(1, "pwned", 5); }
        int main() { print_int(7); return 0; }
        """, OUR_MPX)
        lo, _ = externals_table(binary.layout, len(binary.imports))
        u_func = CODE_BASE + binary.func_magic_addrs["evil"]
        binary.global_inits.append(
            (lo, u_func.to_bytes(8, "little") * len(binary.imports))
        )
        verify_binary(binary)
        with pytest.raises(LoadError, match="externals table"):
            load(binary)

    def test_read_only_range_outside_mapped_regions_refused(self):
        # Refused before any page of it is protected: a range this small
        # would not exhaust memory even if it were walked.
        binary = compile_source(HIJACK.replace("SLOT", "0"), OUR_MPX)
        binary.read_only_ranges.append((0, 4 * 4096))
        verify_binary(binary)
        with pytest.raises(LoadError, match=r"read-only range \[0x0, "):
            load(binary)

    def test_initializer_outside_mapped_regions_refused(self):
        binary = compile_source(HIJACK.replace("SLOT", "0"), OUR_MPX)
        binary.global_inits.append((0, b"\x01"))
        verify_binary(binary)
        with pytest.raises(LoadError, match="initializer at 0x0 "):
            load(binary)

    @pytest.mark.parametrize("size", (-REGION_SIZE, REGION_SIZE))
    def test_globals_size_outside_region_refused(self, size):
        # A size past either end would start a heap outside its region.
        binary = compile_source(HIJACK.replace("SLOT", "0"), OUR_MPX)
        binary.priv_globals_size = size
        verify_binary(binary)
        with pytest.raises(LoadError, match="globals sizes"):
            load(binary)

    def test_table_stays_read_only_without_read_only_ranges(self):
        probe = compile_source(HIJACK.replace("SLOT", "0"), OUR_MPX)
        lo, _ = externals_table(probe.layout, len(probe.imports))
        index = [ext.name for ext in probe.imports].index("print_int")
        slot = lo + 8 * index
        binary = compile_source(HIJACK.replace("SLOT", str(slot)), OUR_MPX)
        verify_binary(binary)
        binary.read_only_ranges = []
        runtime = TrustedRuntime()
        process = load(binary, runtime=runtime)
        with pytest.raises(MachineFault) as fault:
            process.run()
        assert fault.value.kind == "permission-violation"
        assert fault.value.addr == slot
        assert bytes(runtime.channel(1).outbox) == b""

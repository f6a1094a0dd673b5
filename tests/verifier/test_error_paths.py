"""One test per documented ConfVerify check, from hand-mutated binaries.

The verifier docstring (src/repro/verifier/verify.py) documents the
property suite; this file pins every reachable rejection reason to a
minimal hand-crafted binary mutation, so each check is individually
exercised — independent of the fuzzing harness that sweeps the same
space randomly (tests/fuzz).

Three reasons are intentionally absent because they are unreachable
from a linked binary and marked ``pragma: no cover`` in the verifier:
``magic-in-body`` (a call magic always starts a new procedure),
``unknown-instruction`` (the ISA is closed), and ``unknown-import``
(stub labels and the import table are built from the same list).
"""

from __future__ import annotations

import copy

import pytest

from repro import BASE, OUR_MPX, OUR_SEG, compile_source
from repro.backend import isa, regs
from repro.errors import FAULT_BOUNDS, MachineFault, VerifyError
from repro.link.layout import MPX_STACK_OFFSET
from repro.link.loader import load
from repro.runtime.trusted import T_PROTOTYPES, TrustedRuntime
from repro.verifier.verify import verify_binary

# A single source exercising every instrumentation shape the checks
# guard: a direct call, an indirect call through a function pointer, a
# global array, a loop (conditional branches), and a private heap copy
# (bound-checked private loads feeding bound-checked private stores).
SRC = T_PROTOTYPES + r"""
int inc(int x) { return x + 1; }

// Big enough local frame to force a sub-rsp extension (and so a
// chkstk) rather than push-only frame setup.
int big(int x) {
    int buf[64];
    int i = 0;
    while (i < 64) { buf[i] = i; i = i + 1; }
    return buf[x & 63];
}

int g_arr[8];

int main() {
    int (*fp)(int);
    fp = &inc;
    int acc = fp(3);
    acc = acc + inc(4) + big(5);
    g_arr[2] = acc;
    private char *p = malloc_priv(16);
    private char *q = malloc_priv(16);
    p[1] = (private char)(acc & 255);
    q[2] = p[1];
    int i = 0;
    while (i < 4) { g_arr[i] = i + acc; i = i + 1; }
    p[3] = q[2];
    free_priv(p);
    free_priv(q);
    return g_arr[2] & 255;
}
"""


def _nop() -> isa.Alu:
    return isa.Alu("add", regs.R10, regs.R10, isa.Imm(0))


@pytest.fixture(scope="module")
def mpx_binary():
    binary = compile_source(SRC, OUR_MPX)
    verify_binary(binary)
    return binary


@pytest.fixture(scope="module")
def seg_binary():
    binary = compile_source(SRC, OUR_SEG)
    verify_binary(binary)
    return binary


def mutated(binary):
    return copy.deepcopy(binary)


def reject(binary, *reasons: str) -> VerifyError:
    with pytest.raises(VerifyError) as excinfo:
        verify_binary(binary)
    assert excinfo.value.reason in reasons, (
        f"rejected for {excinfo.value.reason!r}, wanted one of {reasons}"
    )
    return excinfo.value


def find(binary, pred, start: int = 0) -> int:
    for addr in range(start, len(binary.code)):
        if pred(binary.code[addr], addr):
            return addr
    raise AssertionError("expected instruction pattern not found")


def body_start(binary) -> int:
    """Address of the first procedure entry magic (end of preamble)."""
    return find(
        binary,
        lambda i, a: isinstance(i, isa.MagicWord) and i.kind == "call",
    )


def plain_alu_addr(binary) -> int:
    """A reachable straight-line ALU op that is safe to replace."""
    start = body_start(binary)
    return find(
        binary,
        lambda i, a: isinstance(i, isa.Alu)
        and i.dst not in (regs.RSP, regs.R10)
        and not isinstance(binary.code[a - 1], (isa.CallD, isa.CallI)),
        start,
    )


# ---------------------------------------------------------------------------
# Configuration gate


def test_config_not_verifiable_without_instrumentation():
    binary = compile_source(SRC, BASE)
    reject(binary, "config-not-verifiable")


# ---------------------------------------------------------------------------
# Magic uniqueness + placement


def test_magic_not_unique(mpx_binary):
    b = mutated(mpx_binary)
    addr = plain_alu_addr(b)
    # Declare the prefix such that an ordinary instruction encodes it.
    b.mcall_prefix = b.code[addr].encoding() >> 5
    reject(b, "magic-not-unique", "bad-magic-word")


def test_bad_magic_word_entry_prefix(mpx_binary):
    b = mutated(mpx_binary)
    b.code[body_start(b)].value ^= 1 << 7
    reject(b, "bad-magic-word")


def test_bad_magic_word_ret_site_prefix(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.MagicWord) and i.kind == "ret"
        and isinstance(b.code[a - 1], (isa.CallD, isa.CallI)),
    )
    b.code[addr].value ^= 1 << 6
    reject(b, "bad-magic-word")


def test_stray_ret_magic_mid_procedure(mpx_binary):
    b = mutated(mpx_binary)
    site = find(
        b, lambda i, a: isinstance(i, isa.MagicWord) and i.kind == "ret"
    )
    word = b.code[site]
    b.code[plain_alu_addr(b)] = isa.MagicWord(
        "ret", word.taint_bits, value=word.value
    )
    reject(b, "stray-ret-magic")


def test_no_procedures(mpx_binary):
    b = mutated(mpx_binary)
    for addr, insn in enumerate(b.code):
        if isinstance(insn, isa.MagicWord) and insn.kind == "call":
            b.code[addr] = isa.Fail()
    reject(b, "no-procedures")


# ---------------------------------------------------------------------------
# CFG recovery: stubs and jump targets


def test_bad_stub_wrong_instruction(mpx_binary):
    b = mutated(mpx_binary)
    stub = min(
        a for n, a in b.label_addrs.items() if n.startswith("stub.")
    )
    b.code[stub] = isa.Fail()
    reject(b, "bad-stub")


def test_bad_stub_outside_externals_table(mpx_binary):
    b = mutated(mpx_binary)
    stub = min(
        a for n, a in b.label_addrs.items() if n.startswith("stub.")
    )
    b.code[stub].mem.abs += 4096
    reject(b, "bad-stub")


def test_symbol_outside_code(mpx_binary):
    # Truncated code: the stub labels now name addresses past its end.
    b = mutated(mpx_binary)
    stub = min(
        a for n, a in b.label_addrs.items() if n.startswith("stub.")
    )
    del b.code[stub:]
    reject(b, "symbol-outside-code")


def test_call_past_code_end(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_direct_call_addr(b)].addr = len(b.code) + 17
    reject(b, "call-to-non-procedure")


def test_jump_outside_procedure(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b, lambda i, a: isinstance(i, isa.Jmp), body_start(b)
    )
    b.code[addr].addr = len(b.code) + 17
    reject(b, "jump-outside-procedure")


# ---------------------------------------------------------------------------
# Register discipline: rsp, segment registers, stack growth


def test_rsp_overwrite(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.MovRR(regs.RSP, regs.RAX)
    reject(b, "rsp-overwrite")


def _frame_extension_addr(binary) -> int:
    """The `sub rsp, imm` opening a large frame (chkstk follows)."""
    addr = find(
        binary,
        lambda i, a: isinstance(i, isa.Alu) and i.dst == regs.RSP
        and i.op == "sub" and isinstance(i.b, isa.Imm),
        body_start(binary),
    )
    assert isinstance(binary.code[addr + 1], isa.ChkStk)
    return addr


def test_rsp_non_constant_arith(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_frame_extension_addr(b)].b = regs.R11
    reject(b, "rsp-non-constant-arith")


def test_missing_chkstk(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_frame_extension_addr(b) + 1] = _nop()
    reject(b, "missing-chkstk")


def test_segment_register_write(seg_binary):
    b = mutated(seg_binary)
    b.code[plain_alu_addr(b)] = isa.MovRR(regs.GS, regs.RAX)
    reject(b, "segment-register-write")


@pytest.mark.parametrize("kind", (isa.Alu, isa.SetCC, isa.Br))
def test_bad_operation(mpx_binary, kind):
    b = mutated(mpx_binary)
    b.code[find(b, lambda i, a: type(i) is kind, body_start(b))].op = "x"
    reject(b, "bad-operation")


def test_bad_register(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)].dst = 99
    reject(b, "bad-register")


def test_bad_register_in_memory_operand(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.Load) and i.mem.base is not None,
        body_start(b),
    )
    b.code[addr].mem.base = 99
    reject(b, "bad-register")


@pytest.mark.parametrize("global_name", (None, "g_arr"))
def test_unanchored_operand(seg_binary, global_name):
    # fs:[none32] once verified under OurSeg, then `run` raised an
    # untyped TypeError reading register None.
    b = mutated(seg_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.Store) and i.mem.seg is not None,
        body_start(b),
    )
    b.code[addr].mem.base = None
    b.code[addr].mem.global_name = global_name
    reject(b, "unanchored-operand")


# ---------------------------------------------------------------------------
# Control transfers: returns, plain rets, indirect jumps, halts


def _return_sequence(binary, last: bool = False) -> int:
    """Address of a Pop starting a Pop/CheckMagic/JmpReg return."""
    hits = [
        a
        for a in range(len(binary.code) - 2)
        if isinstance(binary.code[a], isa.Pop)
        and isinstance(binary.code[a + 1], isa.CheckMagic)
        and binary.code[a + 1].kind == "ret"
    ]
    assert hits, "no return sequence found"
    return hits[-1] if last else hits[0]


def test_plain_ret(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.RetPlain()
    reject(b, "plain-ret")


def test_indirect_jump(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.JmpReg(regs.R11, 0)
    reject(b, "indirect-jump")


def test_halt_in_procedure(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.Halt()
    reject(b, "halt-in-procedure")


def test_stray_checkmagic(mpx_binary):
    b = mutated(mpx_binary)
    b.code[plain_alu_addr(b)] = isa.CheckMagic(
        regs.RAX, "ret", 0, inv_value=0
    )
    reject(b, "stray-checkmagic")


def test_ret_check_pattern_broken_jmp(mpx_binary):
    b = mutated(mpx_binary)
    pop = _return_sequence(b)
    b.code[pop + 2].skip = 2
    reject(b, "ret-check-pattern")


def test_fallthrough_out_of_procedure(mpx_binary):
    b = mutated(mpx_binary)
    pop = _return_sequence(b, last=True)
    for offset in range(3):  # erase Pop, CheckMagic, JmpReg
        b.code[pop + offset] = _nop()
    reject(b, "fallthrough-out-of-procedure")


def test_return_taint_mismatch_entry_bit(mpx_binary):
    b = mutated(mpx_binary)
    b.code[body_start(b)].value ^= 1 << 4
    # Depending on which procedure the flipped magic belongs to, either
    # its own return check or a call site to it trips first.
    reject(b, "return-taint-mismatch", "return-site-taint-mismatch")


# ---------------------------------------------------------------------------
# Direct calls


def _direct_call_addr(binary) -> int:
    entry = binary.func_magic_addrs["inc"] + 1
    return find(
        binary,
        lambda i, a: isinstance(i, isa.CallD) and i.addr == entry,
    )


def test_call_to_non_procedure(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_direct_call_addr(b)].addr += 1
    reject(b, "call-to-non-procedure")


def test_call_taint_mismatch(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    arg = regs.ARG_REGS[0]
    definer = max(
        a
        for a in range(body_start(b), call)
        if getattr(b.code[a], "dst", None) == arg
    )
    # Redefine the public argument from the private stack region (the
    # one private source that needs no MPX evidence).
    b.code[definer] = isa.Load(
        arg, isa.Mem(base=regs.RSP, disp=MPX_STACK_OFFSET), 8
    )
    reject(b, "call-taint-mismatch")


def test_missing_return_site_magic(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    assert isinstance(b.code[call + 1], isa.MagicWord)
    b.code[call + 1] = _nop()
    reject(b, "missing-return-site-magic")


def test_return_site_taint_mismatch(mpx_binary):
    b = mutated(mpx_binary)
    call = _direct_call_addr(b)
    b.code[call + 1].value ^= 1  # flip the site's expected ret taint
    reject(b, "return-site-taint-mismatch")


# ---------------------------------------------------------------------------
# Indirect calls


def _icall_check_addr(binary) -> int:
    return find(
        binary,
        lambda i, a: isinstance(i, isa.CheckMagic) and i.kind == "call",
        body_start(binary),
    )


def test_unchecked_indirect_call(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_icall_check_addr(b)] = _nop()
    reject(b, "unchecked-indirect-call")


def test_bad_icall_check(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_icall_check_addr(b)].inv_value ^= 1 << 6
    reject(b, "bad-icall-check")


def test_icall_check_pattern(mpx_binary):
    b = mutated(mpx_binary)
    check = _icall_check_addr(b)
    # Erase the CallI and its ret-site magic (otherwise the now
    # call-less magic trips the placement check first).
    b.code[check + 1] = _nop()
    b.code[check + 2] = _nop()
    reject(b, "icall-check-pattern")


def test_private_function_pointer(mpx_binary):
    b = mutated(mpx_binary)
    check_addr = _icall_check_addr(b)
    reg = b.code[check_addr].reg
    definer = max(
        a
        for a in range(body_start(b), check_addr)
        if getattr(b.code[a], "dst", None) == reg
    )
    b.code[definer] = isa.Load(
        reg, isa.Mem(base=regs.RSP, disp=MPX_STACK_OFFSET), 8
    )
    reject(b, "private-function-pointer")


# ---------------------------------------------------------------------------
# Memory-operand evidence: MPX checks, segment prefixes, static operands


def test_missing_bounds_check(mpx_binary):
    b = mutated(mpx_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.BndChk) and i.bnd == 1,
        body_start(b),
    )
    b.code[addr] = _nop()
    reject(b, "missing-bounds-check")


def test_store_taint_mismatch(seg_binary):
    b = mutated(seg_binary)
    start = body_start(b)
    load = find(
        b,
        lambda i, a: isinstance(i, isa.Load) and i.mem.seg == isa.SEG_GS,
        start,
    )
    src = b.code[load].dst
    store = find(
        b,
        lambda i, a: isinstance(i, isa.Store) and i.src == src
        and i.mem.seg == isa.SEG_GS,
        load,
    )
    b.code[store].mem.seg = isa.SEG_FS  # privately-loaded byte -> public
    reject(b, "store-taint-mismatch")


def test_unprefixed_operand(seg_binary):
    b = mutated(seg_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.Load) and i.mem.seg is not None
        and i.mem.base is not None,
        body_start(b),
    )
    b.code[addr].mem.seg = None
    reject(b, "unprefixed-operand")


def _global_access_addr(binary) -> int:
    return find(
        binary,
        lambda i, a: isinstance(i, (isa.Load, isa.Store))
        and i.mem.abs is not None,
        body_start(binary),
    )


def test_indexed_static_operand(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_global_access_addr(b)].mem.index = regs.RCX
    reject(b, "indexed-static-operand")


def test_static_operand_outside_regions(mpx_binary):
    b = mutated(mpx_binary)
    b.code[_global_access_addr(b)].mem.abs = (1 << 47) - 16
    reject(b, "static-operand-outside-regions")


@pytest.mark.parametrize("shape", ("fs", "gs", "use32"))
@pytest.mark.parametrize("scheme", ("mpx", "seg"))
def test_prefixed_static_operand(mpx_binary, seg_binary, scheme, shape):
    # The machine adds the fs/gs base to a prefixed absolute address,
    # so abs + disp is not where the operand points.
    b = mutated(mpx_binary if scheme == "mpx" else seg_binary)
    mem = b.code[_global_access_addr(b)].mem
    if shape == "use32":
        mem.use32 = True
    else:
        mem.seg = shape
    reject(b, "prefixed-static-operand")


def test_prefixed_static_store_runs_outside_its_region(seg_binary):
    # Unverified, the edited global store writes at fs_base + abs: past
    # the segments, so it faults instead of landing in g_arr.
    b = mutated(seg_binary)
    addr = find(
        b,
        lambda i, a: isinstance(i, isa.Store) and i.mem.abs is not None,
        body_start(b),
    )
    b.code[addr].mem.seg = isa.SEG_FS
    process = load(b, runtime=TrustedRuntime())
    with pytest.raises(MachineFault) as info:
        process.run()
    target = b.code[addr].mem.abs + b.code[addr].mem.disp
    assert info.value.addr == process.machine.fs_base + target
    reject(b, "prefixed-static-operand")


# The MPX leak probe: a private pointer laundered through an int cast
# is dereferenced as public.  Built as is, the bnd0 check on that load
# stops the run; each mutation below removes what the check does while
# keeping the word count, and would send the password's first byte.
LEAK_PROBE = T_PROTOTYPES + """
int main() {
    private char *p = malloc_priv(16);
    read_passwd("alice", p, 8);
    char *r = (char *)(int)p;
    char *q = malloc_pub(16);
    q[0] = r[0];
    send(1, q, 1);
    return 0;
}
"""


@pytest.fixture(scope="module")
def leak_probe():
    binary = compile_source(LEAK_PROBE, OUR_MPX, seed=1)
    verify_binary(binary)
    return binary


def _probe_check(binary) -> int:
    """The bnd0 check guarding the laundered load."""
    return find(
        binary,
        lambda i, a: isinstance(i, isa.BndChk)
        and isinstance(binary.code[a + 1], isa.Load)
        and binary.code[a + 1].mem.base == i.reg,
        body_start(binary),
    )


def _probe_run(binary):
    """Run the probe unverified; returns (fault kind or None, channel 1)."""
    runtime = TrustedRuntime()
    runtime.set_password("alice", b"sesame\x00\x00")
    try:
        load(binary, runtime=runtime).run()
        fault = None
    except MachineFault as error:
        fault = error.kind
    return fault, runtime.channel(1).drain_out()


def test_leak_probe_stopped_by_its_check(leak_probe):
    assert _probe_run(leak_probe) == (FAULT_BOUNDS, b"")


def test_prefix_under_mpx(leak_probe):
    # Under MPX the loader leaves fs/gs at 0 and the private region
    # lies below 4 GiB, so the prefix confines nothing.
    b = mutated(leak_probe)
    addr = _probe_check(b)
    b.code[addr] = isa.ChkStk()
    b.code[addr + 1].mem.seg = isa.SEG_FS
    b.code[addr + 1].mem.use32 = True
    assert _probe_run(b) == (None, b"s")
    reject(b, "prefix-under-mpx")


def test_bad_bound_check(leak_probe):
    # The machine checks the absolute address, not [rbx].
    b = mutated(leak_probe)
    addr = _probe_check(b)
    b.code[addr] = isa.BndChk(
        0, mem=isa.Mem(base=b.code[addr].reg, abs=b.layout.public.base)
    )
    assert _probe_run(b) == (None, b"s")
    reject(b, "bad-bound-check")

"""The linker: lays out code and globals, generates T-import stubs,
chooses the magic-sequence prefixes post-link, and patches everything.

Mirrors Section 6 of the paper:

* U functions are linked into one code space; each T import gets a stub
  that indirect-jumps through the ``externals`` table, whose range
  ``layout.externals_table`` fixes and which the loader fills with
  T-wrapper addresses (here, NATIVE_BASE-range dispatch ids) and maps
  read-only;
* globals are assigned to the public or private region according to
  their inferred taint; references are patched to absolute addresses;
* the 59-bit MCall/MRet prefixes are chosen *after* linking by drawing
  random values and scanning every instruction encoding for collisions
  ("we find these sequences by generating random bit sequences and
  checking for uniqueness");
* direct calls are statically checked: the call site's register taints
  must match the callee's entry taint bits.
"""

from __future__ import annotations

import random

from ..arith import MASK64
from ..backend import isa
from ..errors import LinkError
from ..ir.core import IRGlobal
from ..obs import events
from ..taint.lattice import PRIVATE
from .layout import CODE_BASE, externals_table, make_layout
from .objfile import Binary, UObject

EXTERNALS_SYMBOL = "__externals"


def link(
    objs: UObject | list[UObject] | tuple[UObject, ...],
    entry: str = "main",
    seed: int | None = None,
) -> Binary:
    """Link one U object, or several separately-compiled ones.

    Multi-object linking resolves *cross-object externals*: a function
    declared-but-undefined in one unit (``UObject.externals``) binds to
    its definition in another, with the declared taint signature
    checked against the definition's entry bits (the same static check
    direct calls get).  Function code is laid out in unit order, then
    per-unit definition order; trusted imports are deduplicated by name
    into one externals table.
    """
    if isinstance(objs, UObject):
        objs = [objs]
    obj = merge_objects(list(objs))
    with events.span("compile.link", config=obj.config.name):
        return _link(obj, entry, seed)


def merge_objects(objs: list[UObject]) -> UObject:
    """Merge separately-compiled units into one linkable object.

    Validates config consistency, symbol uniqueness, trusted-import
    signature agreement, and that every cross-object external resolves
    to a definition with matching taint bits.  A single fully-defined
    object passes through untouched (bit-identical single-unit links).
    """
    if not objs:
        raise LinkError("no objects to link")
    config = objs[0].config
    for other in objs[1:]:
        if other.config != config:
            raise LinkError(
                "config mismatch across objects: "
                f"{objs[0].name!r} built with {config.name}, "
                f"{other.name!r} with {other.config.name}"
            )
    if len(objs) == 1 and not objs[0].externals:
        return objs[0]

    functions = []
    defined: dict[str, int] = {}
    for obj in objs:
        for func in obj.functions:
            if func.name in defined:
                raise LinkError(
                    f"duplicate definition of {func.name!r} "
                    f"(defined in more than one object)"
                )
            defined[func.name] = func.entry_bits
            functions.append(func)

    globals_merged: dict[str, IRGlobal] = {}
    for obj in objs:
        for name, g in obj.globals.items():
            existing = globals_merged.get(name)
            if existing is not None:
                # Deduplicated read-only literals (e.g. identical string
                # constants emitted by two units) may merge; anything
                # else is a symbol clash.
                if (
                    existing.read_only
                    and g.read_only
                    and existing.init_bytes == g.init_bytes
                    and existing.size == g.size
                ):
                    continue
                raise LinkError(
                    f"duplicate global {name!r} "
                    "(defined in more than one object)"
                )
            globals_merged[name] = g

    imports: dict[str, object] = {}
    for obj in objs:
        for ext in obj.imports:
            existing = imports.get(ext.name)
            if existing is None:
                imports[ext.name] = ext
            elif (
                list(existing.arg_taints) != list(ext.arg_taints)
                or existing.ret_taint != ext.ret_taint
            ):
                raise LinkError(
                    f"trusted import {ext.name!r} declared with "
                    "conflicting taint signatures across objects"
                )

    for obj in objs:
        for ext in obj.externals:
            callee_bits = defined.get(ext.name)
            if callee_bits is None:
                raise LinkError(
                    f"unresolved external {ext.name!r} "
                    f"(declared in {obj.name!r}, defined in no linked object)"
                )
            declared_bits = ext.entry_bits
            if declared_bits != callee_bits:
                raise LinkError(
                    f"external {ext.name!r}: declaration in {obj.name!r} "
                    f"(bits={declared_bits:05b}) does not match the "
                    f"definition (bits={callee_bits:05b})"
                )

    events.counter("linker.objects").inc(len(objs))
    return UObject(
        name="+".join(obj.name for obj in objs),
        functions=functions,
        globals=globals_merged,
        imports=sorted(imports.values(), key=lambda e: e.name),
        config=config,
        externals=[],
    )


def _link(obj: UObject, entry: str, seed: int | None) -> Binary:
    config = obj.config
    function_names = {f.name for f in obj.functions}
    if entry not in function_names:
        raise LinkError(f"entry function {entry!r} not found")

    # ------------------------------------------------------------------
    # 1. Globals layout (two regions, then absolute addresses).
    pub_offsets: dict[str, int] = {}
    priv_offsets: dict[str, int] = {}
    priv_size = 0

    def place(offsets: dict[str, int], size: int, g: IRGlobal) -> int:
        align = max(g.align, 1)
        size = (size + align - 1) // align * align
        offsets[g.name] = size
        return size + g.size

    # The externals table opens the public region, so its address is a
    # link-time constant; the loader fills and protects it.
    n_imports = len(obj.imports)
    layout = make_layout(config)
    table_lo, table_hi = externals_table(layout, n_imports)
    pub_size = table_hi - table_lo
    for g in obj.globals.values():
        if layout.private is not None and g.taint is PRIVATE:
            priv_size = place(priv_offsets, priv_size, g)
        else:
            pub_size = place(pub_offsets, pub_size, g)

    global_addrs: dict[str, int] = {EXTERNALS_SYMBOL: table_lo}
    for name, off in pub_offsets.items():
        global_addrs[name] = layout.public.base + off
    for name, off in priv_offsets.items():
        global_addrs[name] = layout.private.base + off

    # ------------------------------------------------------------------
    # 2. Code layout.
    code: list[isa.Insn] = []
    label_addrs: dict[str, int] = {}
    func_magic_addrs: dict[str, int] = {}

    def append_stream(insns) -> None:
        pending_magic: int | None = None
        for insn in insns:
            if isinstance(insn, isa.Label):
                label_addrs[insn.name] = len(code)
                if pending_magic is not None:
                    func_magic_addrs[insn.name] = pending_magic
                    pending_magic = None
                continue
            if isinstance(insn, isa.MagicWord) and insn.kind == "call":
                pending_magic = len(code)
            code.append(insn)

    # Start thunk: call main, then halt.
    entry_fn = next(f for f in obj.functions if f.name == entry)
    start: list[isa.Insn] = [isa.Label("__start"), isa.CallD(entry)]
    start[-1].site_bits = entry_fn.entry_bits
    if config.cfi and not config.shadow_stack:
        start.append(isa.MagicWord("ret", isa.mret_bits(entry_fn.ret_taint)))
    start.append(isa.Halt())
    append_stream(start)

    # Thread-exit thunk: where spawned threads return to.  The MRet
    # magic lets CFI returns from thread entry functions succeed.
    append_stream(
        [
            isa.MagicWord("ret", 0),
            isa.Label("__texit0"),
            isa.Halt(),
        ]
    )

    # Variant for thread entries with a *private* return taint (the
    # all-private scenario).
    append_stream(
        [
            isa.MagicWord("ret", 1),
            isa.Label("__texit1"),
            isa.Halt(),
        ]
    )

    # T-callback return thunk (§8): U functions invoked *by T* return
    # here — "trusted wrappers in U that return to a fixed location in
    # T".  The Fail body never executes; T regains control the moment
    # the callback's CFI return lands on this address.
    append_stream(
        [
            isa.MagicWord("ret", 0),
            isa.Label("__tret0"),
            isa.Fail(),
        ]
    )

    for func in obj.functions:
        append_stream(func.insns)

    # Stubs for T imports: jmp [externals + 8*i].
    for index, ext in enumerate(obj.imports):
        append_stream(
            [
                isa.Label(f"stub.{ext.name}"),
                isa.JmpInd(isa.Mem(abs=table_lo + 8 * index)),
            ]
        )

    # ------------------------------------------------------------------
    # 3. Resolve references.
    entry_bits_of: dict[str, int] = {f.name: f.entry_bits for f in obj.functions}
    for ext in obj.imports:
        entry_bits_of[f"stub.{ext.name}"] = ext.entry_bits

    for insn in code:
        if isinstance(insn, isa.JmpTable):
            try:
                insn.addrs = [label_addrs[t] for t in insn.targets]
            except KeyError as missing:
                raise LinkError(f"unresolved jump-table target {missing}")
        if isinstance(insn, (isa.Jmp, isa.Br, isa.CallD)):
            if insn.target not in label_addrs:
                raise LinkError(f"unresolved label {insn.target!r}")
            insn.addr = label_addrs[insn.target]
        if isinstance(insn, isa.CallD):
            callee_bits = entry_bits_of.get(insn.target)
            if callee_bits is None:
                target_fn = insn.target
                raise LinkError(f"call to unknown function {target_fn!r}")
            if not _bits_compatible(insn.site_bits, callee_bits):
                raise LinkError(
                    f"direct-call taint mismatch calling {insn.target}: "
                    f"site={insn.site_bits:05b} callee={callee_bits:05b}"
                )
        if isinstance(insn, isa.MovFuncAddr):
            if insn.func not in label_addrs:
                raise LinkError(f"address of unknown function {insn.func!r}")
            if config.cfi and not config.shadow_stack:
                insn.value = CODE_BASE + func_magic_addrs[insn.func]
            else:
                insn.value = CODE_BASE + label_addrs[insn.func]
        mem = getattr(insn, "mem", None)
        if mem is not None and mem.global_name is not None:
            if mem.global_name not in global_addrs:
                raise LinkError(f"unresolved global {mem.global_name!r}")
            mem.abs = global_addrs[mem.global_name]

    # ------------------------------------------------------------------
    # 4. Choose magic prefixes and patch magic words / checks.
    rng = random.Random(seed if seed is not None else 0xC0FFEE)
    mcall_prefix, mret_prefix = _choose_prefixes(code, rng)
    for insn in code:
        if isinstance(insn, isa.MagicWord):
            prefix = mcall_prefix if insn.kind == "call" else mret_prefix
            insn.value = ((prefix << 5) | insn.taint_bits) & MASK64
        elif isinstance(insn, isa.CheckMagic):
            prefix = mcall_prefix if insn.kind == "call" else mret_prefix
            expected = ((prefix << 5) | insn.taint_bits) & MASK64
            insn.inv_value = ~expected & MASK64

    # ------------------------------------------------------------------
    # 5. Global initializers and read-only data.
    binary = Binary(
        code=code,
        label_addrs=label_addrs,
        func_magic_addrs=func_magic_addrs,
        global_addrs=global_addrs,
        global_inits=[
            (global_addrs[name], g.init_bytes)
            for name, g in obj.globals.items()
            if g.init_bytes is not None
        ],
        imports=list(obj.imports),
        entry="__start",
        config=config,
        mcall_prefix=mcall_prefix,
        mret_prefix=mret_prefix,
        pub_globals_size=pub_size,
        priv_globals_size=priv_size,
        read_only_ranges=[
            (global_addrs[name], global_addrs[name] + g.size)
            for name, g in obj.globals.items()
            if g.read_only
        ],
    )
    events.counter("linker.code_words").inc(len(code))
    events.counter("linker.check_sites").inc(
        sum(1 for insn in code if isa.check_kind(insn) is not None)
    )
    events.counter("linker.stubs").inc(n_imports)
    # The externals table counts as a public global.
    events.counter("linker.globals", region="pub").inc(len(pub_offsets) + 1)
    events.counter("linker.globals", region="priv").inc(len(priv_offsets))
    return binary


def _bits_compatible(site_bits: int, callee_bits: int) -> bool:
    """Site register taints must be ⊑ the callee's expectations bit-wise
    for arguments (a public register may flow into a private-expecting
    slot, never the reverse) and the return bit must match exactly."""
    for i in range(4):
        site = (site_bits >> i) & 1
        callee = (callee_bits >> i) & 1
        if site > callee:
            return False
    return (site_bits >> 4) == (callee_bits >> 4)


def _choose_prefixes(code, rng) -> tuple[int, int]:
    encodings = {
        insn.encoding() >> 5
        for insn in code
        if not isinstance(insn, isa.MagicWord)
    }
    for _ in range(64):
        # Each draw rescans every instruction encoding for collisions
        # with the candidate prefixes; normally one scan suffices.
        events.counter("linker.magic_rescans").inc()
        mcall = rng.getrandbits(59)
        mret = rng.getrandbits(59)
        if mcall == mret:
            continue
        if mcall in encodings or mret in encodings:
            continue
        return mcall, mret
    raise LinkError("could not find unique magic prefixes")  # pragma: no cover

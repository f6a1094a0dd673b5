"""Object-file containers passed between codegen, linker, and loader."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend.isa import Insn
from ..config import BuildConfig
from ..ir.core import ExternSig, IRGlobal
from ..taint.lattice import Taint


@dataclass
class CompiledFunction:
    """One function's instruction stream plus CFI metadata."""

    name: str
    insns: list[Insn]
    # Taint bits for the entry magic word (4 args + return).
    entry_bits: int
    arg_taints: list[Taint]
    ret_taint: Taint
    n_args: int


@dataclass
class UObject:
    """The compiled-but-unlinked U module (the paper's pre-link dll).

    Units serialize to a stable, versioned format via
    ``repro.build.serialize`` (``dump_uobject``/``load_uobject``) so
    they can live in the content-addressed object cache and be linked
    in a later process.
    """

    name: str
    functions: list[CompiledFunction]
    globals: dict[str, IRGlobal]
    # Trusted imports, in stable order (their index is the externals-
    # table slot).
    imports: list[ExternSig]
    config: BuildConfig
    # Untrusted (U) functions this unit declares but does not define —
    # separate compilation's cross-object externals.  The multi-object
    # linker resolves each against a definition in another unit and
    # checks the declared taint signature against the definition.
    externals: list[ExternSig] = field(default_factory=list)


@dataclass
class Binary:
    """A linked, loadable U binary.

    ``code`` is the word-addressed code space.  ``label_addrs`` maps
    every label (functions and basic blocks) to its word address;
    ``func_magic_addrs`` maps function names to the address of their
    MCall magic word (what function pointers hold under CFI).
    ``check_sites`` maps the address of every instrumentation check
    (bnd / cfi / magic / chkstk / shadow, see ``isa.check_kind``) to its
    category — symbol-side metadata the profiler and overhead reports
    consume without rescanning the code.
    """

    code: list[Insn]
    label_addrs: dict[str, int]
    func_magic_addrs: dict[str, int]
    global_addrs: dict[str, int]
    global_inits: list[tuple[int, bytes]]
    imports: list[ExternSig]
    externals_table_addr: int
    entry: str
    config: BuildConfig
    mcall_prefix: int = 0
    mret_prefix: int = 0
    # Populated by the linker for diagnostics / the verifier.
    function_order: list[str] = field(default_factory=list)
    # Resolved memory layout (set by the linker) and the address ranges
    # the loader must map read-only (rodata + the externals table).
    layout: object = None
    read_only_ranges: list[tuple[int, int]] = field(default_factory=list)
    # Address -> check category (populated by the linker; see class doc).
    check_sites: dict[int, str] = field(default_factory=dict)

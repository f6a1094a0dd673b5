"""Object-file containers passed between codegen, linker, and loader."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend.isa import Insn, mcall_bits
from ..config import BuildConfig
from ..ir.core import ExternSig, IRGlobal
from ..taint.lattice import Taint
from .layout import MemoryLayout, make_layout


@dataclass
class CompiledFunction:
    """One function's instruction stream plus CFI metadata."""

    name: str
    insns: list[Insn]
    arg_taints: list[Taint]
    ret_taint: Taint

    @property
    def entry_bits(self) -> int:
        """Taint bits of the entry magic word (4 args + return)."""
        return mcall_bits(
            self.arg_taints, self.ret_taint, len(self.arg_taints)
        )


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
    MCall magic word (what function pointers hold under CFI).  Those
    maps and ``global_addrs`` are the symbol table.

    A binary stores nothing a reader can compute from it: check sites
    come from ``isa.check_kind`` over ``code``, entry bits from the
    magic words and ``imports``, the memory layout from ``config`` and
    the two globals sizes (:attr:`layout`), and the externals table's
    range from ``layout.externals_table`` (the loader, not the binary,
    fills it).
    """

    code: list[Insn]
    label_addrs: dict[str, int]
    func_magic_addrs: dict[str, int]
    global_addrs: dict[str, int]
    global_inits: list[tuple[int, bytes]]
    imports: list[ExternSig]
    entry: str
    config: BuildConfig
    mcall_prefix: int = 0
    mret_prefix: int = 0
    # Bytes of globals (the externals table included) in each region.
    pub_globals_size: int = 0
    priv_globals_size: int = 0
    # Read-only data (string literals) the loader maps read-only
    # besides the table.
    read_only_ranges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def layout(self) -> MemoryLayout:
        return make_layout(
            self.config, self.pub_globals_size, self.priv_globals_size
        )

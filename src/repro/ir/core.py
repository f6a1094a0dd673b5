"""The compiler's intermediate representation.

A small, explicitly-typed three-address IR playing the role LLVM IR
plays for ConfLLVM.  It is *not* SSA: virtual registers are assigned
freely, and locals start as stack slots; the ``promote_slots`` pass
(our mem2reg analogue) later turns non-address-taken scalar slots into
virtual registers.

Taint is first-class metadata: every virtual register, stack slot, and
memory access carries a concrete :class:`~repro.taint.lattice.Taint`
(qualifier inference has already run by the time IR exists).  The
backend uses the access ``region`` to pick the MPX bounds register or
fs/gs segment prefix, and slot/vreg taints to pick the public or the
private stack.

IR objects are immutable once built: ``VReg``, ``StackSlot``,
``MemRef`` and every instruction class raise on any field write, and
the sequences they hold are tuples.  Only the containers (a
:class:`Block`'s instruction list, an :class:`IRFunction`'s block and
slot lists) change, and a pass rewrites by building new instructions
into them.  That is what makes certification cheap: the pre-pass
snapshot the witness checker compares against shares every instruction
with the function, so an instruction a pass left alone is the same
object before and after it, and the checker only looks at new ones
(see :mod:`repro.opt.witness`).
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields

from ..errors import IRError
from ..minic.types import FuncType
from ..taint.lattice import PUBLIC, Taint

BIN_OPS = frozenset(
    {
        "add", "sub", "mul", "div", "mod",
        "and", "or", "xor", "shl", "shr",
        "eq", "ne", "lt", "le", "gt", "ge",
    }
)
UN_OPS = frozenset({"neg", "not"})

Operand = object  # VReg | int


def _frozen(cls=None, *, eq: bool = True):
    """A slotted dataclass whose fields no one can write once it is built.

    ``dataclass(frozen=True)`` does the same, but its ``__init__`` writes
    each field through ``object.__setattr__``, which makes building an
    object about four times dearer than for a plain slotted class; this
    ``__init__`` writes the slots through their descriptors (about twice
    a plain one), and any other write or delete raises
    ``FrozenInstanceError``.
    """
    if cls is None:
        return lambda c: _frozen(c, eq=eq)
    cls = dataclass(slots=True, eq=eq)(cls)
    names = [f.name for f in fields(cls)]
    env: dict = {}
    params, body = [], []
    for f in fields(cls):
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), env)
    cls.__init__ = env["__init__"]
    cls.__setattr__ = cls.__delattr__ = _refuse_write
    # copy and pickle rebuild through __init__, as they cannot write.
    cls.__reduce__ = lambda self: (
        type(self), tuple(getattr(self, n) for n in names)
    )
    return cls


def _refuse_write(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


@_frozen(eq=False)
class VReg:
    """A virtual register with a fixed taint.  Equality is identity: two
    registers are the same register only if they are the same object."""

    id: int
    taint: Taint
    hint: str = ""

    def __repr__(self) -> str:
        tag = "H" if self.taint is Taint.PRIVATE else "L"
        suffix = f".{self.hint}" if self.hint else ""
        return f"%{self.id}{tag}{suffix}"


@_frozen
class StackSlot:
    """A named chunk of a function's frame, on the stack of its taint."""

    uid: int
    name: str
    size: int
    align: int
    taint: Taint
    address_taken: bool = False

    def __repr__(self) -> str:
        tag = "H" if self.taint is Taint.PRIVATE else "L"
        return f"slot:{self.name}.{self.uid}{tag}"


# ---------------------------------------------------------------------------
# Instructions


class Instr:
    """Base class.  ``uses``/``defs`` drive dataflow and regalloc."""

    __slots__ = ()

    def uses(self) -> list[VReg]:
        return [v for v in self._use_operands() if isinstance(v, VReg)]

    def defs(self) -> list[VReg]:
        return []

    def _use_operands(self) -> list[Operand]:
        return []

    @property
    def is_terminator(self) -> bool:
        return False


@_frozen
class Const(Instr):
    dst: VReg
    value: int

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = const {self.value}"


@_frozen
class Copy(Instr):
    dst: VReg
    src: Operand

    def _use_operands(self):
        return [self.src]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = {self.src!r}"


@_frozen
class Un(Instr):
    op: str
    dst: VReg
    src: Operand

    def _use_operands(self):
        return [self.src]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = {self.op} {self.src!r}"


@_frozen
class Bin(Instr):
    op: str
    dst: VReg
    a: Operand
    b: Operand

    def _use_operands(self):
        return [self.a, self.b]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = {self.op} {self.a!r}, {self.b!r}"


@_frozen
class MemRef:
    """An IR memory reference: exactly one of ``base`` (a pointer
    register), ``slot`` (frame-relative) or ``global_name`` is set, plus
    an optional scaled index register and constant displacement.

    ``region`` is the taint of the memory the access must land in; the
    backend turns it into an MPX bounds check or an fs/gs prefix.  Slot
    references compile to rsp-relative operands, which the paper's
    ``_chkstk`` optimization exempts from checks when the displacement
    is constant and small.
    """

    region: Taint
    base: VReg | None = None
    slot: "StackSlot | None" = None
    global_name: str | None = None
    index: VReg | None = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self):
        anchors = (
            (self.base is not None)
            + (self.slot is not None)
            + (self.global_name is not None)
        )
        assert anchors == 1, "MemRef needs exactly one anchor"

    def regs(self) -> list[VReg]:
        out = []
        if self.base is not None:
            out.append(self.base)
        if self.index is not None:
            out.append(self.index)
        return out

    def __repr__(self):
        tag = "H" if self.region is Taint.PRIVATE else "L"
        anchor = self.base or self.slot or f"@{self.global_name}"
        parts = [f"{anchor!r}"]
        if self.index is not None:
            parts.append(f"{self.index!r}*{self.scale}")
        if self.disp:
            parts.append(str(self.disp))
        return f"{tag}[{' + '.join(parts)}]"


@_frozen
class Load(Instr):
    """``dst = size-byte load mem`` (zero-extending for size 1)."""

    dst: VReg
    mem: MemRef
    size: int

    def _use_operands(self):
        return list(self.mem.regs())

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = load{self.size} {self.mem!r}"


@_frozen
class Store(Instr):
    mem: MemRef
    src: Operand
    size: int

    def _use_operands(self):
        return [*self.mem.regs(), self.src]

    def __repr__(self):
        return f"store{self.size} {self.mem!r}, {self.src!r}"


@_frozen
class Lea(Instr):
    """Materialize the effective address of a memory reference."""

    dst: VReg
    mem: MemRef

    def _use_operands(self):
        return list(self.mem.regs())

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = lea {self.mem!r}"


@_frozen
class GlobalAddr(Instr):
    dst: VReg
    name: str

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = addr @{self.name}"


@_frozen
class FuncAddr(Instr):
    dst: VReg
    fname: str

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = funcaddr {self.fname}"


@_frozen
class Call(Instr):
    """Direct call.  ``arg_taints``/``ret_taint`` snapshot the callee
    signature so the backend can emit magic-sequence taint bits without
    consulting the symbol table."""

    dst: VReg | None
    name: str
    args: tuple[Operand, ...]
    arg_taints: tuple[Taint, ...]
    ret_taint: Taint
    n_fixed: int  # args beyond n_fixed are variadic (public, stack-passed)

    def _use_operands(self):
        return list(self.args)

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def __repr__(self):
        args = ", ".join(repr(a) for a in self.args)
        dst = f"{self.dst!r} = " if self.dst else ""
        return f"{dst}call {self.name}({args})"


@_frozen
class CallIndirect(Instr):
    dst: VReg | None
    target: VReg
    args: tuple[Operand, ...]
    arg_taints: tuple[Taint, ...]
    ret_taint: Taint
    n_fixed: int

    def _use_operands(self):
        return [self.target, *self.args]

    def defs(self):
        return [self.dst] if self.dst is not None else []

    def __repr__(self):
        args = ", ".join(repr(a) for a in self.args)
        dst = f"{self.dst!r} = " if self.dst else ""
        return f"{dst}icall {self.target!r}({args})"


@_frozen
class TlsBaseAddr(Instr):
    """The current thread's TLS base (rsp masked to the stack base)."""

    dst: VReg

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = tlsbase"


@_frozen
class VarArgAddr(Instr):
    """Address of the index-th variadic slot of the *current* frame."""

    dst: VReg
    index: Operand

    def _use_operands(self):
        return [self.index]

    def defs(self):
        return [self.dst]

    def __repr__(self):
        return f"{self.dst!r} = varargaddr {self.index!r}"


# Terminators


@_frozen
class Jump(Instr):
    target: str

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        return f"jump {self.target}"


@_frozen
class Branch(Instr):
    cond: VReg
    if_true: str
    if_false: str

    def _use_operands(self):
        return [self.cond]

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        return f"branch {self.cond!r} ? {self.if_true} : {self.if_false}"


@_frozen
class SwitchBr(Instr):
    """Multi-way branch.  The backend lowers it to a jump table under
    the vanilla pipeline (when dense) or to a compare chain under
    ConfLLVM, which disables jump-table lowering because ConfVerify
    rejects indirect jumps (Section 4, "Indirect jumps")."""

    cond: VReg
    table: tuple[tuple[int, str], ...]  # (case value, block label)
    default: str

    def _use_operands(self):
        return [self.cond]

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        arms = ", ".join(f"{v}->{t}" for v, t in self.table)
        return f"switch {self.cond!r} [{arms}] else {self.default}"


@_frozen
class Ret(Instr):
    value: Operand | None

    def _use_operands(self):
        return [self.value] if self.value is not None else []

    @property
    def is_terminator(self):
        return True

    def __repr__(self):
        return f"ret {self.value!r}" if self.value is not None else "ret"


# ---------------------------------------------------------------------------
# Blocks / functions / module


@dataclass
class Block:
    name: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Instr:
        return self.instrs[-1]

    def successors(self) -> list[str]:
        term = self.terminator
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, Branch):
            return [term.if_true, term.if_false]
        if isinstance(term, SwitchBr):
            return [t for _v, t in term.table] + [term.default]
        return []


class IRFunction:
    def __init__(self, name: str, sig: FuncType, param_names: list[str]):
        self.name = name
        self.sig = sig
        self.param_names = param_names
        self.blocks: list[Block] = []
        self.slots: list[StackSlot] = []
        self.param_vregs: list[VReg] = []
        # Every register of the function, indexed by id.  new_vreg is
        # the only way to make one, so the witness checker can tell a
        # register a pass invented from one the function already had.
        self.vregs: list[VReg] = []
        self._next_slot = 0
        self._next_block = 0
        # Lowering provenance, stamped by the frontend: identifies the
        # as-lowered (pre-optimization) body.  Optimization witnesses
        # carry it so the checker can reject a witness replayed against
        # a different function (see repro.opt.witness).
        self.origin = ""

    def new_vreg(self, taint: Taint, hint: str = "") -> VReg:
        vreg = VReg(len(self.vregs), taint, hint)
        self.vregs.append(vreg)
        return vreg

    def new_slot(
        self,
        name: str,
        size: int,
        align: int,
        taint: Taint,
        address_taken: bool = False,
    ) -> StackSlot:
        slot = StackSlot(
            self._next_slot, name, size, align, taint, address_taken
        )
        self._next_slot += 1
        self.slots.append(slot)
        return slot

    def new_block(self, hint: str = "bb") -> Block:
        block = Block(f"{self.name}.{hint}.{self._next_block}")
        self._next_block += 1
        self.blocks.append(block)
        return block

    def block_map(self) -> dict[str, Block]:
        return {b.name: b for b in self.blocks}

    def __repr__(self) -> str:
        lines = [f"func {self.name} {self.sig!r}:"]
        for slot in self.slots:
            lines.append(f"  {slot!r} size={slot.size}")
        for block in self.blocks:
            lines.append(f" {block.name}:")
            for instr in block.instrs:
                lines.append(f"    {instr!r}")
        return "\n".join(lines)


@dataclass
class IRGlobal:
    name: str
    size: int
    align: int
    taint: Taint
    init_bytes: bytes | None = None  # None means zero-init
    read_only: bool = False


@dataclass
class ExternSig:
    """The taint signature of a function a unit calls but does not
    define: a trusted (T) import, or an untrusted function of another
    unit."""

    name: str
    arg_taints: list[Taint] = field(default_factory=list)
    ret_taint: Taint = PUBLIC

    @property
    def entry_bits(self) -> int:
        """Taint bits a direct call to this function must match: the
        T import stub's (or a cross-object definition's) entry bits."""
        from ..backend.isa import mcall_bits

        return mcall_bits(
            self.arg_taints, self.ret_taint, len(self.arg_taints)
        )


class IRModule:
    def __init__(self, name: str = "U"):
        self.name = name
        self.functions: dict[str, IRFunction] = {}
        self.globals: dict[str, IRGlobal] = {}
        self.externs: dict[str, ExternSig] = {}
        # Untrusted functions declared but defined in *another* unit
        # (separate compilation); resolved by the multi-object linker.
        self.u_externs: dict[str, ExternSig] = {}

    def add_function(self, func: IRFunction) -> None:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func

    def __repr__(self) -> str:
        parts = [f"module {self.name}"]
        parts.extend(repr(g) for g in self.globals.values())
        parts.extend(repr(f) for f in self.functions.values())
        return "\n".join(parts)

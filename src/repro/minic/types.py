"""MiniC's type system with taint qualifiers.

Every type node carries a *taint term* describing the secrecy of values
of that type (and hence the memory region in which objects of that type
live).  During semantic analysis the terms may be
:class:`~repro.taint.lattice.TaintVar` inference variables; after the
solver runs, :func:`concretize` replaces every variable by its solution,
so the IR and backend only ever see concrete :class:`Taint` levels.

Conventions mirroring the paper (Section 5.1):

* ``private int x`` — the int value is private.
* ``private int *p`` — a *public* pointer to a private int (the
  qualifier binds to the base type, as in the paper's examples).
* Struct and union fields inherit their *outermost* annotation from the
  struct-typed variable, so each object is laid out contiguously in a
  single region.
* Arrays take the taint of their elements: an object is uniform.
"""

from __future__ import annotations

from ..taint.lattice import PUBLIC, Taint, TaintTerm, TaintVar
from ..taint.solve import Solution

WORD_SIZE = 8
CHAR_SIZE = 1


class Type:
    """Base class for MiniC types.  Subclasses define size/alignment."""

    taint: TaintTerm

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def align(self) -> int:
        raise NotImplementedError

    def with_taint(self, taint: TaintTerm) -> "Type":
        """A copy of this type with a different outermost taint."""
        raise NotImplementedError

    def same_shape(self, other: "Type") -> bool:
        """Structural equality ignoring taint terms."""
        raise NotImplementedError

    @property
    def is_scalar(self) -> bool:
        """True for types that fit in a register (int, char, pointer)."""
        return isinstance(self, (IntType, PointerType))


class VoidType(Type):
    def __init__(self) -> None:
        self.taint = PUBLIC

    @property
    def size(self) -> int:
        return 0

    @property
    def align(self) -> int:
        return 1

    def with_taint(self, taint: TaintTerm) -> "VoidType":
        return self

    def same_shape(self, other: Type) -> bool:
        return isinstance(other, VoidType)

    def __repr__(self) -> str:
        return "void"


class IntType(Type):
    """Integer type; width 8 is ``int``, width 1 is ``char``."""

    def __init__(self, width: int, taint: TaintTerm = PUBLIC):
        assert width in (CHAR_SIZE, WORD_SIZE)
        self.width = width
        self.taint = taint

    @property
    def size(self) -> int:
        return self.width

    @property
    def align(self) -> int:
        return self.width

    def with_taint(self, taint: TaintTerm) -> "IntType":
        return IntType(self.width, taint)

    def same_shape(self, other: Type) -> bool:
        return isinstance(other, IntType) and other.width == self.width

    def __repr__(self) -> str:
        name = "int" if self.width == WORD_SIZE else "char"
        return f"{self.taint!r}:{name}" if self.taint != PUBLIC else name


class PointerType(Type):
    """A pointer.  ``taint`` is the secrecy of the pointer *value*;
    ``pointee.taint`` determines the region the pointer must point into.
    """

    def __init__(self, pointee: Type, taint: TaintTerm = PUBLIC):
        self.pointee = pointee
        self.taint = taint

    @property
    def size(self) -> int:
        return WORD_SIZE

    @property
    def align(self) -> int:
        return WORD_SIZE

    def with_taint(self, taint: TaintTerm) -> "PointerType":
        return PointerType(self.pointee, taint)

    def same_shape(self, other: Type) -> bool:
        return isinstance(other, PointerType) and self.pointee.same_shape(
            other.pointee
        )

    @property
    def is_void_ptr(self) -> bool:
        return isinstance(self.pointee, VoidType)

    def __repr__(self) -> str:
        return f"ptr({self.pointee!r})"


class ArrayType(Type):
    """Fixed-length array.  The element taint is the object taint."""

    def __init__(self, elem: Type, count: int):
        self.elem = elem
        self.count = count

    @property
    def taint(self) -> TaintTerm:  # type: ignore[override]
        return self.elem.taint

    @property
    def size(self) -> int:
        return self.elem.size * self.count

    @property
    def align(self) -> int:
        return self.elem.align

    def with_taint(self, taint: TaintTerm) -> "ArrayType":
        return ArrayType(self.elem.with_taint(taint), self.count)

    def same_shape(self, other: Type) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.count == self.count
            and self.elem.same_shape(other.elem)
        )

    def __repr__(self) -> str:
        return f"{self.elem!r}[{self.count}]"


class StructField:
    __slots__ = ("name", "type", "offset")

    def __init__(self, name: str, type_: Type, offset: int):
        self.name = name
        self.type = type_
        self.offset = offset


class StructType(Type):
    """A struct.  Field storage lives in the region of the struct's own
    (outermost) taint; field *types* keep their declared inner taints
    (e.g. the pointee level of a pointer field), but their outermost
    level is substituted by the variable's taint on member access.
    """

    def __init__(self, name: str, taint: TaintTerm = PUBLIC):
        self.name = name
        self.taint = taint
        self.fields: list[StructField] = []
        self._size = 0
        self._align = 1
        self.complete = False

    def set_fields(self, fields: list[tuple[str, Type]]) -> None:
        offset = 0
        align = 1
        for fname, ftype in fields:
            fa = ftype.align
            offset = (offset + fa - 1) // fa * fa
            self.fields.append(StructField(fname, ftype, offset))
            offset += ftype.size
            align = max(align, fa)
        self._size = (offset + align - 1) // align * align
        self._align = align
        self.complete = True

    def field(self, name: str) -> StructField | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    @property
    def size(self) -> int:
        return self._size

    @property
    def align(self) -> int:
        return self._align

    def with_taint(self, taint: TaintTerm) -> "StructType":
        clone = StructType(self.name, taint)
        clone.fields = self.fields
        clone._size = self._size
        clone._align = self._align
        clone.complete = self.complete
        return clone

    def same_shape(self, other: Type) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __repr__(self) -> str:
        return f"struct {self.name}"


class FuncType(Type):
    """The type of a function (not a first-class value; appears only
    under a PointerType for function pointers)."""

    def __init__(self, ret: Type, params: list[Type], varargs: bool = False):
        self.ret = ret
        self.params = params
        self.varargs = varargs
        self.taint = PUBLIC

    @property
    def size(self) -> int:
        return WORD_SIZE

    @property
    def align(self) -> int:
        return WORD_SIZE

    def with_taint(self, taint: TaintTerm) -> "FuncType":
        return self

    def same_shape(self, other: Type) -> bool:
        if not isinstance(other, FuncType):
            return False
        if len(other.params) != len(self.params) or other.varargs != self.varargs:
            return False
        if not self.ret.same_shape(other.ret):
            return False
        return all(a.same_shape(b) for a, b in zip(self.params, other.params))

    def __repr__(self) -> str:
        args = ", ".join(repr(p) for p in self.params)
        return f"fn({args}) -> {self.ret!r}"


INT = IntType(WORD_SIZE)
CHAR = IntType(CHAR_SIZE)
VOID = VoidType()


def concretize(type_: Type, solution: Solution) -> Type:
    """Substitute the solver's assignment into every taint position."""
    if isinstance(type_, IntType):
        return IntType(type_.width, solution.resolve(type_.taint))
    if isinstance(type_, PointerType):
        return PointerType(
            concretize(type_.pointee, solution), solution.resolve(type_.taint)
        )
    if isinstance(type_, ArrayType):
        return ArrayType(concretize(type_.elem, solution), type_.count)
    if isinstance(type_, StructType):
        return type_.with_taint(solution.resolve(type_.taint))
    if isinstance(type_, FuncType):
        return FuncType(
            concretize(type_.ret, solution),
            [concretize(p, solution) for p in type_.params],
            type_.varargs,
        )
    return type_


def taint_positions(type_: Type) -> list[TaintTerm]:
    """All taint terms appearing in a type, outermost first."""
    if isinstance(type_, PointerType):
        return [type_.taint, *taint_positions(type_.pointee)]
    if isinstance(type_, ArrayType):
        return taint_positions(type_.elem)
    if isinstance(type_, FuncType):
        terms = taint_positions(type_.ret)
        for p in type_.params:
            terms.extend(taint_positions(p))
        return terms
    return [type_.taint]

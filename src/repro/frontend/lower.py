"""Lowering from the checked MiniC AST to taint-annotated IR.

By this point qualifier inference has produced concrete taints on every
type, so the lowering simply copies them onto virtual registers, frame
slots, and memory references.  Aggregates (arrays, structs) live in
frame slots; scalars also start in slots and are promoted to registers
by the ``promote_slots`` optimization pass.
"""

from __future__ import annotations

import hashlib

from ..errors import CodegenError
from ..ir.core import (
    Bin,
    Block,
    Branch,
    Call,
    CallIndirect,
    Const,
    Copy,
    ExternSig,
    FuncAddr,
    IRFunction,
    IRGlobal,
    IRModule,
    Jump,
    Lea,
    Load,
    MemRef,
    Ret,
    StackSlot,
    Store,
    SwitchBr,
    TlsBaseAddr,
    Un,
    VarArgAddr,
    VReg,
)
from ..minic import ast_nodes as ast
from ..minic.sema import CheckedProgram, FunctionInfo, LocalSymbol
from ..minic.types import (
    ArrayType,
    FuncType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
)
from ..taint.lattice import PRIVATE, PUBLIC, Taint

_BINOP_MAP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
    "==": "eq",
    "!=": "ne",
    "<": "lt",
    "<=": "le",
    ">": "gt",
    ">=": "ge",
}


def _value_size(type_: Type) -> int:
    if isinstance(type_, IntType):
        return type_.width
    return 8


class FunctionLowerer:
    def __init__(
        self,
        module: IRModule,
        checked: CheckedProgram,
        info: FunctionInfo,
        string_names: dict[bytes, str],
    ):
        self._module = module
        self._checked = checked
        self._info = info
        self._strings = string_names
        self._func = IRFunction(info.name, info.type, info.param_names)
        self._slots: dict[int, StackSlot] = {}  # local uid -> slot
        self._block: Block = self._func.new_block("entry")
        self._break_stack: list[str] = []
        self._continue_stack: list[str] = []

    # -- plumbing -----------------------------------------------------

    def _emit(self, instr) -> None:
        if self._block.instrs and self._block.terminator.is_terminator:
            # Unreachable code after return/break; park it in a fresh
            # block that simplifycfg will delete.
            self._block = self._func.new_block("dead")
        self._block.instrs.append(instr)

    def _terminate(self, instr) -> None:
        self._emit(instr)

    def _switch_to(self, block: Block) -> None:
        if not self._block.instrs or not self._block.terminator.is_terminator:
            self._terminate(Jump(block.name))
        self._block = block

    def _temp(self, taint: Taint, hint: str = "t") -> VReg:
        return self._func.new_vreg(taint, hint)

    def _as_vreg(self, operand, taint: Taint = PUBLIC) -> VReg:
        if isinstance(operand, VReg):
            return operand
        vreg = self._temp(taint, "imm")
        self._emit(Const(vreg, operand))
        return vreg

    def _taint_of(self, node: ast.Expr) -> Taint:
        taint = node.type.taint
        assert isinstance(taint, Taint), f"unsolved taint on {node!r}"
        return taint

    # -- top level ------------------------------------------------------

    def lower(self) -> IRFunction:
        info = self._info
        for symbol in info.locals:
            slot = self._func.new_slot(
                symbol.name,
                max(symbol.type.size, 1),
                symbol.type.align,
                _slot_taint(symbol.type),
                symbol.address_taken or not symbol.type.is_scalar,
            )
            self._slots[symbol.uid] = slot
        # Parameters arrive in virtual registers and are spilled to
        # their slots (promotion un-spills the scalar ones).
        for index, symbol in enumerate(s for s in info.locals if s.is_param):
            taint = _slot_taint(symbol.type)
            vreg = self._func.new_vreg(taint, f"arg{index}")
            self._func.param_vregs.append(vreg)
            slot = self._slots[symbol.uid]
            self._emit(
                Store(
                    MemRef(region=taint, slot=slot),
                    vreg,
                    _value_size(symbol.type),
                )
            )
        assert info.body is not None
        self._lower_block(info.body)
        if not self._block.instrs or not self._block.terminator.is_terminator:
            if isinstance(info.type.ret, VoidType):
                self._terminate(Ret(None))
            else:
                self._terminate(Ret(0))
        return self._func

    # -- statements -------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.stmts:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            self._lower_local_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.Return):
            value = None
            if stmt.value is not None:
                value = self._lower_expr(stmt.value)
            self._terminate(Ret(value))
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._break_stack:
                raise CodegenError("break outside loop")
            self._terminate(Jump(self._break_stack[-1]))
        elif isinstance(stmt, ast.Continue):
            if not self._continue_stack:
                raise CodegenError("continue outside loop")
            self._terminate(Jump(self._continue_stack[-1]))
        else:  # pragma: no cover
            raise CodegenError(f"unknown stmt {type(stmt).__name__}")

    def _lower_local_decl(self, stmt: ast.LocalDecl) -> None:
        if stmt.init is None:
            return
        symbol = stmt.symbol
        slot = self._slots[symbol.uid]
        value = self._lower_expr(stmt.init)
        self._emit(
            Store(
                MemRef(region=slot.taint, slot=slot),
                value,
                _value_size(symbol.type),
            )
        )

    def _lower_cond_branch(self, cond: ast.Expr, true_bb: str, false_bb: str):
        value = self._lower_expr(cond)
        if isinstance(value, int):
            self._terminate(Jump(true_bb if value != 0 else false_bb))
            return
        self._terminate(Branch(value, true_bb, false_bb))

    def _lower_if(self, stmt: ast.If) -> None:
        then_bb = self._func.new_block("then")
        end_bb = self._func.new_block("endif")
        else_bb = self._func.new_block("else") if stmt.els else end_bb
        self._lower_cond_branch(stmt.cond, then_bb.name, else_bb.name)
        self._block = then_bb
        self._lower_stmt(stmt.then)
        self._switch_to(end_bb) if stmt.els is None else None
        if stmt.els is not None:
            if not self._block.instrs or not self._block.terminator.is_terminator:
                self._terminate(Jump(end_bb.name))
            self._block = else_bb
            self._lower_stmt(stmt.els)
            self._switch_to(end_bb)

    def _lower_while(self, stmt: ast.While) -> None:
        head = self._func.new_block("while.head")
        body = self._func.new_block("while.body")
        end = self._func.new_block("while.end")
        self._switch_to(head)
        self._lower_cond_branch(stmt.cond, body.name, end.name)
        self._block = body
        self._break_stack.append(end.name)
        self._continue_stack.append(head.name)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._switch_to_target(head.name)
        self._block = end

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = self._func.new_block("for.head")
        body = self._func.new_block("for.body")
        step = self._func.new_block("for.step")
        end = self._func.new_block("for.end")
        self._switch_to(head)
        if stmt.cond is not None:
            self._lower_cond_branch(stmt.cond, body.name, end.name)
        else:
            self._terminate(Jump(body.name))
        self._block = body
        self._break_stack.append(end.name)
        self._continue_stack.append(step.name)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._switch_to_target(step.name)
        self._block = step
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self._terminate(Jump(head.name))
        self._block = end

    def _lower_switch(self, stmt: ast.Switch) -> None:
        cond = self._as_vreg(self._lower_expr(stmt.cond))
        end = self._func.new_block("sw.end")
        case_blocks = [
            self._func.new_block(f"sw.case{i}")
            for i in range(len(stmt.cases))
        ]
        if stmt.default_stmts is not None:
            default_block = self._func.new_block("sw.default")
        else:
            default_block = end
        table = tuple(
            (case.value, blk.name)
            for case, blk in zip(stmt.cases, case_blocks)
        )
        self._terminate(SwitchBr(cond, table, default_block.name))
        # `break` exits the switch (C semantics); `continue` still
        # targets the enclosing loop, so only the break stack grows.
        self._break_stack.append(end.name)
        for i, case in enumerate(stmt.cases):
            self._block = case_blocks[i]
            for inner in case.stmts:
                self._lower_stmt(inner)
            fall = (
                case_blocks[i + 1].name
                if i + 1 < len(case_blocks)
                else default_block.name
            )
            self._switch_to_target(fall)
        if stmt.default_stmts is not None:
            self._block = default_block
            for inner in stmt.default_stmts:
                self._lower_stmt(inner)
            self._switch_to_target(end.name)
        self._break_stack.pop()
        self._block = end

    def _switch_to_target(self, name: str) -> None:
        if not self._block.instrs or not self._block.terminator.is_terminator:
            self._terminate(Jump(name))

    # -- lvalues ----------------------------------------------------------

    def _lower_lvalue(self, node: ast.Expr) -> tuple[MemRef, int]:
        """Return (memref, access size in bytes) for an lvalue node."""
        if isinstance(node, ast.Ident):
            kind, info = node.binding
            if kind == "local":
                slot = self._slots[info.uid]
                return (
                    MemRef(region=slot.taint, slot=slot),
                    _value_size(info.type),
                )
            if kind == "global":
                return (
                    MemRef(
                        region=_slot_taint(info.type), global_name=info.name
                    ),
                    _value_size(info.type),
                )
            raise CodegenError("function used as lvalue")
        if isinstance(node, ast.Unary) and node.op == "*":
            addr = self._as_vreg(self._lower_expr(node.operand))
            return (
                MemRef(region=self._taint_of(node), base=addr),
                _value_size(node.type),
            )
        if isinstance(node, ast.Index):
            return self._lower_index_lvalue(node)
        if isinstance(node, ast.Member):
            return self._lower_member_lvalue(node)
        raise CodegenError(f"not an lvalue: {type(node).__name__}")

    def _storage_memref(self, node: ast.Expr) -> MemRef:
        """MemRef of an expression's *storage* (for decayed arrays and
        struct bases): like _lower_lvalue but ignores value size."""
        mem, _size = self._lower_lvalue(node)
        return mem

    def _lower_index_lvalue(self, node: ast.Index) -> tuple[MemRef, int]:
        elem_size = _value_size(node.type)
        full_elem = node.type
        # The element's full storage size (structs differ from value size).
        storage = _elem_storage_size(node)
        region = self._taint_of(node)
        index = self._lower_expr(node.index)
        base = node.base
        if getattr(base, "decayed_array", False) and isinstance(
            base, (ast.Ident, ast.Member)
        ):
            mem = self._storage_memref(base)
            return self._apply_index(mem, index, storage, region), elem_size
        ptr = self._as_vreg(self._lower_expr(base))
        mem = MemRef(region=region, base=ptr)
        return self._apply_index(mem, index, storage, region), elem_size

    def _apply_index(
        self, mem: MemRef, index, elem_size: int, region: Taint
    ) -> MemRef:
        if isinstance(index, int):
            return MemRef(region, mem.base, mem.slot, mem.global_name,
                          mem.index, mem.scale, mem.disp + index * elem_size)
        if mem.index is not None:
            # Two index registers: fold the old one into the base.
            folded = self._temp(PUBLIC, "addr")
            self._emit(Lea(folded, MemRef(
                region, mem.base, mem.slot, mem.global_name, mem.index,
                mem.scale, mem.disp,
            )))
            mem = MemRef(region, base=folded)
        scale = elem_size
        if elem_size not in (1, 2, 4, 8):
            scaled = self._temp(index.taint, "scaled")
            self._emit(Bin("mul", scaled, index, elem_size))
            index, scale = scaled, 1
        return MemRef(region, mem.base, mem.slot, mem.global_name, index,
                      scale, mem.disp)

    def _lower_member_lvalue(self, node: ast.Member) -> tuple[MemRef, int]:
        struct, fld = self._member_field(node)
        size = _value_size(node.type)
        region = self._taint_of(node)
        if node.arrow:
            ptr = self._as_vreg(self._lower_expr(node.base))
            return MemRef(region=region, base=ptr, disp=fld.offset), size
        mem = self._storage_memref(node.base)
        mem = MemRef(
            region=region,
            base=mem.base,
            slot=mem.slot,
            global_name=mem.global_name,
            index=mem.index,
            scale=mem.scale,
            disp=mem.disp + fld.offset,
        )
        return mem, size

    def _member_field(self, node: ast.Member):
        base_type = node.base.type
        if node.arrow:
            assert isinstance(base_type, PointerType)
            struct = base_type.pointee
        else:
            struct = base_type
        assert isinstance(struct, StructType)
        fld = struct.field(node.name)
        assert fld is not None
        return struct, fld

    # -- expressions ---------------------------------------------------------

    def _lower_expr(self, node: ast.Expr):
        """Lower an expression to an operand (VReg or int immediate)."""
        if getattr(node, "decayed_array", False):
            mem = self._storage_memref_decayed(node)
            dst = self._temp(PUBLIC, "decay")
            self._emit(Lea(dst, mem))
            return dst
        return self._lower_expr_value(node)

    def _storage_memref_decayed(self, node: ast.Expr) -> MemRef:
        """MemRef of the storage behind a decayed-array expression."""
        if isinstance(node, ast.Ident):
            kind, info = node.binding
            if kind == "local":
                slot = self._slots[info.uid]
                return MemRef(region=slot.taint, slot=slot)
            if kind == "global":
                return MemRef(
                    region=_slot_taint(info.type), global_name=info.name
                )
            raise CodegenError("bad decayed ident")
        if isinstance(node, ast.Member):
            mem, _ = self._lower_member_lvalue_storage(node)
            return mem
        if isinstance(node, ast.Index):
            mem, _ = self._lower_index_lvalue(node)
            return mem
        if isinstance(node, ast.Unary) and node.op == "*":
            mem, _ = self._lower_lvalue(node)
            return mem
        raise CodegenError(
            f"unsupported decayed array expr {type(node).__name__}"
        )

    def _lower_member_lvalue_storage(self, node: ast.Member):
        # Same as member lvalue but size is the aggregate size.
        return self._lower_member_lvalue(node)

    def _lower_expr_value(self, node: ast.Expr):
        if isinstance(node, ast.IntLit):
            return node.value
        if isinstance(node, ast.SizeofType):
            return _sizeof_from_sema(node)
        if isinstance(node, ast.StringLit):
            name = self._strings[node.value + b"\x00"]
            dst = self._temp(PUBLIC, "str")
            self._emit(Lea(dst, MemRef(region=PUBLIC, global_name=name)))
            return dst
        if isinstance(node, ast.Ident):
            return self._lower_ident_value(node)
        if isinstance(node, ast.Unary):
            return self._lower_unary(node)
        if isinstance(node, ast.Binary):
            return self._lower_binary(node)
        if isinstance(node, ast.Assign):
            return self._lower_assign(node)
        if isinstance(node, ast.IncDec):
            return self._lower_incdec(node)
        if isinstance(node, ast.Call):
            return self._lower_call(node)
        if isinstance(node, (ast.Index, ast.Member)):
            mem, size = self._lower_lvalue(node)
            dst = self._temp(self._taint_of(node), "ld")
            self._emit(Load(dst, mem, size))
            return dst
        if isinstance(node, ast.Cast):
            return self._lower_cast(node)
        if isinstance(node, ast.TlsBase):
            dst = self._temp(PUBLIC, "tls")
            self._emit(TlsBaseAddr(dst))
            return dst
        if isinstance(node, ast.VarArg):
            index = self._lower_expr(node.index)
            addr = self._temp(PUBLIC, "va")
            self._emit(VarArgAddr(addr, index))
            dst = self._temp(PUBLIC, "vaval")
            self._emit(Load(dst, MemRef(region=PUBLIC, base=addr), 8))
            return dst
        raise CodegenError(f"unknown expr {type(node).__name__}")

    def _lower_ident_value(self, node: ast.Ident):
        kind, info = node.binding
        if kind == "func":
            dst = self._temp(PUBLIC, "fn")
            self._emit(FuncAddr(dst, info.name))
            return dst
        mem, size = self._lower_lvalue(node)
        dst = self._temp(self._taint_of(node), node.name)
        self._emit(Load(dst, mem, size))
        return dst

    def _lower_unary(self, node: ast.Unary):
        if node.op == "&":
            if isinstance(node.operand, ast.Ident) and node.operand.binding[0] == "func":
                dst = self._temp(PUBLIC, "fn")
                self._emit(FuncAddr(dst, node.operand.binding[1].name))
                return dst
            if getattr(node.operand, "decayed_array", False):
                mem = self._storage_memref_decayed(node.operand)
            else:
                mem, _ = self._lower_lvalue(node.operand)
            dst = self._temp(self._taint_of(node), "addr")
            self._emit(Lea(dst, mem))
            return dst
        if node.op == "*":
            mem, size = self._lower_lvalue(node)
            dst = self._temp(self._taint_of(node), "deref")
            self._emit(Load(dst, mem, size))
            return dst
        value = self._lower_expr(node.operand)
        if node.op == "-":
            if isinstance(value, int):
                return -value
            dst = self._temp(self._taint_of(node), "neg")
            self._emit(Un("neg", dst, value))
            return dst
        if node.op == "~":
            if isinstance(value, int):
                return ~value
            dst = self._temp(self._taint_of(node), "not")
            self._emit(Un("not", dst, value))
            return dst
        if node.op == "!":
            if isinstance(value, int):
                return 0 if value else 1
            dst = self._temp(self._taint_of(node), "lnot")
            self._emit(Bin("eq", dst, value, 0))
            return dst
        raise CodegenError(f"unknown unary {node.op}")

    def _lower_binary(self, node: ast.Binary):
        if node.op in ("&&", "||"):
            return self._lower_logical(node)
        left = self._lower_expr(node.left)
        right = self._lower_expr(node.right)
        op = _BINOP_MAP[node.op]
        # Pointer arithmetic scaling.
        lt, rt = node.left.type, node.right.type
        if node.op in ("+", "-") and isinstance(lt, PointerType):
            if isinstance(rt, IntType):
                right = self._scale(right, lt.pointee.size)
            elif node.op == "-" and isinstance(rt, PointerType):
                diff = self._temp(self._taint_of(node), "pdiff")
                self._emit(Bin("sub", diff, left, right))
                if lt.pointee.size > 1:
                    out = self._temp(self._taint_of(node), "pdiv")
                    self._emit(Bin("div", out, diff, lt.pointee.size))
                    return out
                return diff
        elif node.op == "+" and isinstance(rt, PointerType):
            left = self._scale(left, rt.pointee.size)
        if isinstance(left, int) and isinstance(right, int):
            folded = _const_fold(op, left, right)
            if folded is not None:
                return folded
        dst = self._temp(self._taint_of(node), "bin")
        self._emit(Bin(op, dst, left, right))
        return dst

    def _scale(self, operand, size: int):
        if size == 1:
            return operand
        if isinstance(operand, int):
            return operand * size
        dst = self._temp(operand.taint, "scale")
        self._emit(Bin("mul", dst, operand, size))
        return dst

    def _lower_logical(self, node: ast.Binary):
        is_and = node.op == "&&"
        result = self._temp(PUBLIC, "logic")
        rhs_bb = self._func.new_block("logic.rhs")
        short_bb = self._func.new_block("logic.short")
        end_bb = self._func.new_block("logic.end")
        left = self._lower_expr(node.left)
        left = self._as_vreg(left)
        if is_and:
            self._terminate(Branch(left, rhs_bb.name, short_bb.name))
        else:
            self._terminate(Branch(left, short_bb.name, rhs_bb.name))
        self._block = rhs_bb
        right = self._as_vreg(self._lower_expr(node.right))
        self._emit(Bin("ne", result, right, 0))
        self._terminate(Jump(end_bb.name))
        self._block = short_bb
        self._emit(Const(result, 0 if is_and else 1))
        self._terminate(Jump(end_bb.name))
        self._block = end_bb
        return result

    def _lower_assign(self, node: ast.Assign):
        if node.op is None:
            value = self._lower_expr(node.value)
            mem, size = self._lower_lvalue(node.target)
            self._emit(Store(mem, value, size))
            return value
        mem, size = self._lower_lvalue(node.target)
        old = self._temp(self._taint_of(node.target), "cload")
        self._emit(Load(old, mem, size))
        value = self._lower_expr(node.value)
        ttype = node.target.type
        if (
            node.op in ("+", "-")
            and isinstance(ttype, PointerType)
        ):
            value = self._scale(value, ttype.pointee.size)
        dst = self._temp(self._taint_of(node.target), "cbin")
        self._emit(Bin(_BINOP_MAP[node.op], dst, old, value))
        self._emit(Store(mem, dst, size))
        return dst

    def _lower_incdec(self, node: ast.IncDec):
        mem, size = self._lower_lvalue(node.target)
        old = self._temp(self._taint_of(node.target), "inc")
        self._emit(Load(old, mem, size))
        delta = node.delta
        ttype = node.target.type
        if isinstance(ttype, PointerType):
            delta *= ttype.pointee.size
        dst = self._temp(self._taint_of(node.target), "incv")
        self._emit(Bin("add", dst, old, delta))
        self._emit(Store(mem, dst, size))
        return dst

    def _lower_call(self, node: ast.Call):
        callee_type = node.callee.type
        assert isinstance(callee_type, PointerType)
        ftype = callee_type.pointee
        assert isinstance(ftype, FuncType)
        n_fixed = len(ftype.params)
        args = [self._lower_expr(arg) for arg in node.args]
        arg_taints = [_outer_taint(p) for p in ftype.params]
        ret_taint = (
            PUBLIC
            if isinstance(ftype.ret, VoidType)
            else _outer_taint(ftype.ret)
        )
        dst = None
        if not isinstance(ftype.ret, VoidType):
            dst = self._temp(ret_taint, "ret")
        if isinstance(node.callee, ast.Ident) and node.callee.binding[0] == "func":
            self._emit(
                Call(dst, node.callee.binding[1].name, tuple(args),
                     tuple(arg_taints), ret_taint, n_fixed)
            )
        else:
            target = self._as_vreg(self._lower_expr(node.callee))
            self._emit(
                CallIndirect(dst, target, tuple(args), tuple(arg_taints),
                             ret_taint, n_fixed)
            )
        return dst if dst is not None else 0

    def _lower_cast(self, node: ast.Cast):
        value = self._lower_expr(node.operand)
        to = node.type
        src_type = node.operand.type
        if (
            isinstance(to, IntType)
            and to.width == 1
            and not (isinstance(src_type, IntType) and src_type.width == 1)
        ):
            if isinstance(value, int):
                return value & 0xFF
            dst = self._temp(self._taint_of(node), "trunc")
            self._emit(Bin("and", dst, value, 0xFF))
            return dst
        return value


def _const_fold(op: str, a: int, b: int) -> int | None:
    from ..arith import eval_bin
    from ..errors import MachineFault

    try:
        return eval_bin(op, a, b)
    except MachineFault:
        return None


def _outer_taint(type_: Type) -> Taint:
    taint = type_.taint
    assert isinstance(taint, Taint)
    return taint


def _slot_taint(type_: Type) -> Taint:
    taint = type_.taint
    assert isinstance(taint, Taint), f"unsolved slot taint for {type_!r}"
    return taint


def _sizeof_from_sema(node: ast.SizeofType) -> int:
    # Sema validated the type; recompute its size cheaply via the node's
    # own resolved .type? SizeofType's .type is int; we re-resolve from
    # the recorded width at parse level is not available, so sema stores
    # the computed size on the node.
    return getattr(node, "computed_size")


def _elem_storage_size(node: ast.Index) -> int:
    base_type = node.base.type
    if isinstance(base_type, PointerType):
        return max(base_type.pointee.size, 1)
    if isinstance(base_type, ArrayType):  # pragma: no cover
        return max(base_type.elem.size, 1)
    raise CodegenError("index base is not a pointer")


def lower_program(
    checked: CheckedProgram,
    module_name: str = "U",
    allow_undefined: bool = False,
) -> IRModule:
    """Lower a checked program to an IR module.

    ``allow_undefined`` enables separate compilation: untrusted
    functions that are declared but not defined become *cross-object
    externals* (``module.u_externs``) for the multi-object linker to
    resolve against another unit, instead of a hard error.
    """
    module = IRModule(module_name)
    string_names: dict[bytes, str] = {}
    for data in dict.fromkeys(checked.strings):
        # Content-addressed names: identical literals in separately
        # compiled units deduplicate at link time instead of colliding.
        name = f".str.{hashlib.blake2b(data, digest_size=8).hexdigest()}"
        string_names[data] = name
        module.globals[name] = IRGlobal(
            name=name,
            size=len(data),
            align=1,
            taint=PUBLIC,
            init_bytes=data,
            read_only=True,
        )
    for ginfo in checked.globals.values():
        init: bytes | None = None
        if ginfo.init_string is not None:
            if not isinstance(ginfo.type, ArrayType):
                raise CodegenError(
                    f"global {ginfo.name!r}: string initializers are only "
                    "supported for char arrays"
                )
            data = ginfo.init_string
            if len(data) > ginfo.type.size:
                raise CodegenError(f"global {ginfo.name!r}: string too long")
            init = data + b"\x00" * (ginfo.type.size - len(data))
        elif ginfo.init_int is not None:
            width = _value_size(ginfo.type)
            init = (ginfo.init_int % (1 << (8 * width))).to_bytes(
                width, "little"
            )
        module.globals[ginfo.name] = IRGlobal(
            name=ginfo.name,
            size=max(ginfo.type.size, 1),
            align=ginfo.type.align,
            taint=_slot_taint(ginfo.type),
            init_bytes=init,
        )
    for info in checked.functions.values():
        if info.trusted:
            module.externs[info.name] = ExternSig(
                name=info.name,
                arg_taints=[_outer_taint(p) for p in info.type.params],
                ret_taint=(
                    PUBLIC
                    if isinstance(info.type.ret, VoidType)
                    else _outer_taint(info.type.ret)
                ),
            )
        elif info.body is None:
            if not allow_undefined:
                raise CodegenError(
                    f"function {info.name!r} declared but never defined "
                    "(only 'extern trusted' imports may lack bodies; "
                    "compile with allow_undefined for separate units)"
                )
            module.u_externs[info.name] = ExternSig(
                name=info.name,
                arg_taints=[_outer_taint(p) for p in info.type.params],
                ret_taint=(
                    PUBLIC
                    if isinstance(info.type.ret, VoidType)
                    else _outer_taint(info.type.ret)
                ),
            )
    for info in checked.functions.values():
        if info.body is None:
            continue
        lowerer = FunctionLowerer(module, checked, info, string_names)
        func = lowerer.lower()
        # Provenance metadata for the certified opt pipeline: a digest
        # of the as-lowered body that witnesses quote and the witness
        # checker verifies (repro.opt.witness).
        digest = hashlib.blake2b(
            repr(func).encode(), digest_size=8
        ).hexdigest()
        func.origin = f"{module_name}:{func.name}:{digest}"
        module.add_function(func)
    return module

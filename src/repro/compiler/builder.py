"""Ergonomic construction API for IR modules.

Workload programs (:mod:`repro.workloads`) are written against this builder.
It intentionally produces *front-end style* (``-O0``) code: local variables
live in ``alloca`` slots accessed through loads and stores, loops carry their
induction variable in memory, and no cleanups are applied.  That leaves real
work for ``mem2reg``/``sroa``/``licm``/… so that phase ordering actually
matters, exactly as with clang-emitted IR.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.compiler.ir import (
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    PTR,
    VOID,
    Block,
    Const,
    Function,
    GlobalVar,
    Instr,
    Module,
    Operand,
    Type,
)

__all__ = ["FunctionBuilder", "c"]


def c(value: Union[int, float], ty: Type = I32) -> Const:
    """Shorthand constant constructor."""
    return Const(value, ty)


class FunctionBuilder:
    """Builds one function instruction-by-instruction.

    The builder tracks a *current block*; emission methods append to it and
    return the result register (or ``None`` for void instructions).
    """

    def __init__(
        self,
        module: Module,
        name: str,
        params: Sequence[Tuple[str, Type]] = (),
        ret_ty: Type = VOID,
    ) -> None:
        self.module = module
        self.fn = Function(name, params, ret_ty)
        module.add_function(self.fn)
        self._cur: Optional[Block] = None
        self.block("entry")

    # -- block management --------------------------------------------------
    def block(self, name: str) -> Block:
        """Create a new block and make it current."""
        blk = self.fn.add_block(name)
        self._cur = blk
        return blk

    @property
    def current(self) -> Block:
        assert self._cur is not None
        return self._cur

    def emit(self, instr: Instr) -> Optional[str]:
        """Append a prebuilt instruction to the current block."""
        self.current.instrs.append(instr)
        return instr.res

    def _emit(self, op: str, ty: Type, args: Sequence[Operand], hint: str = "t", **attrs) -> str:
        res = self.fn.fresh(hint)
        self.emit(Instr(op, res, ty, args, **attrs))
        return res

    # -- memory -------------------------------------------------------------
    def alloca(self, elem_ty: Type, count: int = 1, hint: str = "slot") -> str:
        """Emit a stack allocation; returns the pointer register."""
        return self._emit("alloca", PTR, (), hint=hint, elem_ty=elem_ty, count=count)

    def load(self, ty: Type, ptr: Operand) -> str:
        """Emit a load of ``ty`` from ``ptr``."""
        return self._emit("load", ty, (ptr,))

    def store(self, val: Operand, ptr: Operand) -> None:
        """Emit a store of ``val`` to ``ptr``."""
        self.emit(Instr("store", None, VOID, (val, ptr)))

    def gep(self, ptr: Operand, index: Operand, elem_ty: Type) -> str:
        """Emit pointer arithmetic: ``ptr + index * sizeof(elem_ty)``."""
        return self._emit("gep", PTR, (ptr, index), elem_ty=elem_ty)

    def gaddr(self, name: str) -> str:
        """Address of a module global."""
        return self._emit("gaddr", PTR, (), name=name)

    # -- arithmetic ----------------------------------------------------------
    def binop(self, op: str, a: Operand, b: Operand, ty: Type) -> str:
        """Emit a binary operation ``op`` of type ``ty``."""
        return self._emit(op, ty, (a, b))

    def add(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit an integer ``add``."""
        return self.binop("add", a, b, ty)

    def sub(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit an integer ``sub``."""
        return self.binop("sub", a, b, ty)

    def mul(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit an integer ``mul``."""
        return self.binop("mul", a, b, ty)

    def sdiv(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit a signed division."""
        return self.binop("sdiv", a, b, ty)

    def srem(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit a signed remainder."""
        return self.binop("srem", a, b, ty)

    def and_(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit a bitwise ``and``."""
        return self.binop("and", a, b, ty)

    def or_(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit a bitwise ``or``."""
        return self.binop("or", a, b, ty)

    def xor(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit a bitwise ``xor``."""
        return self.binop("xor", a, b, ty)

    def shl(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit a left shift."""
        return self.binop("shl", a, b, ty)

    def ashr(self, a: Operand, b: Operand, ty: Type = I32) -> str:
        """Emit an arithmetic right shift."""
        return self.binop("ashr", a, b, ty)

    def fadd(self, a: Operand, b: Operand, ty: Type = F64) -> str:
        """Emit a floating add."""
        return self.binop("fadd", a, b, ty)

    def fsub(self, a: Operand, b: Operand, ty: Type = F64) -> str:
        """Emit a floating subtract."""
        return self.binop("fsub", a, b, ty)

    def fmul(self, a: Operand, b: Operand, ty: Type = F64) -> str:
        """Emit a floating multiply."""
        return self.binop("fmul", a, b, ty)

    def fdiv(self, a: Operand, b: Operand, ty: Type = F64) -> str:
        """Emit a floating division."""
        return self.binop("fdiv", a, b, ty)

    # -- casts ----------------------------------------------------------------
    def sext(self, a: Operand, ty: Type) -> str:
        """Emit a sign extension to ``ty``."""
        return self._emit("sext", ty, (a,))

    def zext(self, a: Operand, ty: Type) -> str:
        """Emit a zero extension to ``ty``."""
        return self._emit("zext", ty, (a,))

    def trunc(self, a: Operand, ty: Type) -> str:
        """Emit an integer truncation to ``ty``."""
        return self._emit("trunc", ty, (a,))

    def sitofp(self, a: Operand, ty: Type = F64) -> str:
        """Emit a signed int -> float conversion."""
        return self._emit("sitofp", ty, (a,))

    def fptosi(self, a: Operand, ty: Type = I32) -> str:
        """Emit a float -> signed int conversion."""
        return self._emit("fptosi", ty, (a,))

    # -- comparison / select ---------------------------------------------------
    def icmp(self, pred: str, a: Operand, b: Operand) -> str:
        """Emit an integer comparison with predicate ``pred``."""
        return self._emit("icmp", I1, (a, b), pred=pred)

    def fcmp(self, pred: str, a: Operand, b: Operand) -> str:
        """Emit a float comparison with predicate ``pred``."""
        return self._emit("fcmp", I1, (a, b), pred=pred)

    def select(self, cond: Operand, a: Operand, b: Operand, ty: Type) -> str:
        """Emit a ``cond ? a : b`` select."""
        return self._emit("select", ty, (cond, a, b))

    # -- control flow ------------------------------------------------------------
    def br(self, cond: Operand, then_blk: str, else_blk: str) -> None:
        """Terminate the block with a conditional branch."""
        self.emit(Instr("br", None, VOID, (cond,), targets=(then_blk, else_blk)))

    def jmp(self, target: str) -> None:
        """Terminate the block with an unconditional jump."""
        self.emit(Instr("jmp", None, VOID, (), target=target))

    def ret(self, val: Optional[Operand] = None) -> None:
        """Terminate the block with a return."""
        args = (val,) if val is not None else ()
        self.emit(Instr("ret", None, VOID, args))

    def phi(self, ty: Type, incoming: List[Tuple[str, Operand]]) -> str:
        """Emit a phi node with the given incoming edges."""
        return self._emit("phi", ty, (), incoming=list(incoming))

    def call(self, callee: str, args: Sequence[Operand], ret_ty: Type = VOID) -> Optional[str]:
        """Emit a direct call; returns the result register or ``None``."""
        if ret_ty.kind == "void":
            self.emit(Instr("call", None, VOID, args, callee=callee))
            return None
        return self._emit("call", ret_ty, args, callee=callee)

    def output(self, val: Operand) -> None:
        """Append ``val`` to the program's observable output stream."""
        self.emit(Instr("output", None, VOID, (val,)))

    # -- structured helpers -------------------------------------------------------
    def counted_loop(
        self,
        start: Operand,
        end: Operand,
        body: Callable[["FunctionBuilder", str], None],
        step: int = 1,
        index_ty: Type = I32,
        tag: str = "loop",
    ) -> None:
        """Emit a front-end style counted loop ``for (i = start; i < end; i += step)``.

        The induction variable is kept in an ``alloca`` slot (as clang -O0
        would), so ``mem2reg`` has to run before any loop pass can reason
        about the loop.  ``body`` receives the builder and the register
        holding the current index (freshly loaded each iteration).  The
        builder is left positioned in the loop's exit block.
        """
        i_slot = self.alloca(index_ty, hint=f"{tag}.i")
        self.store(start, i_slot)
        header = self.fn.fresh_block_name(f"{tag}.header")
        body_bb = self.fn.fresh_block_name(f"{tag}.body")
        latch = self.fn.fresh_block_name(f"{tag}.latch")
        exit_bb = self.fn.fresh_block_name(f"{tag}.exit")
        self.jmp(header)

        self.block(header)
        i_val = self.load(index_ty, i_slot)
        cond = self.icmp("slt", i_val, end)
        self.br(cond, body_bb, exit_bb)

        self.block(body_bb)
        i_cur = self.load(index_ty, i_slot)
        body(self, i_cur)
        if self.current.terminator is None:
            self.jmp(latch)

        self.block(latch)
        i_next = self.add(self.load(index_ty, i_slot), Const(step, index_ty), index_ty)
        self.store(i_next, i_slot)
        self.jmp(header)

        self.block(exit_bb)

    def if_then(
        self,
        cond: Operand,
        then_body: Callable[["FunctionBuilder"], None],
        else_body: Optional[Callable[["FunctionBuilder"], None]] = None,
        tag: str = "if",
    ) -> None:
        """Emit ``if (cond) { then } [else { else }]``; continues in the merge block."""
        then_bb = self.fn.fresh_block_name(f"{tag}.then")
        merge_bb = self.fn.fresh_block_name(f"{tag}.end")
        else_bb = self.fn.fresh_block_name(f"{tag}.else") if else_body else merge_bb
        self.br(cond, then_bb, else_bb)

        self.block(then_bb)
        then_body(self)
        if self.current.terminator is None:
            self.jmp(merge_bb)

        if else_body is not None:
            self.block(else_bb)
            else_body(self)
            if self.current.terminator is None:
                self.jmp(merge_bb)

        self.block(merge_bb)

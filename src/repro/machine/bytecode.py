"""Bytecode measurement engine: flat register VM for the mini-IR.

The tree-walking :mod:`repro.machine.interp` stays on as the differential
oracle, but after the PR 5 surrogate overhaul it became the dominant cost of
every measurement.  This module compiles a :class:`~repro.compiler.ir.Module`
once into a flat, register-based bytecode and executes it with a dispatch
loop, producing **bit-identical** :class:`ExecutionResult`s — the same
``output_signature()``, ``block_counts`` and ``steps`` — as the tree-walker,
including :class:`InterpError` / :class:`FuelExhausted` parity.

Compilation strategy
--------------------
* **Register file.**  Every SSA name gets a small-integer register slot;
  constants are pooled into a read-only prefix of the register file (keyed by
  ``(type, python-type, value, float sign)`` so ``0``, ``0.0`` and ``-0.0``
  stay distinct), so the VM never touches a dict for operands.
* **Pre-decoded operands.**  Each instruction becomes one tuple
  ``(opcode, ...fields)`` with operand registers, wrap parameters (mask /
  sign threshold / period) and element sizes resolved at compile time.
* **Resolved offsets.**  Branch targets are absolute positions in the flat
  code list; ``phi`` nodes are lowered onto the incoming edges as parallel
  copy "trampolines" (read all sources, then write all destinations), so the
  hot loop has no phi scanning and no prev-block bookkeeping.
* **Segment fuel accounting.**  The tree-walker charges one fuel step per
  executed instruction.  The VM charges whole call-free *segments* at the
  block (or post-call) header: the cumulative step count agrees with the
  tree-walker at every segment boundary, and when a header detects that the
  budget would be exceeded *within* the segment it falls back to a "careful"
  replay that executes the remaining ``fuel - steps`` instructions one by one
  and then raises :class:`FuelExhausted` — reproducing exactly which semantic
  error or fuel trap the tree-walker would hit first.

The VM assumes verifier-clean IR (the verifier enforces SSA dominance, so a
register is always written before it is read).  Behaviour on IR that the
verifier would reject — e.g. use of a never-defined value — is undefined;
all error conditions reachable from verified programs (division by zero,
unknown global/function, arity mismatch, call-depth, unreachable, fuel)
raise the same exception types as the tree-walker.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.compiler.ir import Const, Function, Module, Type
from repro.machine.interp import (
    ExecutionResult,
    FuelExhausted,
    InterpError,
    _fcmp,
    _float_bin,
    _icmp,
    _int_bin,
)

__all__ = [
    "BytecodeFunction",
    "BytecodeModule",
    "BytecodeVM",
    "READ_FIELDS",
    "TUPLE_READ_FIELDS",
    "call_key",
    "compile_module",
    "run_bytecode",
]

# -- opcodes (ordered roughly by dynamic frequency for the dispatch chain) --
OP_LOAD = 0
OP_ADD = 1
OP_STORE = 2
OP_BLOCK = 3
OP_BR = 4
OP_GEP = 5
OP_JMP = 6
OP_SLT = 7
OP_EQ = 8
OP_EDGE1 = 9
OP_SUB = 10
OP_MUL = 11
OP_SEG = 12
OP_AND = 13
OP_OR = 14
OP_XOR = 15
OP_SHL = 16
OP_ASHR = 17
OP_LSHR = 18
OP_SDIV = 19
OP_SREM = 20
OP_UDIV = 21
OP_UREM = 22
OP_FADD = 23
OP_FSUB = 24
OP_FMUL = 25
OP_FDIV = 26
OP_NE = 27
OP_SLE = 28
OP_SGT = 29
OP_SGE = 30
OP_ULT = 31
OP_ULE = 32
OP_UGT = 33
OP_UGE = 34
OP_FEQ = 35
OP_FNE = 36
OP_FLT = 37
OP_FLE = 38
OP_FGT = 39
OP_FGE = 40
OP_SELECT = 41
OP_COPY = 42
OP_WRAP = 43
OP_SITOFP = 44
OP_FPTOSI = 45
OP_OUTPUT = 46
OP_ALLOCA = 47
OP_GADDR = 48
OP_CALL = 49
OP_RET = 50
OP_RET_NONE = 51
OP_EDGE = 52
OP_RAISE = 53
OP_RAISE_KEY = 54
OP_FUEL_TRAP = 55
OP_ICMP_GEN = 56
OP_FCMP_GEN = 57
OP_VBIN_I = 58
OP_VBIN_F = 59
OP_VLOAD = 60
OP_VSTORE = 61
OP_BROADCAST = 62
OP_EXTRACT = 63
OP_INSERT = 64
OP_REDUCE = 65
OP_MEMSET = 66
OP_MEMCPY = 67

# -- operand-role tables (used by the translator in repro.machine.codegen) --
# READ_FIELDS[op] lists the instruction fields holding *register reads*;
# TUPLE_READ_FIELDS[op] lists fields holding tuples of register reads.
# Mask/sign/period/offset fields are deliberately absent.
READ_FIELDS: Dict[int, tuple] = {
    OP_LOAD: (2,),
    OP_STORE: (1, 2),
    OP_BR: (1,),
    OP_EDGE1: (1,),
    OP_OUTPUT: (1,),
    OP_RET: (1,),
    OP_SELECT: (2, 3, 4),
    OP_COPY: (2,),
    OP_WRAP: (2,),
    OP_SITOFP: (2,),
    OP_FPTOSI: (2,),
    OP_VLOAD: (2,),
    OP_VSTORE: (1, 2),
    OP_BROADCAST: (2,),
    OP_REDUCE: (2,),
    OP_INSERT: (2, 3, 4),
    OP_MEMSET: (1, 2, 3),
    OP_MEMCPY: (1, 2, 3),
}
for _binop in (OP_ADD, OP_SUB, OP_MUL, OP_AND, OP_OR, OP_XOR, OP_SHL, OP_ASHR,
               OP_LSHR, OP_SDIV, OP_SREM, OP_UDIV, OP_UREM, OP_FADD, OP_FSUB,
               OP_FMUL, OP_FDIV, OP_GEP, OP_SLT, OP_EQ, OP_NE, OP_SLE, OP_SGT,
               OP_SGE, OP_ULT, OP_ULE, OP_UGT, OP_UGE, OP_FEQ, OP_FNE, OP_FLT,
               OP_FLE, OP_FGT, OP_FGE, OP_ICMP_GEN, OP_FCMP_GEN, OP_VBIN_I,
               OP_VBIN_F, OP_EXTRACT):
    READ_FIELDS[_binop] = (2, 3)
del _binop
TUPLE_READ_FIELDS: Dict[int, tuple] = {OP_CALL: (4,), OP_EDGE: (1,)}

_INT_BIN_OPS = frozenset(
    {"add", "sub", "mul", "sdiv", "srem", "udiv", "urem", "and", "or", "xor", "shl", "ashr", "lshr"}
)
_FLOAT_BIN_OPS = frozenset({"fadd", "fsub", "fmul", "fdiv"})
_SHIFT_OPS = frozenset({"shl", "ashr", "lshr"})
_UNSIGNED_PREDS = frozenset({"ult", "ule", "ugt", "uge"})

_INT_OPC = {
    "add": OP_ADD,
    "sub": OP_SUB,
    "mul": OP_MUL,
    "and": OP_AND,
    "or": OP_OR,
    "xor": OP_XOR,
    "shl": OP_SHL,
    "ashr": OP_ASHR,
    "lshr": OP_LSHR,
    "sdiv": OP_SDIV,
    "srem": OP_SREM,
    "udiv": OP_UDIV,
    "urem": OP_UREM,
}
_FLOAT_OPC = {"fadd": OP_FADD, "fsub": OP_FSUB, "fmul": OP_FMUL, "fdiv": OP_FDIV}
_SIGNED_CMP_OPC = {
    "eq": OP_EQ,
    "ne": OP_NE,
    "slt": OP_SLT,
    "sle": OP_SLE,
    "sgt": OP_SGT,
    "sge": OP_SGE,
}
_UNSIGNED_CMP_OPC = {"ult": OP_ULT, "ule": OP_ULE, "ugt": OP_UGT, "uge": OP_UGE}
_FCMP_OPC = {
    "eq": OP_FEQ,
    "ne": OP_FNE,
    "slt": OP_FLT,
    "sle": OP_FLE,
    "sgt": OP_FGT,
    "sge": OP_FGE,
}


def _scalar_bits(ty: Optional[Type]) -> int:
    """Element bit width of a value of type ``ty`` (64 when unknown)."""
    if ty is None:
        return 64
    if ty.is_vec:
        return ty.elem.bits or 64
    return ty.bits or 64


def call_key(name: str, nargs: int) -> str:
    """Key of a function in a VM's call table: a call with ``nargs``
    arguments finds its callee under this key only if the arity matches."""
    return f"{name}\x00{nargs}"


# -- vector and bulk-memory ops: shared by the dispatch loop and the
# generated translations (repro.machine.codegen), so both raise alike ------


def vbin_int(op: str, a, b, bits: int) -> tuple:
    return tuple(_int_bin(op, x, y, bits) for x, y in zip(a, b))


def vbin_float(op: str, a, b) -> tuple:
    return tuple(_float_bin(op, x, y) for x, y in zip(a, b))


def vload(mem_get, addr: int, esz: int, lanes: int) -> tuple:
    return tuple(mem_get(addr + k * esz, 0) for k in range(lanes))


def vstore(mem: dict, vals, addr: int, esz: int) -> None:
    for k, v in enumerate(vals):
        mem[addr + k * esz] = v


def vinsert(vec, scalar, idx) -> tuple:
    vals = list(vec)
    vals[idx] = scalar
    return tuple(vals)


def vreduce(vals, rop: str, is_int: int, bits: int):
    acc = vals[0]
    if is_int:
        for v in vals[1:]:
            acc = _int_bin(rop, acc, v, bits)
    else:
        for v in vals[1:]:
            acc = _float_bin(rop, acc, v)
    return acc


def memset(mem: dict, addr: int, val, count: int, esz: int) -> None:
    for k in range(count):
        mem[addr + k * esz] = val


def memcpy(mem: dict, dst: int, src: int, count: int, esz: int) -> None:
    mem_get = mem.get
    vals = [mem_get(src + k * esz, 0) for k in range(count)]
    for k, v in enumerate(vals):
        mem[dst + k * esz] = v


class BytecodeFunction:
    """One compiled function: code list + register-file template.

    ``native`` is the function's generated Python translation
    (:func:`repro.machine.codegen.translate_function`), or None when the
    function runs on the dispatch loop."""

    __slots__ = ("name", "module_name", "nparams", "param_regs", "reg_init", "code",
                 "native")

    def __init__(self, name, module_name, nparams, param_regs, reg_init, code,
                 native=None):
        self.name = name
        self.module_name = module_name
        self.nparams = nparams
        self.param_regs = param_regs
        self.reg_init = reg_init
        self.code = code
        self.native = native


class BytecodeModule:
    """A compiled module: functions in definition order plus global specs."""

    __slots__ = ("name", "functions", "globals_spec")

    def __init__(self, name, functions, globals_spec):
        self.name = name
        self.functions = functions
        #: tuple of (name, elem_size, byte_size, init_values)
        self.globals_spec = globals_spec


class _FnCompiler:
    def __init__(self, module: Module, fn: Function) -> None:
        self.module = module
        self.fn = fn
        self.code: List[list] = []
        self.block_pc: Dict[str, int] = {}
        self.leading_phis: Dict[str, list] = {}
        # jump fields awaiting resolution: (instruction-list, field, (pred, succ))
        self.patch: List[Tuple[list, int]] = []
        self.slots: Dict[tuple, int] = {}
        self.reg_init: List[object] = []
        self.tymap: Dict[str, Type] = {}
        for pname, pty in fn.params:
            self.tymap[pname] = pty
        for inst in fn.instructions():
            if inst.res is not None:
                self.tymap[inst.res] = inst.ty

    # -- register allocation ------------------------------------------------
    def _reg(self, name: str) -> int:
        key = ("n", name)
        idx = self.slots.get(key)
        if idx is None:
            idx = len(self.reg_init)
            self.slots[key] = idx
            self.reg_init.append(None)
        return idx

    def _R(self, operand) -> int:
        if isinstance(operand, Const):
            value = operand.value
            # 0.0 == -0.0 with equal hashes: the sign keeps them apart
            sign = math.copysign(1.0, value) if type(value) is float else 0.0
            key = ("c", operand.ty, type(value).__name__, value, sign)
            idx = self.slots.get(key)
            if idx is None:
                idx = len(self.reg_init)
                self.slots[key] = idx
                self.reg_init.append(operand.value)
            return idx
        return self._reg(operand)

    def _operand_bits(self, operand) -> int:
        if isinstance(operand, Const):
            return _scalar_bits(operand.ty)
        return _scalar_bits(self.tymap.get(operand))

    def _operand_ty(self, operand) -> Optional[Type]:
        if isinstance(operand, Const):
            return operand.ty
        return self.tymap.get(operand)

    # -- compilation --------------------------------------------------------
    def compile(self) -> BytecodeFunction:
        fn = self.fn
        blocks = list(fn.blocks.values())
        if not blocks:
            self.code.append([OP_RAISE, f"function @{fn.name} has no blocks"])
        else:
            entry = blocks[0]
            if entry.instrs and entry.instrs[0].op == "phi":
                # entering the function gives prev_block None: the tree-walker
                # counts the block, then fails to find a matching incoming
                key = (self.module.name, fn.name, entry.name)
                self.code.append([OP_BLOCK, key, 0, fn.name])
                first = entry.instrs[0]
                self.code.append(
                    [
                        OP_RAISE,
                        f"phi {first.res} in @{fn.name}:{entry.name} has no incoming from None",
                    ]
                )
            for blk in blocks:
                self._emit_block(blk)
            self._resolve()
        code = tuple(tuple(ins) for ins in self.code)
        param_regs = tuple(self._reg(pname) for pname, _ty in fn.params)
        return BytecodeFunction(
            fn.name,
            self.module.name,
            len(fn.params),
            param_regs,
            tuple(self.reg_init),
            code,
        )

    def _emit_block(self, blk) -> None:
        fname = self.fn.name
        code = self.code
        self.block_pc[blk.name] = len(code)
        key = (self.module.name, fname, blk.name)
        header = [OP_BLOCK, key, 0, fname]
        cost_idx = 2
        code.append(header)
        instrs = blk.instrs
        i, n = 0, len(instrs)
        phis = []
        while i < n and instrs[i].op == "phi":
            phis.append(instrs[i])
            i += 1
        self.leading_phis[blk.name] = phis
        seg_cost = 0
        terminated = False
        while i < n:
            inst = instrs[i]
            op = inst.op
            if op == "br":
                seg_cost += 1
                ins = [OP_BR, self._R(inst.args[0]), (blk.name, inst.attrs["targets"][0]),
                       (blk.name, inst.attrs["targets"][1])]
                code.append(ins)
                self.patch.append((ins, 2))
                self.patch.append((ins, 3))
                terminated = True
                break
            if op == "jmp":
                seg_cost += 1
                ins = [OP_JMP, (blk.name, inst.attrs["target"])]
                code.append(ins)
                self.patch.append((ins, 1))
                terminated = True
                break
            if op == "ret":
                seg_cost += 1
                if inst.args:
                    code.append([OP_RET, self._R(inst.args[0])])
                else:
                    code.append([OP_RET_NONE])
                terminated = True
                break
            if op == "call":
                header[cost_idx] = seg_cost
                dst = self._reg(inst.res) if inst.res is not None else -1
                code.append(
                    [OP_CALL, dst, fname, inst.attrs["callee"],
                     tuple(self._R(a) for a in inst.args)]
                )
                header = [OP_SEG, 0, fname]
                cost_idx = 1
                code.append(header)
                seg_cost = 0
                i += 1
                continue
            seg_cost += 1
            self._emit_simple(inst)
            i += 1
        header[cost_idx] = seg_cost
        if not terminated:
            code.append([OP_RAISE, f"block {blk.name} in @{fname} fell through"])

    def _emit_simple(self, inst) -> None:
        op = inst.op
        ty = inst.ty
        code = self.code
        if op in _INT_BIN_OPS or op in _FLOAT_BIN_OPS:
            a = self._R(inst.args[0])
            b = self._R(inst.args[1])
            d = self._reg(inst.res)
            if ty.is_vec:
                if ty.elem.is_int:
                    code.append([OP_VBIN_I, d, a, b, op, ty.elem.bits])
                else:
                    code.append([OP_VBIN_F, d, a, b, op])
            elif ty.is_int:
                bits = ty.bits or 64
                mask = (1 << bits) - 1
                sign = 1 << (bits - 1)
                period = 1 << bits
                if op in _SHIFT_OPS:
                    code.append([_INT_OPC[op], d, a, b, bits, mask, sign, period])
                else:
                    code.append([_INT_OPC[op], d, a, b, mask, sign, period])
            else:
                code.append([_FLOAT_OPC[op], d, a, b])
        elif op == "load":
            code.append([OP_LOAD, self._reg(inst.res), self._R(inst.args[0])])
        elif op == "store":
            code.append([OP_STORE, self._R(inst.args[0]), self._R(inst.args[1])])
        elif op == "alloca":
            elem_ty: Type = inst.attrs["elem_ty"]
            count: int = inst.attrs.get("count", 1)
            code.append([OP_ALLOCA, self._reg(inst.res), elem_ty.byte_size() * count])
        elif op == "gep":
            code.append(
                [OP_GEP, self._reg(inst.res), self._R(inst.args[0]), self._R(inst.args[1]),
                 inst.attrs["elem_ty"].byte_size()]
            )
        elif op == "gaddr":
            name = inst.attrs["name"]
            code.append([OP_GADDR, self._reg(inst.res), (self.module.name, name), name])
        elif op == "icmp":
            pred = inst.attrs["pred"]
            aty = self._operand_ty(inst.args[0])
            a = self._R(inst.args[0])
            b = self._R(inst.args[1])
            d = self._reg(inst.res)
            if aty is not None and aty.is_vec:
                code.append([OP_ICMP_GEN, d, a, b, pred, _scalar_bits(aty)])
            elif pred in _UNSIGNED_PREDS:
                code.append(
                    [_UNSIGNED_CMP_OPC[pred], d, a, b, (1 << _scalar_bits(aty)) - 1]
                )
            elif pred in _SIGNED_CMP_OPC:
                code.append([_SIGNED_CMP_OPC[pred], d, a, b])
            else:
                code.append([OP_RAISE, f"unknown predicate {pred!r}"])
        elif op == "fcmp":
            pred = inst.attrs["pred"]
            aty = self._operand_ty(inst.args[0])
            if pred in _UNSIGNED_PREDS:
                code.append([OP_RAISE, f"fcmp does not support predicate {pred!r}"])
            elif pred not in _FCMP_OPC:
                code.append([OP_RAISE, f"unknown predicate {pred!r}"])
            elif aty is not None and aty.is_vec:
                # tuple comparisons are lexicographic, which disagrees with
                # the NaN guard — route vectors through the oracle's _fcmp
                code.append(
                    [OP_FCMP_GEN, self._reg(inst.res), self._R(inst.args[0]),
                     self._R(inst.args[1]), pred]
                )
            else:
                code.append(
                    [_FCMP_OPC[pred], self._reg(inst.res), self._R(inst.args[0]),
                     self._R(inst.args[1])]
                )
        elif op == "select":
            code.append(
                [OP_SELECT, self._reg(inst.res), self._R(inst.args[0]),
                 self._R(inst.args[1]), self._R(inst.args[2])]
            )
        elif op == "sext" or op == "fpext" or op == "fptrunc" or op == "bitcast":
            code.append([OP_COPY, self._reg(inst.res), self._R(inst.args[0])])
        elif op == "zext":
            sb = self._operand_bits(inst.args[0])
            db = ty.bits or 64
            mask = ((1 << sb) - 1) & ((1 << db) - 1)
            code.append(
                [OP_WRAP, self._reg(inst.res), self._R(inst.args[0]), mask,
                 1 << (db - 1), 1 << db]
            )
        elif op == "trunc":
            db = ty.bits or 64
            code.append(
                [OP_WRAP, self._reg(inst.res), self._R(inst.args[0]), (1 << db) - 1,
                 1 << (db - 1), 1 << db]
            )
        elif op == "sitofp":
            code.append([OP_SITOFP, self._reg(inst.res), self._R(inst.args[0])])
        elif op == "fptosi":
            db = ty.bits or 64
            code.append(
                [OP_FPTOSI, self._reg(inst.res), self._R(inst.args[0]), (1 << db) - 1,
                 1 << (db - 1), 1 << db]
            )
        elif op == "output":
            code.append([OP_OUTPUT, self._R(inst.args[0])])
        elif op == "vload":
            code.append(
                [OP_VLOAD, self._reg(inst.res), self._R(inst.args[0]),
                 ty.elem.byte_size(), ty.lanes]
            )
        elif op == "vstore":
            code.append(
                [OP_VSTORE, self._R(inst.args[0]), self._R(inst.args[1]),
                 inst.attrs["elem_ty"].byte_size()]
            )
        elif op == "broadcast":
            code.append([OP_BROADCAST, self._reg(inst.res), self._R(inst.args[0]), ty.lanes])
        elif op == "extract":
            code.append(
                [OP_EXTRACT, self._reg(inst.res), self._R(inst.args[0]), self._R(inst.args[1])]
            )
        elif op == "insert":
            code.append(
                [OP_INSERT, self._reg(inst.res), self._R(inst.args[0]),
                 self._R(inst.args[1]), self._R(inst.args[2])]
            )
        elif op == "reduce":
            rop = inst.attrs.get("rop", "add")
            if ty.is_int:
                code.append(
                    [OP_REDUCE, self._reg(inst.res), self._R(inst.args[0]), rop, 1,
                     ty.bits or 64]
                )
            else:
                ropf = rop if rop.startswith("f") else "f" + rop
                code.append(
                    [OP_REDUCE, self._reg(inst.res), self._R(inst.args[0]), ropf, 0, 0]
                )
        elif op == "memset":
            code.append(
                [OP_MEMSET, self._R(inst.args[0]), self._R(inst.args[1]),
                 self._R(inst.args[2]), inst.attrs["elem_ty"].byte_size()]
            )
        elif op == "memcpy":
            code.append(
                [OP_MEMCPY, self._R(inst.args[0]), self._R(inst.args[1]),
                 self._R(inst.args[2]), inst.attrs["elem_ty"].byte_size()]
            )
        elif op == "unreachable":
            code.append([OP_RAISE, f"executed unreachable in @{self.fn.name}"])
        else:
            code.append([OP_RAISE, f"unknown opcode {op!r}"])

    def _resolve(self) -> None:
        tramp_pc: Dict[Tuple[str, str], int] = {}
        stub_pc: Dict[str, int] = {}
        for ins, fi in self.patch:
            pred, succ = ins[fi]
            tgt = self.block_pc.get(succ)
            if tgt is None:
                # the tree-walker hits a plain KeyError on fn.blocks[succ]
                pc = stub_pc.get(succ)
                if pc is None:
                    pc = len(self.code)
                    self.code.append([OP_RAISE_KEY, succ])
                    stub_pc[succ] = pc
                ins[fi] = pc
                continue
            phis = self.leading_phis.get(succ)
            if not phis:
                ins[fi] = tgt
                continue
            key = (pred, succ)
            pc = tramp_pc.get(key)
            if pc is None:
                pc = self._emit_trampoline(pred, succ, phis, tgt)
                tramp_pc[key] = pc
            ins[fi] = pc

    def _emit_trampoline(self, pred: str, succ: str, phis, tgt: int) -> int:
        pc = len(self.code)
        srcs: List[int] = []
        dsts: List[int] = []
        for ph in phis:
            for src_blk, val in ph.attrs["incoming"]:
                if src_blk == pred:
                    srcs.append(self._R(val))
                    dsts.append(self._reg(ph.res))
                    break
            else:
                # the tree-walker counts the block before discovering the hole
                key = (self.module.name, self.fn.name, succ)
                self.code.append([OP_BLOCK, key, 0, self.fn.name])
                self.code.append(
                    [
                        OP_RAISE,
                        f"phi {ph.res} in @{self.fn.name}:{succ} has no incoming "
                        f"from {pred!r}",
                    ]
                )
                return pc
        if len(srcs) == 1:
            self.code.append([OP_EDGE1, srcs[0], dsts[0], tgt])
        else:
            self.code.append([OP_EDGE, tuple(srcs), tuple(dsts), tgt])
        return pc


def compile_module(module: Module) -> BytecodeModule:
    """Compile every function of ``module`` to bytecode."""
    fns = tuple(_FnCompiler(module, fn).compile() for fn in module.functions.values())
    gspec = []
    for gv in module.globals.values():
        esz = gv.elem_ty.byte_size()
        gspec.append((gv.name, esz, esz * max(1, gv.count), tuple(gv.init)))
    return BytecodeModule(module.name, fns, tuple(gspec))


class BytecodeVM:
    """Executes compiled modules with the tree-walker's observable semantics.

    Mirrors :class:`~repro.machine.interp.Interpreter`: functions resolve by
    name across modules (first match wins), memory is a flat dict with a bump
    allocator, and every ``run()`` starts from freshly materialised globals.

    When every function carries its generated translation (modules from
    :func:`repro.machine.codegen.translate_module`), ``run()`` calls the
    translations; otherwise it runs the per-op dispatch loop, which also
    replays the last segment op by op when fuel runs out mid-segment.
    """

    def __init__(self, bc_modules: List[BytecodeModule], fuel: int = 2_000_000,
                 max_depth: int = 200) -> None:
        self.bc_modules = list(bc_modules)
        self.fuel = fuel
        self.max_depth = max_depth
        self.fn_index: Dict[str, BytecodeFunction] = {}
        for bm in self.bc_modules:
            for bf in bm.functions:
                self.fn_index.setdefault(bf.name, bf)
        #: call table of the translations, or None to use the dispatch loop
        self._natives: Optional[Dict[str, object]] = {
            call_key(name, bf.nparams): bf.native for name, bf in self.fn_index.items()
        }
        if any(bf.native is None for bf in self.fn_index.values()):
            self._natives = None
        self.mem: Dict[int, object] = {}
        self._brk = 0x1000
        self._global_addr: Dict[object, int] = {}
        self.outputs: List[object] = []
        self.counts: Dict[Tuple[str, str, str], int] = {}

    def _alloc(self, nbytes: int) -> int:
        addr = self._brk
        self._brk += (nbytes + 63) & ~63 or 64
        return addr

    def run(self, entry: str = "main", args: Tuple = ()) -> ExecutionResult:
        """Execute ``entry``; each call is an independent execution."""
        self.mem = {}
        self._brk = 0x1000
        self._global_addr = {}
        mem = self.mem
        for bm in self.bc_modules:
            for name, esz, size, init in bm.globals_spec:
                addr = self._alloc(size)
                self._global_addr[(bm.name, name)] = addr
                self._global_addr.setdefault(name, addr)
                for i, v in enumerate(init):
                    mem[addr + i * esz] = v
        self.outputs = []
        self.counts = {}
        if 0 > self.max_depth:
            raise InterpError(f"call depth exceeded at @{entry}")
        fnobj = self.fn_index.get(entry)
        if fnobj is None or len(args) != fnobj.nparams:
            self._bad_call(entry, len(args))
        natives = self._natives
        if natives is None:
            ret, steps = self._execfn(fnobj, list(args), 0, 0)
        else:
            # a missing key enters at 0 when first counted: insertion order
            # stays first-execution order
            counts = self.counts = defaultdict(int)
            env = (mem, mem.get, counts, self.outputs.append, natives, self.fuel,
                   self.max_depth, self, self._global_addr)
            ret, steps = fnobj.native(env, 0, 0, *args)
            self.counts = dict(counts)
        return ExecutionResult(ret, self.outputs, self.counts, steps)

    def _bad_call(self, name: str, nargs: int) -> None:
        """Raise the error of a call that finds no callee of its arity."""
        callee = self.fn_index.get(name)
        if callee is None:
            raise InterpError(f"call to unknown function @{name}")
        raise InterpError(f"@{name} called with {nargs} args, expects {callee.nparams}")

    def _execfn(self, fnobj: BytecodeFunction, args: List[object], depth: int,
                steps: int) -> Tuple[object, int]:
        regs = list(fnobj.reg_init)
        i = 0
        for r in fnobj.param_regs:
            regs[r] = args[i]
            i += 1
        return self._run(fnobj.code, regs, depth, steps)

    def _careful(self, code, start: int, trip: int, regs, depth: int, fname: str) -> None:
        """Replay the last ``trip`` affordable instructions, then trap.

        Segments are call-free straight-line code, so a plain slice re-enters
        the same dispatch loop; whichever of a semantic error or the fuel trap
        the tree-walker would hit first, this hits too.  Translated functions
        hand over here too, with the register file rebuilt from their locals.
        """
        snippet = list(code[start:start + trip])
        snippet.append((OP_FUEL_TRAP, fname))
        self._run(snippet, regs, depth, 0)
        raise FuelExhausted(f"fuel exhausted in @{fname}")

    def _run(self, code, regs, depth: int, steps: int) -> Tuple[object, int]:
        mem = self.mem
        mem_get = mem.get
        counts = self.counts
        fuel = self.fuel
        pc = 0
        while True:
            ins = code[pc]
            op = ins[0]
            if op == OP_LOAD:
                regs[ins[1]] = mem_get(regs[ins[2]], 0)
                pc += 1
            elif op == OP_ADD:
                v = (regs[ins[2]] + regs[ins[3]]) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_STORE:
                mem[regs[ins[2]]] = regs[ins[1]]
                pc += 1
            elif op == OP_BLOCK:
                key = ins[1]
                counts[key] = counts.get(key, 0) + 1
                cost = ins[2]
                steps += cost
                if steps > fuel:
                    self._careful(code, pc + 1, fuel - (steps - cost), regs, depth, ins[3])
                pc += 1
            elif op == OP_BR:
                pc = ins[2] if regs[ins[1]] else ins[3]
            elif op == OP_GEP:
                regs[ins[1]] = regs[ins[2]] + regs[ins[3]] * ins[4]
                pc += 1
            elif op == OP_JMP:
                pc = ins[1]
            elif op == OP_SLT:
                regs[ins[1]] = 1 if regs[ins[2]] < regs[ins[3]] else 0
                pc += 1
            elif op == OP_EQ:
                regs[ins[1]] = 1 if regs[ins[2]] == regs[ins[3]] else 0
                pc += 1
            elif op == OP_EDGE1:
                regs[ins[2]] = regs[ins[1]]
                pc = ins[3]
            elif op == OP_SUB:
                v = (regs[ins[2]] - regs[ins[3]]) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_MUL:
                v = (regs[ins[2]] * regs[ins[3]]) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_SEG:
                cost = ins[1]
                steps += cost
                if steps > fuel:
                    self._careful(code, pc + 1, fuel - (steps - cost), regs, depth, ins[2])
                pc += 1
            elif op == OP_AND:
                v = (regs[ins[2]] & regs[ins[3]]) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_OR:
                v = (regs[ins[2]] | regs[ins[3]]) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_XOR:
                v = (regs[ins[2]] ^ regs[ins[3]]) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_SHL:
                v = (regs[ins[2]] << (regs[ins[3]] % ins[4])) & ins[5]
                regs[ins[1]] = v - ins[7] if v >= ins[6] else v
                pc += 1
            elif op == OP_ASHR:
                v = (regs[ins[2]] >> (regs[ins[3]] % ins[4])) & ins[5]
                regs[ins[1]] = v - ins[7] if v >= ins[6] else v
                pc += 1
            elif op == OP_LSHR:
                v = ((regs[ins[2]] & ins[5]) >> (regs[ins[3]] % ins[4])) & ins[5]
                regs[ins[1]] = v - ins[7] if v >= ins[6] else v
                pc += 1
            elif op == OP_SDIV:
                a = regs[ins[2]]
                b = regs[ins[3]]
                if b == 0:
                    raise InterpError("sdiv by zero")
                q = abs(a) // abs(b)
                v = (-q if (a < 0) != (b < 0) else q) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_SREM:
                a = regs[ins[2]]
                b = regs[ins[3]]
                if b == 0:
                    raise InterpError("srem by zero")
                q = abs(a) // abs(b)
                q = -q if (a < 0) != (b < 0) else q
                v = (a - q * b) & ins[4]
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_UDIV:
                b = regs[ins[3]]
                if b == 0:
                    raise InterpError("udiv by zero")
                m = ins[4]
                v = (regs[ins[2]] & m) // (b & m)
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_UREM:
                b = regs[ins[3]]
                if b == 0:
                    raise InterpError("urem by zero")
                m = ins[4]
                v = (regs[ins[2]] & m) % (b & m)
                regs[ins[1]] = v - ins[6] if v >= ins[5] else v
                pc += 1
            elif op == OP_FADD:
                regs[ins[1]] = regs[ins[2]] + regs[ins[3]]
                pc += 1
            elif op == OP_FSUB:
                regs[ins[1]] = regs[ins[2]] - regs[ins[3]]
                pc += 1
            elif op == OP_FMUL:
                regs[ins[1]] = regs[ins[2]] * regs[ins[3]]
                pc += 1
            elif op == OP_FDIV:
                b = regs[ins[3]]
                if b == 0:
                    raise InterpError("fdiv by zero")
                regs[ins[1]] = regs[ins[2]] / b
                pc += 1
            elif op == OP_NE:
                regs[ins[1]] = 1 if regs[ins[2]] != regs[ins[3]] else 0
                pc += 1
            elif op == OP_SLE:
                regs[ins[1]] = 1 if regs[ins[2]] <= regs[ins[3]] else 0
                pc += 1
            elif op == OP_SGT:
                regs[ins[1]] = 1 if regs[ins[2]] > regs[ins[3]] else 0
                pc += 1
            elif op == OP_SGE:
                regs[ins[1]] = 1 if regs[ins[2]] >= regs[ins[3]] else 0
                pc += 1
            elif op == OP_ULT:
                m = ins[4]
                regs[ins[1]] = 1 if (regs[ins[2]] & m) < (regs[ins[3]] & m) else 0
                pc += 1
            elif op == OP_ULE:
                m = ins[4]
                regs[ins[1]] = 1 if (regs[ins[2]] & m) <= (regs[ins[3]] & m) else 0
                pc += 1
            elif op == OP_UGT:
                m = ins[4]
                regs[ins[1]] = 1 if (regs[ins[2]] & m) > (regs[ins[3]] & m) else 0
                pc += 1
            elif op == OP_UGE:
                m = ins[4]
                regs[ins[1]] = 1 if (regs[ins[2]] & m) >= (regs[ins[3]] & m) else 0
                pc += 1
            elif op == OP_FEQ:
                regs[ins[1]] = 1 if regs[ins[2]] == regs[ins[3]] else 0
                pc += 1
            elif op == OP_FNE:
                a = regs[ins[2]]
                b = regs[ins[3]]
                regs[ins[1]] = 1 if (a == a and b == b and a != b) else 0
                pc += 1
            elif op == OP_FLT:
                regs[ins[1]] = 1 if regs[ins[2]] < regs[ins[3]] else 0
                pc += 1
            elif op == OP_FLE:
                regs[ins[1]] = 1 if regs[ins[2]] <= regs[ins[3]] else 0
                pc += 1
            elif op == OP_FGT:
                regs[ins[1]] = 1 if regs[ins[2]] > regs[ins[3]] else 0
                pc += 1
            elif op == OP_FGE:
                regs[ins[1]] = 1 if regs[ins[2]] >= regs[ins[3]] else 0
                pc += 1
            elif op == OP_SELECT:
                regs[ins[1]] = regs[ins[3]] if regs[ins[2]] else regs[ins[4]]
                pc += 1
            elif op == OP_COPY:
                regs[ins[1]] = regs[ins[2]]
                pc += 1
            elif op == OP_WRAP:
                v = regs[ins[2]] & ins[3]
                regs[ins[1]] = v - ins[5] if v >= ins[4] else v
                pc += 1
            elif op == OP_SITOFP:
                regs[ins[1]] = float(regs[ins[2]])
                pc += 1
            elif op == OP_FPTOSI:
                v = int(regs[ins[2]]) & ins[3]
                regs[ins[1]] = v - ins[5] if v >= ins[4] else v
                pc += 1
            elif op == OP_OUTPUT:
                self.outputs.append(regs[ins[1]])
                pc += 1
            elif op == OP_ALLOCA:
                addr = self._brk
                self._brk += (ins[2] + 63) & ~63 or 64
                regs[ins[1]] = addr
                pc += 1
            elif op == OP_GADDR:
                addr = self._global_addr.get(ins[2])
                if addr is None:
                    addr = self._global_addr.get(ins[3])
                    if addr is None:
                        raise InterpError(f"unknown global @{ins[3]}")
                regs[ins[1]] = addr
                pc += 1
            elif op == OP_CALL:
                steps += 1
                if steps > fuel:
                    raise FuelExhausted(f"fuel exhausted in @{ins[2]}")
                if depth + 1 > self.max_depth:
                    raise InterpError(f"call depth exceeded at @{ins[3]}")
                callee = self.fn_index.get(ins[3])
                argregs = ins[4]
                if callee is None or len(argregs) != callee.nparams:
                    self._bad_call(ins[3], len(argregs))
                ret, steps = self._execfn(callee, [regs[r] for r in argregs],
                                          depth + 1, steps)
                if ins[1] >= 0:
                    regs[ins[1]] = ret
                pc += 1
            elif op == OP_RET:
                return regs[ins[1]], steps
            elif op == OP_RET_NONE:
                return None, steps
            elif op == OP_EDGE:
                vals = [regs[r] for r in ins[1]]
                i = 0
                for d in ins[2]:
                    regs[d] = vals[i]
                    i += 1
                pc = ins[3]
            elif op == OP_RAISE:
                raise InterpError(ins[1])
            elif op == OP_RAISE_KEY:
                raise KeyError(ins[1])
            elif op == OP_FUEL_TRAP:
                raise FuelExhausted(f"fuel exhausted in @{ins[1]}")
            elif op == OP_ICMP_GEN:
                regs[ins[1]] = 1 if _icmp(ins[4], regs[ins[2]], regs[ins[3]], ins[5]) else 0
                pc += 1
            elif op == OP_FCMP_GEN:
                regs[ins[1]] = 1 if _fcmp(ins[4], regs[ins[2]], regs[ins[3]]) else 0
                pc += 1
            elif op == OP_VBIN_I:
                regs[ins[1]] = vbin_int(ins[4], regs[ins[2]], regs[ins[3]], ins[5])
                pc += 1
            elif op == OP_VBIN_F:
                regs[ins[1]] = vbin_float(ins[4], regs[ins[2]], regs[ins[3]])
                pc += 1
            elif op == OP_VLOAD:
                regs[ins[1]] = vload(mem_get, regs[ins[2]], ins[3], ins[4])
                pc += 1
            elif op == OP_VSTORE:
                vstore(mem, regs[ins[1]], regs[ins[2]], ins[3])
                pc += 1
            elif op == OP_BROADCAST:
                regs[ins[1]] = (regs[ins[2]],) * ins[3]
                pc += 1
            elif op == OP_EXTRACT:
                regs[ins[1]] = regs[ins[2]][regs[ins[3]]]
                pc += 1
            elif op == OP_INSERT:
                regs[ins[1]] = vinsert(regs[ins[2]], regs[ins[3]], regs[ins[4]])
                pc += 1
            elif op == OP_REDUCE:
                regs[ins[1]] = vreduce(regs[ins[2]], ins[3], ins[4], ins[5])
                pc += 1
            elif op == OP_MEMSET:
                memset(mem, regs[ins[1]], regs[ins[2]], regs[ins[3]], ins[4])
                pc += 1
            elif op == OP_MEMCPY:
                memcpy(mem, regs[ins[1]], regs[ins[2]], regs[ins[3]], ins[4])
                pc += 1
            else:
                raise InterpError(f"bytecode VM: bad opcode {op!r}")


def run_bytecode(
    modules: List[Module], entry: str = "main", fuel: int = 2_000_000,
    translate: bool = False,
) -> ExecutionResult:
    """Convenience wrapper: compile ``modules`` and run ``entry`` once, on
    the dispatch loop or (``translate``) on the generated translations."""
    bms = [compile_module(m) for m in modules]
    if translate:
        from repro.machine.codegen import translate_module

        bms = [translate_module(bm) for bm in bms]
    return BytecodeVM(bms, fuel=fuel).run(entry)

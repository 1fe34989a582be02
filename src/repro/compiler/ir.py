"""A small SSA-style intermediate representation.

The IR deliberately mirrors the slice of LLVM IR that matters for the phase
ordering problem studied in the paper: stack slots (``alloca``/``load``/
``store``) that ``mem2reg`` can promote, integer widths that ``instcombine``
can widen (changing SLP-vectorisation profitability, Fig 5.1), explicit
control flow with phi nodes, calls that ``inline`` can flatten, and vector
instructions that ``slp-vectorizer``/``loop-vectorize`` introduce.

Design notes
------------
* Values are virtual registers named by strings (``"%t3"``) or ``Const``
  immediates.  Instruction results are registers; the IR is "SSA-lite":
  registers are single-assignment, while mutable state lives in memory
  created by ``alloca`` or module globals.
* Instructions are small mutable objects (``op``, ``res``, ``ty``, ``args``,
  ``attrs``) so passes can rewrite in place; structural helpers live on
  :class:`Function` and :class:`Module`.
* Every construct here is executable by :mod:`repro.machine.interp`, which
  is what makes differential testing of pass pipelines meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Type",
    "VOID",
    "I1",
    "I8",
    "I16",
    "I32",
    "I64",
    "F32",
    "F64",
    "PTR",
    "vec",
    "Const",
    "Instr",
    "Block",
    "GlobalVar",
    "Function",
    "Module",
    "TERMINATORS",
    "BIN_OPS",
    "INT_BIN_OPS",
    "FLOAT_BIN_OPS",
    "CMP_PREDS",
    "is_commutative",
]


@dataclass(frozen=True)
class Type:
    """An IR type: integer, float, pointer, vector or void.

    ``bits`` is the scalar bit width; vectors carry an element type and lane
    count.  Types are immutable and hashable so they can key cost tables.
    """

    kind: str  # 'int' | 'float' | 'ptr' | 'vec' | 'void'
    bits: int = 0
    elem: Optional["Type"] = None
    lanes: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "int":
            return f"i{self.bits}"
        if self.kind == "float":
            return f"f{self.bits}"
        if self.kind == "ptr":
            return "ptr"
        if self.kind == "vec":
            return f"<{self.lanes} x {self.elem!r}>"
        return "void"

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_vec(self) -> bool:
        return self.kind == "vec"

    @property
    def is_ptr(self) -> bool:
        return self.kind == "ptr"

    def byte_size(self) -> int:
        """Storage size in bytes (pointers are 8 bytes)."""
        if self.kind in ("int", "float"):
            return max(1, self.bits // 8)
        if self.kind == "ptr":
            return 8
        if self.kind == "vec":
            return self.elem.byte_size() * self.lanes
        return 0


VOID = Type("void")
I1 = Type("int", 1)
I8 = Type("int", 8)
I16 = Type("int", 16)
I32 = Type("int", 32)
I64 = Type("int", 64)
F32 = Type("float", 32)
F64 = Type("float", 64)
PTR = Type("ptr", 64)

_VEC_CACHE: Dict[Tuple[Type, int], Type] = {}


def vec(elem: Type, lanes: int) -> Type:
    """Interned vector type constructor."""
    key = (elem, lanes)
    cached = _VEC_CACHE.get(key)
    if cached is None:
        cached = Type("vec", elem.bits * lanes, elem, lanes)
        _VEC_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class Const:
    """An immediate operand. ``value`` is int, float, or tuple (vectors)."""

    value: Union[int, float, Tuple]
    ty: Type

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.ty!r} {self.value}"


Operand = Union[str, Const]

#: Binary integer arithmetic/logical opcodes.
INT_BIN_OPS = frozenset(
    {"add", "sub", "mul", "sdiv", "srem", "udiv", "urem", "and", "or", "xor", "shl", "ashr", "lshr"}
)
#: Binary float opcodes.
FLOAT_BIN_OPS = frozenset({"fadd", "fsub", "fmul", "fdiv"})
BIN_OPS = INT_BIN_OPS | FLOAT_BIN_OPS
#: icmp/fcmp predicates.
CMP_PREDS = frozenset({"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"})
#: Block-terminating opcodes.
TERMINATORS = frozenset({"br", "jmp", "ret", "unreachable"})

_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


def is_commutative(op: str) -> bool:
    """Whether swapping the two operands of ``op`` preserves semantics."""
    return op in _COMMUTATIVE


class Instr:
    """One IR instruction.

    Attributes
    ----------
    op:
        Opcode string (see the opcode families in this module's docstring).
    res:
        Result register name or ``None`` for void-producing instructions.
    ty:
        Result type (``VOID`` when ``res`` is ``None``).
    args:
        Operand list of registers / constants.  For ``phi`` the operands live
        in ``attrs['incoming']`` instead.
    attrs:
        Opcode-specific payload: branch targets, call callee, icmp predicate,
        phi incoming edges, gep element size, vector lane counts, etc.
    """

    __slots__ = ("op", "res", "ty", "args", "attrs")

    def __init__(
        self,
        op: str,
        res: Optional[str] = None,
        ty: Type = VOID,
        args: Sequence[Operand] = (),
        **attrs,
    ) -> None:
        self.op = op
        self.res = res
        self.ty = ty
        self.args: List[Operand] = list(args)
        self.attrs: Dict[str, object] = attrs

    def clone(self) -> "Instr":
        """Independent copy of the instruction.

        A one-level structural copy: fresh ``args`` and ``attrs``, with list
        attr values (phi ``incoming``, rewritten in place by
        :meth:`replace_uses` and the passes) copied and every other value
        shared.  Sharing is sound because attr values are immutable
        (``str``, ``int``, tuples, :class:`Type`, :class:`Const`), an
        invariant :func:`~repro.compiler.verify.verify_function` enforces.
        """
        inst = Instr.__new__(Instr)
        inst.op = self.op
        inst.res = self.res
        inst.ty = self.ty
        inst.args = list(self.args)
        attrs = self.attrs
        inst.attrs = (
            {k: list(v) if type(v) is list else v for k, v in attrs.items()} if attrs else {}
        )
        return inst

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    def operands(self) -> Iterator[Operand]:
        """Iterate over all value operands, including phi incomings."""
        yield from self.args
        if self.op == "phi":
            for _, val in self.attrs["incoming"]:
                yield val

    def reg_operands(self) -> Iterator[str]:
        """Iterate over register (non-constant) operands."""
        for v in self.operands():
            if isinstance(v, str):
                yield v

    def replace_uses(self, mapping: Dict[str, Operand]) -> bool:
        """Rewrite register operands through ``mapping``; returns changed."""
        changed = False
        for i, a in enumerate(self.args):
            if isinstance(a, str) and a in mapping:
                self.args[i] = mapping[a]
                changed = True
        if self.op == "phi":
            inc = self.attrs["incoming"]
            for i, (blk, val) in enumerate(inc):
                if isinstance(val, str) and val in mapping:
                    inc[i] = (blk, mapping[val])
                    changed = True
        return changed

    def successors(self) -> Tuple[str, ...]:
        """Branch target block names (empty for non-terminators / ret)."""
        if self.op == "br":
            return self.attrs["targets"]
        if self.op == "jmp":
            return (self.attrs["target"],)
        return ()

    def retarget(self, old: str, new: str) -> None:
        """Replace branch target ``old`` with ``new``."""
        if self.op == "br":
            self.attrs["targets"] = tuple(new if t == old else t for t in self.attrs["targets"])
        elif self.op == "jmp" and self.attrs["target"] == old:
            self.attrs["target"] = new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = f"{self.res} = " if self.res else ""
        extra = f" {self.attrs}" if self.attrs else ""
        return f"{head}{self.op} {self.args}{extra}"


class Block:
    """A basic block: a label plus an instruction list ending in a terminator."""

    __slots__ = ("name", "instrs")

    def __init__(self, name: str, instrs: Optional[List[Instr]] = None) -> None:
        self.name = name
        self.instrs: List[Instr] = instrs if instrs is not None else []

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def phis(self) -> List[Instr]:
        """Leading phi instructions of the block."""
        out = []
        for inst in self.instrs:
            if inst.op != "phi":
                break
            out.append(inst)
        return out

    def non_phi_instrs(self) -> List[Instr]:
        """All instructions except phis."""
        return [i for i in self.instrs if i.op != "phi"]

    def successors(self) -> Tuple[str, ...]:
        """Successor block names from the terminator."""
        term = self.terminator
        return term.successors() if term is not None else ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.name}, {len(self.instrs)} instrs)"


@dataclass
class GlobalVar:
    """A module-level array variable.

    ``init`` is a list of Python numbers used to initialise the array; the
    interpreter materialises it into simulated memory at program start.
    """

    name: str
    elem_ty: Type
    init: List[Union[int, float]]
    const: bool = False

    @property
    def count(self) -> int:
        return len(self.init)


class Function:
    """A function: parameters, return type, ordered basic blocks, attributes.

    ``attrs`` holds LLVM-like function attributes the passes manipulate
    (``readnone``, ``noinline``, ``alwaysinline``), which is what makes the
    ``function-attrs`` pass observable — a property the paper highlights as
    invisible to code-characterisation baselines (§3.4).
    """

    def __init__(self, name: str, params: Sequence[Tuple[str, Type]], ret_ty: Type) -> None:
        self.name = name
        self.params: List[Tuple[str, Type]] = list(params)
        self.ret_ty = ret_ty
        self.blocks: Dict[str, Block] = {}
        self.attrs: set = set()
        self._counter = 0

    # -- construction -----------------------------------------------------
    def add_block(self, name: str) -> Block:
        """Create and append a new (empty) basic block."""
        if name in self.blocks:
            raise ValueError(f"duplicate block {name!r} in @{self.name}")
        blk = Block(name)
        self.blocks[name] = blk
        return blk

    def fresh(self, hint: str = "t") -> str:
        """Allocate a fresh register name."""
        self._counter += 1
        return f"%{hint}.{self._counter}"

    def fresh_block_name(self, hint: str = "bb") -> str:
        """Allocate a fresh, unused block name."""
        self._counter += 1
        name = f"{hint}.{self._counter}"
        while name in self.blocks:
            self._counter += 1
            name = f"{hint}.{self._counter}"
        return name

    # -- queries ----------------------------------------------------------
    @property
    def entry(self) -> Block:
        return next(iter(self.blocks.values()))

    def instructions(self) -> Iterator[Instr]:
        """Iterate over every instruction in block order."""
        for blk in self.blocks.values():
            yield from blk.instrs

    def num_instrs(self) -> int:
        """Total instruction count."""
        return sum(len(b.instrs) for b in self.blocks.values())

    def defs(self) -> Dict[str, Instr]:
        """Map register name -> defining instruction."""
        out: Dict[str, Instr] = {}
        for inst in self.instructions():
            if inst.res is not None:
                out[inst.res] = inst
        return out

    def param_names(self) -> List[str]:
        """Parameter register names."""
        return [p for p, _ in self.params]

    def predecessors(self) -> Dict[str, List[str]]:
        """Map block name -> predecessor block names."""
        preds: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for blk in self.blocks.values():
            for succ in blk.successors():
                # branches in unreachable code may dangle after a block
                # deletion; they are cleaned up by simplifycfg
                if succ in preds:
                    preds[succ].append(blk.name)
        return preds

    # -- mutation helpers --------------------------------------------------
    def replace_all_uses(self, mapping: Dict[str, Operand]) -> int:
        """Rewrite uses across the whole function; returns #instrs changed."""
        if not mapping:
            return 0
        n = 0
        for inst in self.instructions():
            if inst.replace_uses(mapping):
                n += 1
        return n

    def remove_blocks(self, names: Iterable[str]) -> None:
        """Delete blocks and prune phi edges referencing them."""
        doomed = set(names)
        for name in doomed:
            del self.blocks[name]
        for blk in self.blocks.values():
            for inst in blk.instrs:
                if inst.op == "phi":
                    inst.attrs["incoming"] = [
                        (b, v) for b, v in inst.attrs["incoming"] if b not in doomed
                    ]

    def reorder_blocks(self, order: Sequence[str]) -> None:
        """Reorder ``self.blocks`` to follow ``order`` (must be a permutation)."""
        assert set(order) == set(self.blocks)
        self.blocks = {name: self.blocks[name] for name in order}

    def clone(self) -> "Function":
        """Independent copy of the function (see :meth:`Instr.clone`)."""
        fn = Function(self.name, list(self.params), self.ret_ty)
        fn.attrs = set(self.attrs)
        fn._counter = self._counter
        fn.blocks = {
            name: Block(name, [inst.clone() for inst in blk.instrs])
            for name, blk in self.blocks.items()
        }
        return fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Function(@{self.name}, {len(self.blocks)} blocks, {self.num_instrs()} instrs)"


class Module:
    """A translation unit: functions plus global arrays.

    Programs in :mod:`repro.workloads` consist of several modules linked by
    name; per-module pass sequences are the unit of phase ordering (§1.1).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}

    def add_function(self, fn: Function) -> Function:
        """Add a function (name must be unique)."""
        if fn.name in self.functions:
            raise ValueError(f"duplicate function @{fn.name}")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, gv: GlobalVar) -> GlobalVar:
        """Add a global variable (name must be unique)."""
        if gv.name in self.globals:
            raise ValueError(f"duplicate global @{gv.name}")
        self.globals[gv.name] = gv
        return gv

    def num_instrs(self) -> int:
        """Total instruction count."""
        return sum(f.num_instrs() for f in self.functions.values())

    def clone(self) -> "Module":
        """Independent copy of the whole module (see :meth:`Instr.clone`)."""
        mod = Module(self.name)
        for fn in self.functions.values():
            mod.functions[fn.name] = fn.clone()
        for gv in self.globals.values():
            mod.globals[gv.name] = GlobalVar(gv.name, gv.elem_ty, list(gv.init), gv.const)
        return mod

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Module({self.name}, {len(self.functions)} fns, {self.num_instrs()} instrs)"

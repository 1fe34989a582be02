"""Translate bytecode functions into generated Python functions.

The dispatch loop of :class:`~repro.machine.bytecode.BytecodeVM` pays for
one opcode test chain and several tuple reads per executed instruction.
This module compiles each :class:`~repro.machine.bytecode.BytecodeFunction`
once into one Python function that does only the work itself:

* **Registers are locals.**  Register ``i`` is the local ``r<i>``; a
  register no instruction writes (the constant pool) is inlined as a
  literal, or bound by name when it has no exact literal form (NaN, the
  infinities, ``-0.0``, booleans, vectors).
* **Blocks are straight-line bodies.**  Every block header counts the
  block (``counts`` is a ``defaultdict(int)``, so keys keep their
  first-execution order), charges its segment's fuel and falls through
  its instructions.
  A block entered from exactly one edge is emitted inline at that edge;
  every other block is a *label*: a ``while True`` body selected by a
  binary ``if`` tree on the label variable ``b``.  A jump back to the
  enclosing label is a ``continue``, a jump to another label sets ``b``
  and breaks to the tree.  Phi copies of an edge run at the jump site.
* **Calls go straight to the callee's generated function**, looked up at
  call time in the running VM's table (functions resolve by name across
  the linked modules, first match wins) after the call's fuel step and
  the depth check, as in the dispatch loop.

Observable behaviour is the dispatch loop's, bit for bit: outputs, the
return value, steps, ``block_counts`` in first-execution order (the cycle
model sums floats in that order) and every error's type and message.  When
a segment header finds that the segment would exceed the fuel budget, the
generated code hands its ``locals()`` to a helper that rebuilds the
register file and calls :meth:`BytecodeVM._careful`, which replays the
affordable prefix op by op and raises the trap the tree walker would
raise.

Translated functions hold function objects and are **not picklable**; they
live only in the in-process measurement store
(:class:`~repro.machine.artifacts.ArtifactStore`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.machine.bytecode import (
    OP_ADD,
    OP_ALLOCA,
    OP_AND,
    OP_ASHR,
    OP_BLOCK,
    OP_BR,
    OP_BROADCAST,
    OP_CALL,
    OP_COPY,
    OP_EDGE,
    OP_EDGE1,
    OP_EQ,
    OP_EXTRACT,
    OP_FADD,
    OP_FCMP_GEN,
    OP_FDIV,
    OP_FEQ,
    OP_FGE,
    OP_FGT,
    OP_FLE,
    OP_FLT,
    OP_FMUL,
    OP_FNE,
    OP_FPTOSI,
    OP_FSUB,
    OP_GADDR,
    OP_GEP,
    OP_ICMP_GEN,
    OP_INSERT,
    OP_JMP,
    OP_LOAD,
    OP_LSHR,
    OP_MEMCPY,
    OP_MEMSET,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_OUTPUT,
    OP_RAISE,
    OP_RAISE_KEY,
    OP_REDUCE,
    OP_RET,
    OP_RET_NONE,
    OP_SDIV,
    OP_SEG,
    OP_SELECT,
    OP_SGE,
    OP_SGT,
    OP_SHL,
    OP_SITOFP,
    OP_SLE,
    OP_SLT,
    OP_SREM,
    OP_STORE,
    OP_SUB,
    OP_UDIV,
    OP_UGE,
    OP_UGT,
    OP_ULE,
    OP_ULT,
    OP_UREM,
    OP_VBIN_F,
    OP_VBIN_I,
    OP_VLOAD,
    OP_VSTORE,
    OP_WRAP,
    OP_XOR,
    READ_FIELDS,
    TUPLE_READ_FIELDS,
    BytecodeFunction,
    BytecodeModule,
    call_key,
    memcpy,
    memset,
    vbin_float,
    vbin_int,
    vinsert,
    vload,
    vreduce,
    vstore,
)
from repro.machine.interp import FuelExhausted, InterpError, _fcmp, _icmp

__all__ = ["translate_function", "translate_module"]

# wrapping int ops (op, d, a, b, mask, sign, period)
_WRAP_SYM = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*", OP_AND: "&", OP_OR: "|", OP_XOR: "^"}
_FLOAT_SYM = {OP_FADD: "+", OP_FSUB: "-", OP_FMUL: "*"}
# compares (op, d, a, b) that map onto one Python operator
_CMP_SYM = {
    OP_SLT: "<", OP_SLE: "<=", OP_SGT: ">", OP_SGE: ">=", OP_EQ: "==", OP_NE: "!=",
    OP_FLT: "<", OP_FLE: "<=", OP_FGT: ">", OP_FGE: ">=", OP_FEQ: "==",
}
# unsigned compares (op, d, a, b, mask)
_UCMP_SYM = {OP_ULT: "<", OP_ULE: "<=", OP_UGT: ">", OP_UGE: ">="}
_COMPARES = frozenset(set(_CMP_SYM) | set(_UCMP_SYM) | {OP_FNE})
_DIVS = {OP_SDIV: "sdiv", OP_SREM: "srem", OP_UDIV: "udiv", OP_UREM: "urem"}

#: ops whose field 1 is the register they write
_DEST1 = frozenset(
    set(_WRAP_SYM) | set(_FLOAT_SYM) | set(_CMP_SYM) | set(_UCMP_SYM) | set(_DIVS)
    | {OP_SHL, OP_ASHR, OP_LSHR, OP_FDIV, OP_FNE, OP_LOAD, OP_GEP, OP_SELECT, OP_COPY,
       OP_WRAP, OP_SITOFP, OP_FPTOSI, OP_ALLOCA, OP_GADDR, OP_ICMP_GEN, OP_FCMP_GEN,
       OP_VBIN_I, OP_VBIN_F, OP_VLOAD, OP_BROADCAST, OP_EXTRACT, OP_INSERT, OP_REDUCE}
)
_TERMINATORS = frozenset({OP_BR, OP_JMP, OP_RET, OP_RET_NONE, OP_RAISE, OP_RAISE_KEY})

#: deepest ``if`` nesting of inlined blocks before a block becomes a label
_MAX_NEST = 24

_FN_HEADER = (
    "    mem, mget, counts, out, fns, fuel, maxd, vm, ga = env",
    "    d1 = depth + 1",
)


# -- run-time helpers the generated code calls ------------------------------


def _handoff(bf: BytecodeFunction):
    """``trip(start, cost, frame)``: the fuel trap of a segment of ``bf``
    that starts at ``start`` and costs ``cost``, called with the generated
    frame's ``locals()`` after the header charged the segment.  Rebuilds
    the dispatch loop's register file from the frame and replays the
    affordable prefix there (:meth:`BytecodeVM._careful`, which raises)."""

    def trip(start: int, cost: int, frame: dict) -> None:
        regs = list(bf.reg_init)
        for name, value in frame.items():
            if name[0] == "r" and name[1:].isdigit():
                regs[int(name[1:])] = value
        frame["vm"]._careful(bf.code, start, frame["fuel"] - frame["steps"] + cost, regs,
                             frame["depth"], bf.name)

    return trip


_NAMESPACE = {
    "InterpError": InterpError,
    "FuelExhausted": FuelExhausted,
    "_icmp": _icmp,
    "_fcmp": _fcmp,
    "vbin_int": vbin_int,
    "vbin_float": vbin_float,
    "vload": vload,
    "vstore": vstore,
    "vinsert": vinsert,
    "vreduce": vreduce,
    "memset": memset,
    "memcpy": memcpy,
}


def _wrap_to(mask: int, sign: int):
    """Two's-complement wrap of an out-of-range result."""
    return lambda v: ((v + sign) & mask) - sign


def _literal(value) -> Optional[str]:
    """Exact source literal for a constant, or None to bind it by name."""
    if type(value) is int:
        return str(value) if value >= 0 else f"({value})"
    if type(value) is float and math.isfinite(value) and math.copysign(1.0, value) > 0:
        return repr(value)
    return None


class _Translator:
    """Generates the source of one function's translation."""

    def __init__(self, bf: BytecodeFunction) -> None:
        self.bf = bf
        self.code = bf.code
        written: Set[int] = set(bf.param_regs)
        self.reads: Dict[int, int] = {}
        for ins in self.code:
            op = ins[0]
            if op in _DEST1 or (op == OP_CALL and ins[1] >= 0):
                written.add(ins[1])
            elif op == OP_EDGE1:
                written.add(ins[2])
            elif op == OP_EDGE:
                written.update(ins[2])
            for f in READ_FIELDS.get(op, ()):
                self.reads[ins[f]] = self.reads.get(ins[f], 0) + 1
            for f in TUPLE_READ_FIELDS.get(op, ()):
                for r in ins[f]:
                    self.reads[r] = self.reads.get(r, 0) + 1
        #: names the generated code reads from its module namespace
        self.bound: Dict[str, object] = {"T": _handoff(bf)}
        self.consts: Dict[int, str] = {}
        for reg, value in enumerate(bf.reg_init):
            if reg not in written:
                lit = _literal(value)
                if lit is None:
                    lit = f"K{reg}"
                    self.bound[lit] = value
                self.consts[reg] = lit
        self.preds: Dict[int, int] = {}
        self._count_preds()
        self.labels: List[int] = [0]
        self.is_label: Set[int] = {0}
        self.lines: List[str] = []
        self.current = 0

    # -- control-flow structure ---------------------------------------------
    def _edge(self, target: int) -> Tuple[Optional[str], Optional[int]]:
        """``(copy statement or None, destination block pc or None)`` of a
        jump to ``target``: trampolines carry an edge's phi copies; a
        ``None`` destination is a missing-block stub."""
        ins = self.code[target]
        op = ins[0]
        if op == OP_EDGE1:
            return f"r{ins[2]} = {self.use(ins[1])}", ins[3]
        if op == OP_EDGE:
            dsts = ", ".join(f"r{d}" for d in ins[2])
            srcs = ", ".join(self.use(s) for s in ins[1])
            return f"{dsts} = {srcs}", ins[3]
        if op == OP_RAISE_KEY:
            return None, None
        return None, target

    def _successors(self, start: int) -> List[int]:
        pc = start
        code = self.code
        while code[pc][0] not in _TERMINATORS:
            pc += 1
        ins = code[pc]
        if ins[0] == OP_BR:
            return [ins[2], ins[3]]
        if ins[0] == OP_JMP:
            return [ins[1]]
        return []

    def _count_preds(self) -> None:
        code = self.code
        for start in range(len(code)):
            if start == 0 or code[start][0] == OP_BLOCK:
                for target in self._successors(start):
                    dest = self._edge(target)[1]
                    if dest is not None:
                        self.preds[dest] = self.preds.get(dest, 0) + 1

    # -- emission helpers ---------------------------------------------------
    def use(self, reg: int) -> str:
        lit = self.consts.get(reg)
        return lit if lit is not None else f"r{reg}"

    def emit(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def bind(self, value) -> str:
        """A fresh module-level name for ``value``."""
        name = f"S{len(self.bound)}"
        self.bound[name] = value
        return name

    def wrapped(self, expr: str, mask: int, sign: int) -> str:
        """``expr`` wrapped to two's complement: most results are already in
        range, which two compares confirm faster than masking."""
        name = f"W{mask.bit_length()}"
        if name not in self.bound:
            self.bound[name] = _wrap_to(mask, sign)
        return f"t if -{sign} <= (t := {expr}) < {sign} else {name}(t)"

    def goto(self, dest: int, ind: int) -> None:
        if dest == self.current:
            self.emit(ind, "continue")
            return
        if dest not in self.is_label:
            self.is_label.add(dest)
            self.labels.append(dest)
        self.emit(ind, f"b = {dest}")
        self.emit(ind, "break")

    def jump(self, target: int, ind: int) -> None:
        copy, dest = self._edge(target)
        if dest is None:
            self.emit(ind, f"raise KeyError({self.code[target][1]!r})")
            return
        if copy is not None:
            self.emit(ind, copy)
        if self.preds[dest] == 1 and dest not in self.is_label and ind < _MAX_NEST:
            self.unit(dest, ind)
        else:
            self.goto(dest, ind)

    def fuel_check(self, ind: int, cost: int, start: int) -> None:
        """Charge a segment; if it would overrun the budget, replay its
        affordable prefix op by op on the dispatch loop, which traps."""
        self.emit(ind, f"if (steps := steps + {cost}) > fuel:" if cost else "if steps > fuel:")
        self.emit(ind + 1, f"T({start}, {cost}, locals())")

    # -- one block and what it falls or branches into -------------------------
    def unit(self, start: int, ind: int) -> None:
        code = self.code
        use = self.use
        pc = start
        cond: Optional[str] = None
        while True:
            ins = code[pc]
            op = ins[0]
            if op == OP_BLOCK:
                key = self.bind(ins[1])
                self.emit(ind, f"counts[{key}] += 1")
                self.fuel_check(ind, ins[2], pc + 1)
            elif op == OP_SEG:
                self.fuel_check(ind, ins[1], pc + 1)
            elif op == OP_BR:
                self.emit(ind, f"if {cond if cond is not None else use(ins[1])}:")
                self.jump(ins[2], ind + 1)
                self.jump(ins[3], ind)
                return
            elif op == OP_JMP:
                self.jump(ins[1], ind)
                return
            elif op == OP_RET:
                self.emit(ind, f"return {use(ins[1])}, steps")
                return
            elif op == OP_RET_NONE:
                self.emit(ind, "return None, steps")
                return
            elif op == OP_RAISE:
                self.emit(ind, f"raise InterpError({ins[1]!r})")
                return
            elif op == OP_RAISE_KEY:
                self.emit(ind, f"raise KeyError({ins[1]!r})")
                return
            elif op == OP_CALL:
                self.call(ins, ind)
            elif (
                op in _COMPARES and code[pc + 1][0] == OP_BR
                and code[pc + 1][1] == ins[1] and self.reads.get(ins[1]) == 1
            ):
                # the branch is the compare's only reader: test it directly
                cond = self.test(ins, ind)
            else:
                expr = self.value(ins, ind)
                if expr is not None:
                    self.emit(ind, f"r{ins[1]} = {expr}")
            pc += 1

    def call(self, ins, ind: int) -> None:
        _op, dst, fname, callee, argregs = ins
        self.emit(ind, "steps += 1")
        self.emit(ind, "if steps > fuel:")
        self.emit(ind + 1, f"raise FuelExhausted({f'fuel exhausted in @{fname}'!r})")
        self.emit(ind, "if d1 > maxd:")
        self.emit(ind + 1, f"raise InterpError({f'call depth exceeded at @{callee}'!r})")
        self.emit(ind, f"c = fns.get({call_key(callee, len(argregs))!r})")
        self.emit(ind, "if c is None:")
        self.emit(ind + 1, f"vm._bad_call({callee!r}, {len(argregs)})")
        args = "".join(f", {self.use(r)}" for r in argregs)
        target = f"r{dst}" if dst >= 0 else "_"
        self.emit(ind, f"{target}, steps = c(env, d1, steps{args})")

    def test(self, ins, ind: int) -> str:
        """Boolean source expression of a compare op."""
        op = ins[0]
        a, b = self.use(ins[2]), self.use(ins[3])
        if op in _CMP_SYM:
            return f"{a} {_CMP_SYM[op]} {b}"
        if op in _UCMP_SYM:
            return f"({a} & {ins[4]}) {_UCMP_SYM[op]} ({b} & {ins[4]})"
        # OP_FNE: ordered, so a NaN operand compares false
        self.emit(ind, f"t_a = {a}")
        self.emit(ind, f"t_b = {b}")
        return "t_a == t_a and t_b == t_b and t_a != t_b"

    def value(self, ins, ind: int) -> Optional[str]:
        """Source expression of a value op's result; ops with effects emit
        their statements and return None."""
        op = ins[0]
        use = self.use
        if op == OP_LOAD:
            return f"mget({use(ins[2])}, 0)"
        if op in _WRAP_SYM:
            return self.wrapped(f"{use(ins[2])} {_WRAP_SYM[op]} {use(ins[3])}", ins[4], ins[5])
        if op == OP_STORE:
            self.emit(ind, f"mem[{use(ins[2])}] = {use(ins[1])}")
            return None
        if op == OP_GEP:
            index = self.bf.reg_init[ins[3]]
            if ins[3] in self.consts and type(index) is int:
                return f"{use(ins[2])} + {index * ins[4]}"  # constant offset
            return f"{use(ins[2])} + {use(ins[3])} * {ins[4]}"
        if op in _COMPARES:
            return f"1 if {self.test(ins, ind)} else 0"
        if op in _FLOAT_SYM:
            return f"{use(ins[2])} {_FLOAT_SYM[op]} {use(ins[3])}"
        if op in (OP_SHL, OP_ASHR, OP_LSHR):
            a, b = use(ins[2]), use(ins[3])
            bits, mask, sign = ins[4], ins[5], ins[6]
            if op == OP_SHL:
                v = f"{a} << ({b} % {bits})"
            elif op == OP_ASHR:
                v = f"{a} >> ({b} % {bits})"
            else:
                v = f"({a} & {mask}) >> ({b} % {bits})"
            return self.wrapped(v, mask, sign)
        if op in _DIVS:
            self.emit(ind, f"t_b = {use(ins[3])}")
            self.emit(ind, "if t_b == 0:")
            self.emit(ind + 1, f"raise InterpError({_DIVS[op] + ' by zero'!r})")
            mask, sign, period = ins[4], ins[5], ins[6]
            if op == OP_SDIV or op == OP_SREM:
                self.emit(ind, f"t_a = {use(ins[2])}")
                self.emit(ind, "t_q = abs(t_a) // abs(t_b)")
                self.emit(ind, "if (t_a < 0) != (t_b < 0):")
                self.emit(ind + 1, "t_q = -t_q")
                v = "t_q" if op == OP_SDIV else "t_a - t_q * t_b"
                self.emit(ind, f"t_v = ({v}) & {mask}")
            else:
                sym = "//" if op == OP_UDIV else "%"
                self.emit(ind, f"t_v = ({use(ins[2])} & {mask}) {sym} (t_b & {mask})")
            return f"t_v - {period} if t_v >= {sign} else t_v"
        if op == OP_FDIV:
            self.emit(ind, f"t_b = {use(ins[3])}")
            self.emit(ind, "if t_b == 0:")
            self.emit(ind + 1, "raise InterpError('fdiv by zero')")
            return f"{use(ins[2])} / t_b"
        if op == OP_SELECT:
            return f"{use(ins[3])} if {use(ins[2])} else {use(ins[4])}"
        if op == OP_COPY:
            return use(ins[2])
        if op == OP_WRAP or op == OP_FPTOSI:
            v = use(ins[2]) if op == OP_WRAP else f"int({use(ins[2])})"
            self.emit(ind, f"t_v = {v} & {ins[3]}")
            return f"t_v - {ins[5]} if t_v >= {ins[4]} else t_v"
        if op == OP_SITOFP:
            return f"float({use(ins[2])})"
        if op == OP_OUTPUT:
            self.emit(ind, f"out({use(ins[1])})")
            return None
        if op == OP_ALLOCA:
            self.emit(ind, f"r{ins[1]} = vm._brk")
            self.emit(ind, f"vm._brk += {(ins[2] + 63) & ~63 or 64}")
            return None
        if op == OP_GADDR:
            d = f"r{ins[1]}"
            self.emit(ind, f"{d} = ga.get({ins[2]!r})")
            self.emit(ind, f"if {d} is None:")
            self.emit(ind + 1, f"{d} = ga.get({ins[3]!r})")
            self.emit(ind + 1, f"if {d} is None:")
            self.emit(ind + 2, f"raise InterpError({f'unknown global @{ins[3]}'!r})")
            return None
        if op == OP_ICMP_GEN:
            return f"1 if _icmp({ins[4]!r}, {use(ins[2])}, {use(ins[3])}, {ins[5]}) else 0"
        if op == OP_FCMP_GEN:
            return f"1 if _fcmp({ins[4]!r}, {use(ins[2])}, {use(ins[3])}) else 0"
        if op == OP_VBIN_I:
            return f"vbin_int({ins[4]!r}, {use(ins[2])}, {use(ins[3])}, {ins[5]})"
        if op == OP_VBIN_F:
            return f"vbin_float({ins[4]!r}, {use(ins[2])}, {use(ins[3])})"
        if op == OP_VLOAD:
            return f"vload(mget, {use(ins[2])}, {ins[3]}, {ins[4]})"
        if op == OP_VSTORE:
            self.emit(ind, f"vstore(mem, {use(ins[1])}, {use(ins[2])}, {ins[3]})")
            return None
        if op == OP_BROADCAST:
            return f"({use(ins[2])},) * {ins[3]}"
        if op == OP_EXTRACT:
            return f"{use(ins[2])}[{use(ins[3])}]"
        if op == OP_INSERT:
            return f"vinsert({use(ins[2])}, {use(ins[3])}, {use(ins[4])})"
        if op == OP_REDUCE:
            return f"vreduce({use(ins[2])}, {ins[3]!r}, {ins[4]}, {ins[5]})"
        if op == OP_MEMSET:
            self.emit(
                ind, f"memset(mem, {use(ins[1])}, {use(ins[2])}, {use(ins[3])}, {ins[4]})"
            )
            return None
        if op == OP_MEMCPY:
            self.emit(
                ind, f"memcpy(mem, {use(ins[1])}, {use(ins[2])}, {use(ins[3])}, {ins[4]})"
            )
            return None
        # an opcode the dispatch loop rejects is rejected when executed
        self.emit(ind, f"raise InterpError({f'bytecode VM: bad opcode {op!r}'!r})")
        return None

    # -- the whole function -------------------------------------------------
    def source(self) -> str:
        bodies: Dict[int, List[str]] = {}
        done = 0
        while done < len(self.labels):
            label = self.labels[done]
            done += 1
            self.lines = []
            self.current = label
            self.unit(label, 0)
            bodies[label] = self.lines
        bf = self.bf
        if len(set(bf.param_regs)) == len(bf.param_regs):
            params = "".join(f", r{r}" for r in bf.param_regs)
            head = []
        else:  # a repeated parameter register: the last argument wins
            params = "".join(f", a{i}" for i in range(len(bf.param_regs)))
            head = [f"    r{r} = a{i}" for i, r in enumerate(bf.param_regs)]
        out = [f"def _f(env, depth, steps{params}):", *_FN_HEADER, *head,
               "    b = 0", "    while True:"]

        def tree(labels: List[int], ind: int) -> None:
            if len(labels) == 1:
                out.append("    " * ind + "while True:")
                pad = "    " * (ind + 1)
                out.extend(pad + line for line in bodies[labels[0]])
                return
            mid = len(labels) // 2
            out.append("    " * ind + f"if b < {labels[mid]}:")
            tree(labels[:mid], ind + 1)
            out.append("    " * ind + "else:")
            tree(labels[mid:], ind + 1)

        tree(sorted(self.labels), 2)
        return "\n".join(out) + "\n"


def translate_function(bf: BytecodeFunction) -> BytecodeFunction:
    """``bf`` with its generated Python function attached as ``native``."""
    tr = _Translator(bf)
    src = tr.source()
    namespace = dict(_NAMESPACE, **tr.bound)
    exec(compile(src, f"<translated @{bf.name}>", "exec"), namespace)
    return BytecodeFunction(bf.name, bf.module_name, bf.nparams, bf.param_regs,
                            bf.reg_init, bf.code, native=namespace["_f"])


def translate_module(bm: BytecodeModule) -> BytecodeModule:
    """Translate every function of a compiled module (the input is left
    untouched)."""
    return BytecodeModule(
        bm.name, tuple(translate_function(bf) for bf in bm.functions), bm.globals_spec
    )

"""Fused superblock kernels for the bytecode VM.

A post-compile pass over :class:`~repro.machine.bytecode.BytecodeModule` that
finds maximal straight-line runs of side-effect-free int/float ALU
instructions (no loads/stores/calls/control flow, nothing that can raise
except ``fptosi`` whose program order is preserved) and lowers each run to a
single ``OP_FUSED`` instruction carrying a precompiled Python kernel.

Lowering rules
--------------
* A fused instruction ``(OP_FUSED, kernel, span, original_first_ins)`` sits
  at the run's first position; the remaining ``span - 1`` positions *keep*
  their original instructions as padding.  Code offsets, branch targets and
  segment costs are therefore unchanged, so segment fuel accounting stays
  exact, and careful-mode replay restores per-op dispatch by substituting
  ``ins[3]`` for the head — ``FuelExhausted`` parity is bit-exact.
* Kernels are generated source compiled once and cached process-wide by
  source text: operand registers are gathered once into locals, constants
  are inlined as literals, results are scattered once at the end.
* Masks are applied once per dependence chain instead of once per
  instruction: an int result consumed only by in-run ``add/sub/mul/and/or/
  xor`` at the same width, and dead outside the run, is kept in raw
  (uncanonicalised) form — raw values are congruent to canonical values
  mod 2**bits, which is all those consumers observe.
* Every op is emitted as scalar Python in program order, so a kernel's
  data dependences hold by construction.

Fused code holds function objects and is **not picklable**, so fused
artifacts live only in the in-process measurement store
(:class:`~repro.machine.artifacts.ArtifactStore`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.machine.bytecode import (
    OP_ADD,
    OP_AND,
    OP_ASHR,
    OP_COPY,
    OP_EQ,
    OP_FADD,
    OP_FEQ,
    OP_FGE,
    OP_FGT,
    OP_FLE,
    OP_FLT,
    OP_FMUL,
    OP_FNE,
    OP_FPTOSI,
    OP_FSUB,
    OP_FUSED,
    OP_GEP,
    OP_LSHR,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_SELECT,
    OP_SGE,
    OP_SGT,
    OP_SHL,
    OP_SITOFP,
    OP_SLE,
    OP_SLT,
    OP_SUB,
    OP_UGE,
    OP_UGT,
    OP_ULE,
    OP_ULT,
    OP_WRAP,
    OP_XOR,
    READ_FIELDS,
    TUPLE_READ_FIELDS,
    BytecodeFunction,
    BytecodeModule,
)

__all__ = ["fuse_module", "fuse_function", "fused_stats", "MIN_RUN"]

#: minimum run length worth a kernel call
MIN_RUN = 3
#: maximum ops folded into one kernel (long runs are chunked)
MAX_RUN = 256

# int binary ops with layout (op, d, a, b, mask, sign, period)
_INT_BIN_SYM = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*", OP_AND: "&", OP_OR: "|", OP_XOR: "^"}
# shifts with layout (op, d, a, b, bits, mask, sign, period)
_SHIFT_OPS = frozenset({OP_SHL, OP_ASHR, OP_LSHR})
# float binary ops (op, d, a, b)
_FLT_BIN_SYM = {OP_FADD: "+", OP_FSUB: "-", OP_FMUL: "*"}
# plain compares (op, d, a, b) — int signed and float share Python operators
_CMP_SYM = {
    OP_SLT: "<", OP_SLE: "<=", OP_SGT: ">", OP_SGE: ">=", OP_EQ: "==", OP_NE: "!=",
    OP_FLT: "<", OP_FLE: "<=", OP_FGT: ">", OP_FGE: ">=", OP_FEQ: "==",
}
# unsigned compares (op, d, a, b, mask)
_UCMP_SYM = {OP_ULT: "<", OP_ULE: "<=", OP_UGT: ">", OP_UGE: ">="}

#: ops a fused run may contain (pure; only fptosi can raise, order preserved)
FUSIBLE = frozenset(
    set(_INT_BIN_SYM) | _SHIFT_OPS | set(_FLT_BIN_SYM) | set(_CMP_SYM) | set(_UCMP_SYM)
    | {OP_SELECT, OP_COPY, OP_WRAP, OP_SITOFP, OP_FPTOSI, OP_GEP}
)

# mask deferral: raw values are valid mod 2**bits for these producers and
# are only observed mod 2**bits by these consumers (at equal mask)
_DEFER_PRODUCERS = frozenset(_INT_BIN_SYM)
_DEFER_CONSUMERS = frozenset(_INT_BIN_SYM)

#: process-wide kernel cache: generated source -> compiled callable
_KERNEL_CACHE: "OrderedDict[str, object]" = OrderedDict()
_KERNEL_CACHE_MAX = 4096


def _reads_of(ins) -> List[int]:
    """Register read fields of one decoded instruction."""
    op = ins[0]
    regs = [ins[f] for f in READ_FIELDS.get(op, ())]
    for f in TUPLE_READ_FIELDS.get(op, ()):
        regs.extend(ins[f])
    return regs


def _dest_of(ins) -> Optional[int]:
    # every fusible op writes field 1
    return ins[1]


def _lit(value) -> Optional[str]:
    """Source literal for an inlinable constant, or None if not inlinable."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return str(value) if value >= 0 else f"({value})"
    if isinstance(value, float):
        if not math.isfinite(value):
            return None  # repr(inf/nan) is not a literal
        return f"({value!r})"
    return None


def _gen_source(run: Tuple[tuple, ...], const_lits: Dict[int, str],
                total_reads: Dict[int, int]) -> str:
    """Generate kernel source for one fused run.

    ``const_lits`` maps constant-pool registers to source literals;
    ``total_reads`` counts register reads across the *whole* function, used
    to decide which results are live outside the run (must be scattered
    canonically) vs dead in-run temporaries (eligible for mask deferral).
    """
    k = len(run)
    # -- def/use analysis (runs are SSA: each dest is written exactly once) --
    producer_of: Dict[int, int] = {}
    consumers: List[List[int]] = [[] for _ in range(k)]
    in_run_reads: Dict[int, int] = {}
    for j, ins in enumerate(run):
        for r in _reads_of(ins):
            in_run_reads[r] = in_run_reads.get(r, 0) + 1
            p = producer_of.get(r)
            if p is not None:
                consumers[p].append(j)
        producer_of[_dest_of(ins)] = j

    def live_out(reg: int) -> bool:
        return total_reads.get(reg, 0) - in_run_reads.get(reg, 0) > 0

    # -- mask deferral ------------------------------------------------------
    deferred = [False] * k
    for i, ins in enumerate(run):
        if ins[0] not in _DEFER_PRODUCERS or live_out(ins[1]):
            continue
        mask = ins[4]
        ok = True
        for j in consumers[i]:
            cj = run[j]
            if cj[0] not in _DEFER_CONSUMERS or cj[4] != mask:
                ok = False
                break
        deferred[i] = ok

    # -- emission -----------------------------------------------------------
    gathers: Dict[int, str] = {}
    defs: Dict[int, str] = {}
    body: List[str] = []

    def use(reg: int) -> str:
        got = defs.get(reg)
        if got is not None:
            return got
        lit = const_lits.get(reg)
        if lit is not None:
            return lit
        got = gathers.get(reg)
        if got is None:
            got = f"g{reg}"
            gathers[reg] = got
        return got

    def canon(d: str, mask: int, sign: int, period: int) -> None:
        body.append(f"    {d} = {d} - {period} if {d} >= {sign} else {d}")

    def emit_scalar(i: int, ins) -> None:
        op = ins[0]
        d = f"v{i}"
        if op in _INT_BIN_SYM:
            a, b = use(ins[2]), use(ins[3])
            expr = f"{a} {_INT_BIN_SYM[op]} {b}"
            if deferred[i]:
                body.append(f"    {d} = {expr}")
            else:
                body.append(f"    {d} = ({expr}) & {ins[4]}")
                canon(d, ins[4], ins[5], ins[6])
        elif op in _SHIFT_OPS:
            a, b = use(ins[2]), use(ins[3])
            if op == OP_SHL:
                body.append(f"    {d} = ({a} << ({b} % {ins[4]})) & {ins[5]}")
            elif op == OP_ASHR:
                body.append(f"    {d} = ({a} >> ({b} % {ins[4]})) & {ins[5]}")
            else:  # OP_LSHR
                body.append(f"    {d} = (({a} & {ins[5]}) >> ({b} % {ins[4]})) & {ins[5]}")
            canon(d, ins[5], ins[6], ins[7])
        elif op in _FLT_BIN_SYM:
            body.append(f"    {d} = {use(ins[2])} {_FLT_BIN_SYM[op]} {use(ins[3])}")
        elif op == OP_FNE:
            a, b = use(ins[2]), use(ins[3])
            body.append(f"    {d} = 1 if ({a} == {a} and {b} == {b} and {a} != {b}) else 0")
        elif op in _CMP_SYM:
            body.append(f"    {d} = 1 if {use(ins[2])} {_CMP_SYM[op]} {use(ins[3])} else 0")
        elif op in _UCMP_SYM:
            a, b, m = use(ins[2]), use(ins[3]), ins[4]
            body.append(f"    {d} = 1 if ({a} & {m}) {_UCMP_SYM[op]} ({b} & {m}) else 0")
        elif op == OP_SELECT:
            body.append(f"    {d} = {use(ins[3])} if {use(ins[2])} else {use(ins[4])}")
        elif op == OP_COPY:
            body.append(f"    {d} = {use(ins[2])}")
        elif op == OP_WRAP:
            body.append(f"    {d} = {use(ins[2])} & {ins[3]}")
            canon(d, ins[3], ins[4], ins[5])
        elif op == OP_SITOFP:
            body.append(f"    {d} = float({use(ins[2])})")
        elif op == OP_FPTOSI:
            body.append(f"    {d} = int({use(ins[2])}) & {ins[3]}")
            canon(d, ins[3], ins[4], ins[5])
        elif op == OP_GEP:
            body.append(f"    {d} = {use(ins[2])} + {use(ins[3])} * {ins[4]}")
        else:  # pragma: no cover - FUSIBLE and emit_scalar must stay in sync
            raise AssertionError(f"unfusible opcode {op}")
        defs[ins[1]] = d

    for i, ins in enumerate(run):
        emit_scalar(i, ins)

    scatter = [f"    R[{reg}] = {defs[reg]}" for reg in sorted(producer_of)
               if live_out(reg)]

    lines = ["def _k(R):"]
    lines.extend(f"    g{reg} = R[{reg}]" for reg in sorted(gathers))
    lines.extend(body)
    lines.extend(scatter)
    if not (body or scatter):
        lines.append("    pass")
    return "\n".join(lines)


def _kernel_for(source: str):
    """Compile (or fetch) the kernel callable for generated ``source``."""
    fn = _KERNEL_CACHE.get(source)
    if fn is not None:
        _KERNEL_CACHE.move_to_end(source)
        return fn
    ns: Dict[str, object] = {}
    exec(compile(source, "<repro-fused-kernel>", "exec"), {}, ns)
    fn = ns["_k"]
    _KERNEL_CACHE[source] = fn
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_MAX:
        _KERNEL_CACHE.popitem(last=False)
    return fn


def fuse_function(bf: BytecodeFunction) -> Tuple[BytecodeFunction, int, int]:
    """Fuse one function; returns ``(fused_fn, n_kernels, n_fused_ops)``."""
    code = list(bf.code)
    n = len(code)
    # whole-function register read counts (for run-local liveness)
    total_reads: Dict[int, int] = {}
    for ins in code:
        for r in _reads_of(ins):
            total_reads[r] = total_reads.get(r, 0) + 1
    # constant-pool registers carry their value in reg_init; name registers
    # are initialised to None and always written before read (SSA)
    const_lits: Dict[int, str] = {}
    for reg, val in enumerate(bf.reg_init):
        if val is not None:
            lit = _lit(val)
            if lit is not None:
                const_lits[reg] = lit

    kernels = 0
    fused_ops = 0
    i = 0
    while i < n:
        if code[i][0] not in FUSIBLE:
            i += 1
            continue
        j = i
        while j < n and code[j][0] in FUSIBLE:
            j += 1
        start = i
        while j - start >= MIN_RUN:
            span = min(j - start, MAX_RUN)
            run = tuple(code[start:start + span])
            src = _gen_source(run, const_lits, total_reads)
            kern = _kernel_for(src)
            code[start] = (OP_FUSED, kern, span, code[start])
            kernels += 1
            fused_ops += span
            start += span
        i = j
    if not kernels:
        return bf, 0, 0
    fused = BytecodeFunction(bf.name, bf.module_name, bf.nparams, bf.param_regs,
                             bf.reg_init, tuple(code))
    return fused, kernels, fused_ops


def fuse_module(bm: BytecodeModule) -> Tuple[BytecodeModule, Dict[str, int]]:
    """Fuse every function of a compiled module.

    Returns ``(fused_module, stats)`` with ``stats = {"kernels": ...,
    "fused_ops": ...}``.  The input module is left untouched (functions
    without fusible runs are shared).
    """
    fns = []
    kernels = 0
    fused_ops = 0
    for bf in bm.functions:
        ffn, nk, nops = fuse_function(bf)
        fns.append(ffn)
        kernels += nk
        fused_ops += nops
    if not kernels:
        return bm, {"kernels": 0, "fused_ops": 0}
    out = BytecodeModule(bm.name, tuple(fns), bm.globals_spec)
    return out, {"kernels": kernels, "fused_ops": fused_ops}


def fused_stats(bm: BytecodeModule) -> Dict[str, int]:
    """Count fused kernels/ops present in ``bm`` (0/0 for unfused modules)."""
    kernels = 0
    fused_ops = 0
    for bf in bm.functions:
        for ins in bf.code:
            if ins[0] == OP_FUSED:
                kernels += 1
                fused_ops += ins[2]
    return {"kernels": kernels, "fused_ops": fused_ops}

"""Program analyses shared by the optimisation passes.

Provides CFG reachability, dominator trees, natural-loop detection with
trip-count pattern matching, use counting, and side-effect/purity queries.
These mirror the LLVM analyses the corresponding transformation passes
consume (DominatorTree, LoopInfo, ScalarEvolution's constant trip counts,
AAResults in a crude alloca-escape form).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.ir import Const, Function, Instr, Module, Operand

__all__ = [
    "reachable_blocks",
    "dominators",
    "immediate_dominators",
    "dominates",
    "Loop",
    "find_loops",
    "constant_trip_count",
    "use_counts",
    "has_side_effects",
    "is_pure_instr",
    "function_may_write",
    "function_may_read",
    "escaped_allocas",
    "module_profile",
    "profile_delta",
    "rpo_order",
]

#: Opcodes that read memory.
_READS = frozenset({"load", "vload", "memcpy"})
#: Opcodes that write memory or otherwise have observable effects.
_WRITES = frozenset({"store", "vstore", "memset", "memcpy", "output"})


def reachable_blocks(fn: Function) -> Set[str]:
    """Block names reachable from the entry block."""
    entry = fn.entry.name
    seen = {entry}
    stack = [entry]
    while stack:
        for succ in fn.blocks[stack.pop()].successors():
            # dangling targets (deleted blocks referenced from unreachable
            # code) are skipped; the verifier flags them when reachable
            if succ not in seen and succ in fn.blocks:
                seen.add(succ)
                stack.append(succ)
    return seen


def rpo_order(fn: Function) -> List[str]:
    """Reverse post-order over reachable blocks (good pass iteration order)."""
    seen: Set[str] = set()
    post: List[str] = []

    entry = fn.entry.name
    stack: List[Tuple[str, int]] = [(entry, 0)]
    seen.add(entry)
    while stack:
        node, idx = stack[-1]
        succs = fn.blocks[node].successors()
        if idx < len(succs):
            stack[-1] = (node, idx + 1)
            nxt = succs[idx]
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, 0))
        else:
            post.append(node)
            stack.pop()
    return post[::-1]


def immediate_dominators(fn: Function) -> Dict[str, Optional[str]]:
    """Cooper-Harvey-Kennedy iterative idom computation over reachable blocks."""
    return _immediate_dominators(fn, fn.predecessors())


def _immediate_dominators(
    fn: Function, preds: Dict[str, List[str]]
) -> Dict[str, Optional[str]]:
    order = rpo_order(fn)
    index = {name: i for i, name in enumerate(order)}
    entry = fn.entry.name
    idom: Dict[str, Optional[str]] = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == entry:
                continue
            candidates = [p for p in preds[node] if p in idom and p in index]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = intersect(new, p)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    idom[entry] = None
    return idom


def dominators(fn: Function) -> Dict[str, Set[str]]:
    """Full dominator sets (block -> blocks that dominate it, inclusive)."""
    idom = immediate_dominators(fn)
    doms: Dict[str, Set[str]] = {}
    for node in idom:
        cur: Optional[str] = node
        chain: Set[str] = set()
        while cur is not None:
            chain.add(cur)
            cur = idom[cur]
        doms[node] = chain
    return doms


def dominates(doms: Dict[str, Set[str]], a: str, b: str) -> bool:
    """Whether block ``a`` dominates block ``b`` given precomputed sets."""
    return a in doms.get(b, set())


@dataclass
class Loop:
    """A natural loop: header plus the set of body blocks (header included).

    ``latches`` are blocks inside the loop branching back to the header;
    ``preheader`` is the unique out-of-loop predecessor of the header when one
    exists; ``exits`` are out-of-loop successor blocks.
    """

    header: str
    blocks: Set[str]
    latches: List[str] = field(default_factory=list)
    preheader: Optional[str] = None
    exits: Set[str] = field(default_factory=set)
    depth: int = 1
    parent: Optional["Loop"] = None


def find_loops(fn: Function) -> List[Loop]:
    """Detect natural loops via back edges (edge u->h where h dominates u).

    Blocks are visited in ``fn.blocks`` order, never in set order, so the
    loops and their latches come out the same under any string hash seed."""
    preds = fn.predecessors()
    idom = _immediate_dominators(fn, preds)  # keys: the reachable blocks

    def dominates_(a: str, b: str) -> bool:
        cur: Optional[str] = b
        while cur is not None:
            if cur == a:
                return True
            cur = idom[cur]
        return False

    raw: Dict[str, Loop] = {}
    for name in fn.blocks:
        if name not in idom:
            continue
        for succ in fn.blocks[name].successors():
            if succ in idom and dominates_(succ, name):
                loop = raw.get(succ)
                if loop is None:
                    loop = Loop(header=succ, blocks={succ})
                    raw[succ] = loop
                loop.latches.append(name)
                # walk predecessors from the latch up to the header
                stack = [name]
                while stack:
                    blk = stack.pop()
                    if blk in loop.blocks:
                        continue
                    loop.blocks.add(blk)
                    stack.extend(p for p in preds[blk] if p in idom)

    loops = list(raw.values())
    for loop in loops:
        outside_preds = [p for p in preds[loop.header] if p not in loop.blocks]
        if len(outside_preds) == 1:
            loop.preheader = outside_preds[0]
        for blk in loop.blocks:
            for succ in fn.blocks[blk].successors():
                if succ not in loop.blocks:
                    loop.exits.add(succ)
    # nesting depth & parents (smallest enclosing loop)
    for loop in loops:
        enclosing = [l for l in loops if l is not loop and loop.blocks < l.blocks]
        if enclosing:
            loop.parent = min(enclosing, key=lambda l: len(l.blocks))
        loop.depth = 1 + sum(1 for l in enclosing)
    loops.sort(key=lambda l: -l.depth)  # innermost first
    return loops


def _as_int(v: Operand) -> Optional[int]:
    if isinstance(v, Const) and isinstance(v.value, int):
        return v.value
    return None


def constant_trip_count(fn: Function, loop: Loop) -> Optional[Tuple[str, int, int, int]]:
    """Pattern-match a canonical counted loop; return ``(iv, start, step, trips)``.

    Recognises the shape produced by ``mem2reg`` over the builder's
    ``counted_loop``: a header phi ``i = phi [start, pre], [next, latch]``, an
    in-loop update ``next = add i, step`` and a header-terminating
    ``icmp slt i, bound; br``.  Returns ``None`` when the loop is not in this
    canonical form or any quantity is non-constant — matching LLVM's SCEV
    giving up on non-affine loops.
    """
    header_blk = fn.blocks[loop.header]
    term = header_blk.terminator
    if term is None or term.op != "br":
        return None
    targets = term.attrs["targets"]
    # one target must be in-loop, the other the exit
    in_loop = [t for t in targets if t in loop.blocks]
    if len(in_loop) != 1:
        return None
    cond = term.args[0]
    if not isinstance(cond, str):
        return None
    defs = fn.defs()
    cmp_inst = defs.get(cond)
    if cmp_inst is None or cmp_inst.op != "icmp" or cmp_inst.attrs.get("pred") != "slt":
        return None
    iv, bound = cmp_inst.args
    if not isinstance(iv, str):
        return None
    bound_c = _as_int(bound)
    if bound_c is None:
        return None
    phi = defs.get(iv)
    if phi is None or phi.op != "phi":
        return None
    incoming = phi.attrs["incoming"]
    if len(incoming) != 2:
        return None
    start_c = None
    step_c = None
    for blk, val in incoming:
        if blk in loop.blocks:
            if not isinstance(val, str):
                return None
            upd = defs.get(val)
            if upd is None or upd.op != "add":
                return None
            a, b = upd.args
            if a == iv:
                step_c = _as_int(b)
            elif b == iv:
                step_c = _as_int(a)
            else:
                return None
        else:
            start_c = _as_int(val)
    if start_c is None or step_c is None or step_c <= 0:
        return None
    if bound_c <= start_c:
        return iv, start_c, step_c, 0
    trips = (bound_c - start_c + step_c - 1) // step_c
    # the exit condition must be the only exit for the count to be exact
    exit_targets = {t for t in targets if t not in loop.blocks}
    for blk in loop.blocks:
        if blk == loop.header:
            continue
        for succ in fn.blocks[blk].successors():
            if succ not in loop.blocks:
                return None  # extra exit: count not guaranteed
    if not exit_targets:
        return None
    return iv, start_c, step_c, trips


def use_counts(fn: Function) -> Dict[str, int]:
    """Number of uses of each register in the function."""
    counts: Dict[str, int] = {}
    for inst in fn.instructions():
        for reg in inst.reg_operands():
            counts[reg] = counts.get(reg, 0) + 1
    return counts


def is_pure_instr(inst: Instr, module: Optional[Module] = None) -> bool:
    """Whether re-executing/removing the instruction is unobservable.

    Calls are pure only when the callee carries the ``readnone`` attribute —
    this is the hook through which ``function-attrs`` unlocks GVN/LICM/DCE,
    the interaction the paper singles out (§3.4).
    """
    op = inst.op
    if op in _WRITES or op in TERMINATOR_LIKE:
        return False
    if op in _READS:
        return False
    if op == "call":
        if module is None:
            return False
        callee = module.functions.get(inst.attrs["callee"])
        return callee is not None and "readnone" in callee.attrs
    if op in ("sdiv", "srem", "udiv", "urem"):
        # may trap on divide-by-zero unless divisor is a non-zero constant
        divisor = inst.args[1]
        return isinstance(divisor, Const) and divisor.value != 0
    if op == "alloca":
        return False  # address identity matters
    return True


TERMINATOR_LIKE = frozenset({"br", "jmp", "ret", "unreachable"})


def has_side_effects(inst: Instr, module: Optional[Module] = None) -> bool:
    """Whether the instruction writes memory / produces output / may trap."""
    op = inst.op
    if op in _WRITES:
        return True
    if op == "call":
        if module is None:
            return True
        callee = module.functions.get(inst.attrs["callee"])
        if callee is None:
            return True
        return "readnone" not in callee.attrs and "readonly" not in callee.attrs
    if op in ("sdiv", "srem", "udiv", "urem"):
        divisor = inst.args[1]
        return not (isinstance(divisor, Const) and divisor.value != 0)
    return False


def function_may_write(fn: Function, module: Module, _seen: Optional[Set[str]] = None) -> bool:
    """Conservatively: does ``fn`` (transitively) write memory or output?"""
    if _seen is None:
        _seen = set()
    if fn.name in _seen:
        return False
    _seen.add(fn.name)
    for inst in fn.instructions():
        if inst.op in ("store", "vstore", "memset", "memcpy", "output"):
            return True
        if inst.op == "call":
            callee = module.functions.get(inst.attrs["callee"])
            if callee is None:
                return True
            if "readnone" in callee.attrs or "readonly" in callee.attrs:
                continue
            if function_may_write(callee, module, _seen):
                return True
    return False


def function_may_read(fn: Function, module: Module, _seen: Optional[Set[str]] = None) -> bool:
    """Conservatively: does ``fn`` (transitively) read memory?"""
    if _seen is None:
        _seen = set()
    if fn.name in _seen:
        return False
    _seen.add(fn.name)
    for inst in fn.instructions():
        if inst.op in ("load", "vload", "memcpy"):
            return True
        if inst.op == "call":
            callee = module.functions.get(inst.attrs["callee"])
            if callee is None:
                return True
            if "readnone" in callee.attrs:
                continue
            if function_may_read(callee, module, _seen):
                return True
    return False


def escaped_allocas(fn: Function) -> Set[str]:
    """Allocas whose address flows somewhere other than direct load/store.

    An alloca used only as the pointer operand of loads/stores (and as gep
    base, for arrays) is private; passing it to a call, storing the pointer
    itself, or returning it makes it *escaped* and unpromotable.
    """
    escaped: Set[str] = set()
    alloca_regs = {i.res for i in fn.instructions() if i.op == "alloca"}
    derived: Dict[str, str] = {}  # gep result -> root alloca
    for inst in fn.instructions():
        if inst.op == "gep" and isinstance(inst.args[0], str):
            base = inst.args[0]
            root = derived.get(base, base)
            if root in alloca_regs:
                derived[inst.res] = root  # type: ignore[index]

    def root_of(reg: str) -> Optional[str]:
        r = derived.get(reg, reg)
        return r if r in alloca_regs else None

    for inst in fn.instructions():
        for pos, operand in enumerate(inst.operands()):
            if not isinstance(operand, str):
                continue
            root = root_of(operand)
            if root is None:
                continue
            if inst.op == "load" or inst.op == "vload":
                continue
            if inst.op in ("store", "vstore") and pos == 1:
                continue  # pointer operand of store is fine
            if inst.op in ("store", "vstore") and pos == 0:
                escaped.add(root)  # the address itself is stored
            elif inst.op == "gep" and pos == 0:
                continue
            elif inst.op in ("memset",) and pos == 0:
                continue
            elif inst.op == "memcpy":
                continue  # reads/writes through it but does not leak further
            else:
                escaped.add(root)
    return escaped


def module_profile(module: Module) -> Dict[str, object]:
    """A cheap IR fingerprint: sizes and the instruction-mix histogram.

    One linear walk over the module — no CFG analyses — so a
    :class:`~repro.compiler.pass_manager.PassTrace` can afford to take it
    after *every* pass application.  Returns::

        {"instrs": int, "blocks": int,
         "functions": {fn_name: n_instrs},
         "mix": {opcode: count}}
    """
    mix: Dict[str, int] = {}
    functions: Dict[str, int] = {}
    blocks = 0
    for fn in module.functions.values():
        blocks += len(fn.blocks)
        n = 0
        for inst in fn.instructions():
            n += 1
            mix[inst.op] = mix.get(inst.op, 0) + 1
        functions[fn.name] = n
    return {
        "instrs": sum(functions.values()),
        "blocks": blocks,
        "functions": functions,
        "mix": mix,
    }


def profile_delta(
    before: Dict[str, object], after: Dict[str, object]
) -> Dict[str, object]:
    """Non-zero differences between two :func:`module_profile` snapshots.

    Scalar fields (``instrs``/``blocks``) always appear; the ``mix`` and
    ``functions`` sub-dicts keep only the opcodes/functions whose counts
    changed, so a no-op pass compresses to ``{"instrs": 0, "blocks": 0}``.
    """
    out: Dict[str, object] = {
        "instrs": int(after["instrs"]) - int(before["instrs"]),
        "blocks": int(after["blocks"]) - int(before["blocks"]),
    }
    for field_name in ("mix", "functions"):
        b = before[field_name]
        a = after[field_name]
        changed = {
            k: a.get(k, 0) - b.get(k, 0)
            for k in sorted(set(a) | set(b))
            if a.get(k, 0) != b.get(k, 0)
        }
        if changed:
            out[field_name] = changed
    return out

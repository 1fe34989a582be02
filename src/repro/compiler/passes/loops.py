"""Loop transformation passes.

These are the passes whose orderings dominate the phase-ordering search
space: ``licm`` wants rotated loops, ``loop-unroll`` wants promoted
induction variables, ``slp-vectorizer`` wants unrolled bodies, and all of
them silently do nothing when their enabling passes have not run — the
coupling CITROEN's statistics features make visible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.analysis import (
    Loop,
    constant_trip_count,
    find_loops,
    has_side_effects,
    is_pure_instr,
    reachable_blocks,
    use_counts,
)
from repro.compiler.ir import Const, Function, I64, Instr, Module, Operand, PTR
from repro.compiler.pass_manager import FunctionPass, TargetInfo, register
from repro.compiler.passes.utils import (
    clone_blocks,
    ensure_preheader,
    remove_trivial_phis,
    resolve_chain,
)
from repro.compiler.statistics import StatsCollector

__all__ = [
    "LoopSimplify",
    "LCSSA",
    "LICM",
    "LoopRotate",
    "LoopUnroll",
    "LoopDeletion",
    "LoopIdiom",
    "IndVarSimplify",
    "LoopUnswitch",
]


def _loop_writes(fn: Function, module: Module, loop: Loop) -> bool:
    for bname in loop.blocks:
        for inst in fn.blocks[bname].instrs:
            if inst.op in ("store", "vstore", "memset", "memcpy", "output"):
                return True
            if inst.op == "call":
                callee = module.functions.get(inst.attrs["callee"])
                if callee is None or (
                    "readnone" not in callee.attrs and "readonly" not in callee.attrs
                ):
                    return True
    return False


def _defined_in_loop(fn: Function, loop: Loop) -> Set[str]:
    regs: Set[str] = set()
    for bname in loop.blocks:
        for inst in fn.blocks[bname].instrs:
            if inst.res is not None:
                regs.add(inst.res)
    return regs


@register
class LoopSimplify(FunctionPass):
    """Canonicalise loops: guarantee each has a dedicated preheader."""

    name = "loop-simplify"
    is_analysis = True

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):
            if loop.preheader is None or (
                fn.blocks[loop.preheader].terminator is not None
                and fn.blocks[loop.preheader].terminator.op != "jmp"
            ):
                ensure_preheader(fn, loop.header, loop.blocks)
                stats.bump(self.name, "NumInserted")
                changed = True
        return changed


@register
class LCSSA(FunctionPass):
    """Insert single-entry phis for loop values used outside the loop."""

    name = "lcssa"
    is_analysis = True

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        preds = fn.predecessors()
        for loop in find_loops(fn):
            inside = _defined_in_loop(fn, loop)
            defs = fn.defs()
            for exit_name in loop.exits:
                if exit_name not in fn.blocks:
                    continue
                exit_preds = preds[exit_name]
                if len(exit_preds) != 1 or exit_preds[0] not in loop.blocks:
                    continue
                src = exit_preds[0]
                # out-of-loop uses of in-loop values reached through this exit
                for bname, blk in fn.blocks.items():
                    if bname in loop.blocks or bname != exit_name:
                        continue
                    for inst in blk.non_phi_instrs():
                        for reg in list(inst.reg_operands()):
                            if reg in inside:
                                d = defs[reg]
                                phi = Instr(
                                    "phi",
                                    fn.fresh("lcssa"),
                                    d.ty,
                                    (),
                                    incoming=[(src, reg)],
                                )
                                blk.instrs.insert(0, phi)
                                inst.replace_uses({reg: phi.res})
                                stats.bump(self.name, "NumLCSSA")
                                changed = True
        return changed


@register
class LICM(FunctionPass):
    """Hoist loop-invariant computation to the preheader.

    Pure arithmetic is speculated freely; loads are hoisted only when the
    address is invariant and the loop body performs no memory writes at all
    (a crude but sound stand-in for LLVM's MemorySSA queries).
    """

    name = "licm"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):  # innermost first
            if loop.header not in fn.blocks:
                continue
            n_blocks = len(fn.blocks)
            pre = ensure_preheader(fn, loop.header, loop.blocks)
            changed |= len(fn.blocks) != n_blocks  # a preheader was inserted
            loop_writes = _loop_writes(fn, module, loop)
            hoisted_regs: Set[str] = set()
            moved: List[Instr] = []
            inside = _defined_in_loop(fn, loop)

            def invariant(v: Operand) -> bool:
                if isinstance(v, Const):
                    return True
                return v not in inside or v in hoisted_regs

            progress = True
            while progress:
                progress = False
                # block order, not set order: the hoist order is the output
                for bname in [b for b in fn.blocks if b in loop.blocks]:
                    blk = fn.blocks[bname]
                    remaining: List[Instr] = []
                    for inst in blk.instrs:
                        hoistable = False
                        if inst.res is not None and inst.res not in hoisted_regs:
                            if is_pure_instr(inst, module) and inst.op != "phi":
                                hoistable = all(invariant(a) for a in inst.operands())
                            elif inst.op in ("load",) and not loop_writes:
                                hoistable = all(invariant(a) for a in inst.operands())
                        if hoistable:
                            moved.append(inst)
                            hoisted_regs.add(inst.res)  # type: ignore[arg-type]
                            progress = True
                            changed = True
                        else:
                            remaining.append(inst)
                    blk.instrs = remaining
            if moved:
                pre_blk = fn.blocks[pre]
                term = pre_blk.instrs.pop()
                pre_blk.instrs.extend(moved)
                pre_blk.instrs.append(term)
                stats.bump(self.name, "NumHoisted", len(moved))
        return changed


def _canonical_loop(fn: Function, loop: Loop):
    """Shared precondition check: canonical counted loop with single exit.

    Returns ``(iv, start, step, trips, exit_block, body_entry)`` or ``None``.
    """
    tc = constant_trip_count(fn, loop)
    if tc is None:
        return None
    iv, start, step, trips = tc
    term = fn.blocks[loop.header].terminator
    targets = term.attrs["targets"]
    body_entry = next(t for t in targets if t in loop.blocks)
    exit_block = next(t for t in targets if t not in loop.blocks)
    # header must contain only phis + the cmp + br
    hdr = fn.blocks[loop.header]
    non_phi = hdr.non_phi_instrs()
    if len(non_phi) != 2:
        return None
    if len(loop.latches) != 1:
        return None
    preds = fn.predecessors()
    if any(p in loop.blocks for p in preds[exit_block] if p != loop.header):
        return None
    return iv, start, step, trips, exit_block, body_entry


@register
class LoopUnroll(FunctionPass):
    """Fully unroll small constant-trip-count loops."""

    name = "loop-unroll"
    max_trips = 64

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        # re-derive loops after each unroll: block structure changes
        for _ in range(8):
            loops = find_loops(fn)
            done = True
            for loop in loops:
                if any(b not in fn.blocks for b in loop.blocks):
                    continue
                if self._try_unroll(fn, loop, stats, target):
                    changed = True
                    done = False
                    break
            if done:
                break
        if changed:
            remove_trivial_phis(fn)
        return changed

    def _try_unroll(
        self, fn: Function, loop: Loop, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        canon = _canonical_loop(fn, loop)
        if canon is None:
            return False
        iv, start, step, trips, exit_block, body_entry = canon
        region = sorted(loop.blocks - {loop.header})
        body_size = sum(len(fn.blocks[b].instrs) for b in region)
        if trips > self.max_trips or trips * max(1, body_size) > target.unroll_threshold:
            return False
        pre = ensure_preheader(fn, loop.header, loop.blocks)
        hdr = fn.blocks[loop.header]
        phis = hdr.phis()
        latch = loop.latches[0]

        # current value of each header phi entering iteration j
        cur: Dict[str, Operand] = {}
        nxt_expr: Dict[str, Operand] = {}  # phi -> in-loop incoming operand
        for phi in phis:
            for b, v in phi.attrs["incoming"]:
                if b in loop.blocks:
                    nxt_expr[phi.res] = v
                else:
                    cur[phi.res] = v

        prev_tail = pre  # block whose terminator feeds the next iteration
        for j in range(trips):
            bmap, rmap = clone_blocks(fn, region, f"it{j}", value_map=dict(cur))
            # wire previous tail (preheader jmp or previous clone's latch
            # backedge) into this iteration's body entry
            fn.blocks[prev_tail].terminator.retarget(loop.header, bmap[body_entry])
            # the body entry's former predecessor was the header
            for phi in fn.blocks[bmap[body_entry]].phis():
                phi.attrs["incoming"] = [
                    (prev_tail if b == loop.header else b, v)
                    for b, v in phi.attrs["incoming"]
                ]
            # advance phi values through this iteration
            new_cur: Dict[str, Operand] = {}
            for phi in phis:
                expr = nxt_expr[phi.res]
                if isinstance(expr, str):
                    new_cur[phi.res] = rmap.get(expr, cur.get(expr, expr))
                else:
                    new_cur[phi.res] = expr
            cur = new_cur
            prev_tail = bmap[latch]

        if trips == 0:
            fn.blocks[pre].terminator.retarget(loop.header, exit_block)
        else:
            # last clone's latch exits the loop
            fn.blocks[prev_tail].terminator.retarget(loop.header, exit_block)

        # fix exit-block phis: the edge used to come from the header
        final_src = prev_tail if trips > 0 else pre
        for inst in fn.blocks[exit_block].phis():
            new_inc = []
            for b, v in inst.attrs["incoming"]:
                if b == loop.header:
                    if isinstance(v, str) and v in cur:
                        v = cur[v]
                    new_inc.append((final_src, v))
                else:
                    new_inc.append((b, v))
            inst.attrs["incoming"] = new_inc
        # uses of header phis after the loop (not via exit phis): replace with
        # final values
        fn.remove_blocks(list(loop.blocks))
        fn.replace_all_uses({p.res: cur[p.res] for p in phis if p.res in cur})
        stats.bump(self.name, "NumFullyUnrolled")
        stats.bump(self.name, "NumUnrolled", max(trips, 1))
        return True


@register
class LoopRotate(FunctionPass):
    """Rotate while-loops into guarded do-while form."""

    name = "loop-rotate"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):
            if any(b not in fn.blocks for b in loop.blocks):
                continue
            if self._try_rotate(fn, loop, stats):
                changed = True
        if changed:
            remove_trivial_phis(fn)
        return changed

    def _try_rotate(self, fn: Function, loop: Loop, stats: StatsCollector) -> bool:
        hdr = fn.blocks[loop.header]
        term = hdr.terminator
        if term is None or term.op != "br" or not isinstance(term.args[0], str):
            return False
        non_phi = hdr.non_phi_instrs()
        if len(non_phi) != 2:  # exactly [cmp, br]
            return False
        cmp_inst = non_phi[0]
        if cmp_inst.res != term.args[0] or cmp_inst.op not in ("icmp", "fcmp"):
            return False
        if len(loop.latches) != 1:
            return False
        latch = loop.latches[0]
        targets = term.attrs["targets"]
        in_loop = [t for t in targets if t in loop.blocks and t != loop.header]
        out_loop = [t for t in targets if t not in loop.blocks]
        if len(in_loop) != 1 or len(out_loop) != 1:
            return False
        body_entry, exit_block = in_loop[0], out_loop[0]
        preds = fn.predecessors()
        if len(preds[body_entry]) != 1:
            return False
        if fn.blocks[body_entry].phis():
            return False  # would interleave with the relocated header phis
        # single dedicated exit whose only in-loop predecessor is the header
        if any(p in loop.blocks and p != loop.header for p in preds[exit_block]):
            return False
        phis = hdr.phis()
        phi_init: Dict[str, Operand] = {}
        phi_next: Dict[str, Operand] = {}
        for phi in phis:
            for b, v in phi.attrs["incoming"]:
                if b in loop.blocks:
                    phi_next[phi.res] = v
                else:
                    phi_init[phi.res] = v
        if len(phi_init) != len(phis) or len(phi_next) != len(phis):
            return False
        # exit-block values flowing from the header must be expressible
        for inst in fn.blocks[exit_block].phis():
            for b, v in inst.attrs["incoming"]:
                if b == loop.header and isinstance(v, str):
                    if v not in phi_init and v in _defined_in_loop(fn, loop):
                        return False
        # the cmp may only use phis and loop-invariant values
        inside = _defined_in_loop(fn, loop)
        for a in cmp_inst.args:
            if isinstance(a, str) and a in inside and a not in phi_init:
                return False

        # header phis used past the loop get a merge phi in the exit block,
        # which names only the loop's own exit edges: an exit shared with
        # other predecessors (two unswitched copies of one loop) cannot
        # carry one, so there only uses in unreachable blocks (a dead arm
        # unswitching left behind) are let through, without a merge
        exit_blk = fn.blocks[exit_block]
        used_outside: Dict[str, List[str]] = {}
        for bname, blk in fn.blocks.items():
            if bname in loop.blocks:
                continue
            for inst in blk.instrs:
                if inst.op == "phi" and bname == exit_block:
                    continue
                for phi in phis:
                    if phi.res in inst.reg_operands():
                        used_outside.setdefault(phi.res, []).append(bname)
        if used_outside and any(p != loop.header for p in preds[exit_block]):
            live = reachable_blocks(fn)
            if any(b in live for blocks in used_outside.values() for b in blocks):
                return False
            used_outside = {}

        # preserve the original branch orientation (the exit may be either arm)
        orig_targets = term.attrs["targets"]
        rot_targets = tuple(
            body_entry if t == body_entry else exit_block for t in orig_targets
        )

        pre = ensure_preheader(fn, loop.header, loop.blocks)
        pre_blk = fn.blocks[pre]
        # guard in the preheader: the cmp with phis replaced by inits
        guard = cmp_inst.clone()
        guard.res = fn.fresh("rot.guard")
        guard.replace_uses(phi_init)
        pre_blk.instrs.insert(-1, guard)
        pre_term = pre_blk.terminator
        pre_term.op = "br"
        pre_term.args = [guard.res]
        pre_term.attrs = {"targets": rot_targets}

        # new latch condition: the cmp with phis replaced by next values
        latch_blk = fn.blocks[latch]
        latch_cmp = cmp_inst.clone()
        latch_cmp.res = fn.fresh("rot.cond")
        latch_cmp.replace_uses(phi_next)
        latch_term = latch_blk.terminator
        assert latch_term is not None and latch_term.op == "jmp"
        latch_blk.instrs.insert(-1, latch_cmp)
        latch_term.op = "br"
        latch_term.args = [latch_cmp.res]
        latch_term.attrs = {"targets": rot_targets}

        # move phis into the body entry with relabelled edges
        body_blk = fn.blocks[body_entry]
        for phi in reversed(phis):
            phi.attrs["incoming"] = [(pre, phi_init[phi.res]), (latch, phi_next[phi.res])]
            body_blk.instrs.insert(0, phi)
        hdr.instrs = [i for i in hdr.instrs if i.op != "phi"]

        # exit-block phi edges: header -> {pre, latch}
        for inst in fn.blocks[exit_block].phis():
            new_inc = []
            for b, v in inst.attrs["incoming"]:
                if b == loop.header:
                    v_pre = phi_init.get(v, v) if isinstance(v, str) else v
                    v_latch = phi_next.get(v, v) if isinstance(v, str) else v
                    new_inc.append((pre, v_pre))
                    new_inc.append((latch, v_latch))
                else:
                    new_inc.append((b, v))
            inst.attrs["incoming"] = new_inc
        # out-of-loop non-phi uses of header phis: value at exit is `next`
        # when leaving via the latch and `init` via the guard -> need a merge
        defs_outside_uses: Dict[str, Operand] = {}
        for phi in phis:
            if phi.res in used_outside:
                merge = Instr(
                    "phi",
                    fn.fresh("rot.merge"),
                    phi.ty,
                    (),
                    incoming=[(pre, phi_init[phi.res]), (latch, phi_next[phi.res])],
                )
                exit_blk.instrs.insert(0, merge)
                defs_outside_uses[phi.res] = merge.res
        if defs_outside_uses:
            for bname, blk in fn.blocks.items():
                if bname in loop.blocks or bname == exit_block:
                    continue
                for inst in blk.instrs:
                    inst.replace_uses(defs_outside_uses)
            # also non-phi users inside the exit block itself
            for inst in exit_blk.non_phi_instrs():
                inst.replace_uses(defs_outside_uses)

        # the header now contains [cmp, br]; it is bypassed entirely
        hdr_removable = True
        for bname, blk in fn.blocks.items():
            for inst in blk.instrs:
                if inst is not term and cmp_inst.res in inst.reg_operands():
                    hdr_removable = False
        if hdr_removable:
            fn.remove_blocks([loop.header])
        else:  # keep but unreachable; simplifycfg will deal with it
            pass
        stats.bump(self.name, "NumRotated")
        return True


@register
class LoopDeletion(FunctionPass):
    """Delete loops whose execution is unobservable."""

    name = "loop-deletion"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):
            if any(b not in fn.blocks for b in loop.blocks):
                continue
            canon = _canonical_loop(fn, loop)
            if canon is None:
                continue
            iv, start, step, trips, exit_block, _ = canon
            if _loop_writes(fn, module, loop):
                continue
            inside = _defined_in_loop(fn, loop)
            # no in-loop value may be used outside
            used_outside = False
            for bname, blk in fn.blocks.items():
                if bname in loop.blocks:
                    continue
                for inst in blk.instrs:
                    if inst.op == "phi":
                        for b, v in inst.attrs["incoming"]:
                            if b == loop.header and isinstance(v, str) and v in inside:
                                used_outside = True
                    else:
                        for reg in inst.reg_operands():
                            if reg in inside:
                                used_outside = True
            if used_outside:
                continue
            pre = ensure_preheader(fn, loop.header, loop.blocks)
            fn.blocks[pre].terminator.retarget(loop.header, exit_block)
            for inst in fn.blocks[exit_block].phis():
                inst.attrs["incoming"] = [
                    (pre if b == loop.header else b, v) for b, v in inst.attrs["incoming"]
                ]
            fn.remove_blocks(list(loop.blocks))
            stats.bump(self.name, "NumDeleted")
            changed = True
        if changed:
            remove_trivial_phis(fn)
        return changed


@register
class LoopIdiom(FunctionPass):
    """Recognise memset/memcpy loops and replace them with intrinsics."""

    name = "loop-idiom"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):
            if any(b not in fn.blocks for b in loop.blocks):
                continue
            if self._try_idiom(fn, module, loop, stats):
                changed = True
        if changed:
            remove_trivial_phis(fn)
        return changed

    def _try_idiom(
        self, fn: Function, module: Module, loop: Loop, stats: StatsCollector
    ) -> bool:
        canon = _canonical_loop(fn, loop)
        if canon is None:
            return False
        iv, start, step, trips, exit_block, body_entry = canon
        if step != 1 or trips <= 0:
            return False
        if len(loop.blocks) != 3:  # header, body, latch
            return False
        body = fn.blocks[body_entry]
        latch = loop.latches[0]
        inside = _defined_in_loop(fn, loop)
        # classify body instructions
        effects = [i for i in body.instrs if has_side_effects(i, module)]
        if [i.op for i in effects] != ["store"]:
            return False
        store = effects[0]
        val, ptr = store.args
        defs = fn.defs()
        gep = defs.get(ptr) if isinstance(ptr, str) else None
        if gep is None or gep.op != "gep" or gep.args[1] != iv:
            return False
        base = gep.args[0]
        if isinstance(base, str) and base in inside:
            return False
        # stored value must be loop-invariant (memset) or a stride-1 load (memcpy)
        latch_ok = all(
            i.op in ("add", "jmp", "phi") or not has_side_effects(i, module)
            for i in fn.blocks[latch].instrs
        )
        if not latch_ok:
            return False
        # no in-loop value other than the iv bookkeeping may be used outside
        for bname, blk in fn.blocks.items():
            if bname in loop.blocks:
                continue
            for inst in blk.instrs:
                for reg in inst.reg_operands():
                    if reg in inside:
                        return False
                if inst.op == "phi":
                    for b, v in inst.attrs["incoming"]:
                        if b == loop.header and isinstance(v, str) and v in inside:
                            return False

        pre = ensure_preheader(fn, loop.header, loop.blocks)
        pre_blk = fn.blocks[pre]
        elem_ty = gep.attrs["elem_ty"]
        new_instrs: List[Instr] = []
        if not isinstance(val, str) or val not in inside:
            # memset: invariant value stored to consecutive addresses
            base_ptr = self._offset_base(fn, new_instrs, base, start, elem_ty)
            new_instrs.append(
                Instr(
                    "memset",
                    None,
                    args=(base_ptr, val, Const(trips, I64)),
                    elem_ty=elem_ty,
                )
            )
            stats.bump(self.name, "NumMemSet")
        else:
            load = defs.get(val)
            if load is None or load.op != "load" or not isinstance(load.args[0], str):
                return False
            src_gep = defs.get(load.args[0])
            if src_gep is None or src_gep.op != "gep" or src_gep.args[1] != iv:
                return False
            src_base = src_gep.args[0]
            if isinstance(src_base, str) and src_base in inside:
                return False
            if src_gep.attrs["elem_ty"].byte_size() != elem_ty.byte_size():
                return False
            # strict no-overlap requirement: distinct allocas or globals
            if not self._provably_noalias(fn, base, src_base):
                return False
            dst_ptr = self._offset_base(fn, new_instrs, base, start, elem_ty)
            src_ptr = self._offset_base(fn, new_instrs, src_base, start, elem_ty)
            new_instrs.append(
                Instr(
                    "memcpy",
                    None,
                    args=(dst_ptr, src_ptr, Const(trips, I64)),
                    elem_ty=elem_ty,
                )
            )
            stats.bump(self.name, "NumMemCpy")
        term = pre_blk.instrs.pop()
        pre_blk.instrs.extend(new_instrs)
        pre_blk.instrs.append(term)
        term.retarget(loop.header, exit_block)
        for inst in fn.blocks[exit_block].phis():
            inst.attrs["incoming"] = [
                (pre if b == loop.header else b, v) for b, v in inst.attrs["incoming"]
            ]
        fn.remove_blocks(list(loop.blocks))
        return True

    @staticmethod
    def _offset_base(
        fn: Function, out: List[Instr], base: Operand, start: int, elem_ty
    ) -> Operand:
        if start == 0:
            return base
        gep = Instr(
            "gep",
            fn.fresh("idiom"),
            ty=PTR,
            args=(base, Const(start, I64)),
            elem_ty=elem_ty,
        )
        out.append(gep)
        return gep.res

    @staticmethod
    def _provably_noalias(fn: Function, a: Operand, b: Operand) -> bool:
        if not (isinstance(a, str) and isinstance(b, str)):
            return False
        defs = fn.defs()
        da, db = defs.get(a), defs.get(b)
        if da is None or db is None:
            return False
        if da.op == "alloca" and db.op == "alloca":
            return a != b
        if da.op == "gaddr" and db.op == "gaddr":
            return da.attrs["name"] != db.attrs["name"]
        if {da.op, db.op} == {"alloca", "gaddr"}:
            return True
        return False


@register
class IndVarSimplify(FunctionPass):
    """Widen 32-bit induction variables that are only sign-extended."""

    name = "indvars"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):
            if loop.header not in fn.blocks:
                continue
            tc = constant_trip_count(fn, loop)
            if tc is None:
                continue
            iv = tc[0]
            defs = fn.defs()
            phi = defs.get(iv)
            if phi is None or phi.ty.bits != 32:
                continue
            # all uses: the update add, the exit compare, and sexts to i64
            uses: List[Instr] = []
            for inst in fn.instructions():
                if iv in inst.reg_operands():
                    uses.append(inst)
            sexts = [u for u in uses if u.op == "sext" and u.ty.bits == 64]
            others = [u for u in uses if u.op not in ("sext",)]
            if not sexts:
                continue
            if not all(u.op in ("add", "icmp") for u in others):
                continue
            upd = next((u for u in others if u.op == "add"), None)
            if upd is None:
                continue
            # retype the recurrence to i64
            phi.ty = I64
            phi.attrs["incoming"] = [
                (b, Const(v.value, I64) if isinstance(v, Const) else v)
                for b, v in phi.attrs["incoming"]
            ]
            upd.ty = I64
            upd.args = [Const(a.value, I64) if isinstance(a, Const) else a for a in upd.args]
            for u in others:
                if u.op == "icmp":
                    u.args = [Const(a.value, I64) if isinstance(a, Const) else a for a in u.args]
            mapping = {s.res: iv for s in sexts}
            for blk in fn.blocks.values():
                blk.instrs = [i for i in blk.instrs if i not in sexts]
            fn.replace_all_uses(mapping)
            stats.bump(self.name, "NumWidened")
            changed = True
        return changed


@register
class LoopUnswitch(FunctionPass):
    """Hoist a loop-invariant conditional branch out of the loop by
    duplicating the loop body (one version per branch direction)."""

    name = "loop-unswitch"
    max_loop_size = 40

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        for loop in find_loops(fn):
            if any(b not in fn.blocks for b in loop.blocks):
                continue
            if self._try_unswitch(fn, loop, stats):
                remove_trivial_phis(fn)
                return True  # one unswitch per run (size doubles)
        return False

    def _try_unswitch(self, fn: Function, loop: Loop, stats: StatsCollector) -> bool:
        size = sum(len(fn.blocks[b].instrs) for b in loop.blocks)
        if size > self.max_loop_size:
            return False
        if len(loop.exits) != 1:
            return False
        exit_block = next(iter(loop.exits))
        preds = fn.predecessors()
        inside = _defined_in_loop(fn, loop)
        # find an invariant conditional branch that is not the exit branch
        cond_blk = None
        for bname in loop.blocks:
            term = fn.blocks[bname].terminator
            if term is None or term.op != "br":
                continue
            if any(t not in loop.blocks for t in term.attrs["targets"]):
                continue  # the loop-exit branch stays
            cond = term.args[0]
            if isinstance(cond, str) and cond in inside:
                continue
            cond_blk = bname
            cond_val = cond
            break
        if cond_blk is None:
            return False
        # in-loop values used outside the loop (directly, not via exit phis)
        # need merge phis in the exit; they are necessarily defined in blocks
        # dominating the exit (SSA), so a two-way phi over the two loop
        # versions is always legal
        exit_phis = fn.blocks[exit_block].phis()
        escaping: Set[str] = set()
        for bname, blk in fn.blocks.items():
            if bname in loop.blocks:
                continue
            for inst in blk.instrs:
                if bname == exit_block and inst in exit_phis:
                    continue
                for reg in inst.reg_operands():
                    if reg in inside:
                        escaping.add(reg)
                if inst.op == "phi" and bname != exit_block:
                    for _b, v in inst.attrs["incoming"]:
                        if isinstance(v, str) and v in inside:
                            escaping.add(v)

        pre = ensure_preheader(fn, loop.header, loop.blocks)
        region = sorted(loop.blocks)
        bmap, rmap = clone_blocks(fn, region, "unsw")
        # specialise: original takes the true arm, clone takes the false arm
        true_term = fn.blocks[cond_blk].terminator
        t_true, t_false_orig = true_term.attrs["targets"]
        true_term.op = "jmp"
        true_term.args = []
        true_term.attrs = {"target": t_true}
        if t_false_orig != t_true:
            # the no-longer-taken arm loses its edge from cond_blk
            for phi in fn.blocks[t_false_orig].phis():
                phi.attrs["incoming"] = [
                    (bb, v) for bb, v in phi.attrs["incoming"] if bb != cond_blk
                ]
        clone_term = fn.blocks[bmap[cond_blk]].terminator
        t_true_clone, t_false = clone_term.attrs["targets"]
        clone_term.op = "jmp"
        clone_term.args = []
        clone_term.attrs = {"target": t_false}
        if t_true_clone != t_false:
            for phi in fn.blocks[t_true_clone].phis():
                phi.attrs["incoming"] = [
                    (bb, v) for bb, v in phi.attrs["incoming"] if bb != bmap[cond_blk]
                ]
        # guard in the preheader chooses the version
        pre_term = fn.blocks[pre].terminator
        pre_term.op = "br"
        pre_term.args = [cond_val]
        pre_term.attrs = {"targets": (loop.header, bmap[loop.header])}
        # the clone's header phis inherit the preheader edge label unchanged
        # (clone_blocks kept out-of-region labels); nothing to fix there.
        # exit block now has predecessors from both versions
        for phi in exit_phis:
            extra = []
            for b, v in phi.attrs["incoming"]:
                if b in bmap:
                    nv = rmap.get(v, v) if isinstance(v, str) else v
                    extra.append((bmap[b], nv))
            phi.attrs["incoming"] = phi.attrs["incoming"] + extra
        # merge phis for in-loop values escaping past the exit: each value
        # dominates every exit predecessor (it dominated the exit before the
        # clone), so a per-version phi is legal
        if escaping:
            exit_blk = fn.blocks[exit_block]
            clone_names = set(bmap.values())
            exit_preds = fn.predecessors()[exit_block]
            defs = fn.defs()
            merge_map: Dict[str, Operand] = {}
            for reg in sorted(escaping):
                incoming = []
                for p in exit_preds:
                    incoming.append((p, rmap.get(reg, reg) if p in clone_names else reg))
                phi = Instr("phi", fn.fresh("unsw.merge"), defs[reg].ty, (), incoming=incoming)
                exit_blk.instrs.insert(0, phi)
                merge_map[reg] = phi.res
            new_phis = {id(i) for i in exit_blk.phis()}
            for bname, blk in fn.blocks.items():
                if bname in loop.blocks or bname in clone_names:
                    continue
                for inst in blk.instrs:
                    if id(inst) in new_phis or (bname == exit_block and inst in exit_phis):
                        continue
                    inst.replace_uses(merge_map)
        stats.bump(self.name, "NumBranches")
        return True

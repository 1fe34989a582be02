"""Vectorisation passes: ``slp-vectorizer``, ``loop-vectorize``,
``vector-combine``.

The SLP vectoriser implements the paper's motivating example end-to-end: a
manually-unrolled dot-product reduction (Fig 5.1a) becomes a vector
multiply + horizontal reduction *only if* ``mem2reg`` ran first (the chain
must be in registers) and ``instcombine`` did *not* widen the arithmetic to
i64 in between (too few i64 lanes fit a vector register, so profitability
fails).  Both vectorisers report the statistics CITROEN's cost model keys
on (``NumVectorInstructions``, ``LoopsVectorized``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compiler.analysis import (
    constant_trip_count,
    find_loops,
    has_side_effects,
    use_counts,
)
from repro.compiler.ir import (
    Const,
    Function,
    I64,
    Instr,
    Module,
    Operand,
    PTR,
    Type,
    vec,
)
from repro.compiler.pass_manager import FunctionPass, TargetInfo, register
from repro.compiler.passes.loops import _canonical_loop, _defined_in_loop
from repro.compiler.statistics import StatsCollector

__all__ = ["SLPVectorizer", "LoopVectorize", "VectorCombine"]


def _load_lane(
    inst: Instr, defs: Dict[str, Instr]
) -> Optional[Tuple[Tuple[Operand, int, Type, Optional[Type]], List[Instr]]]:
    """Match ``[sext] load (gep base, const)``.

    Returns ``((base, offset, loaded_ty, sext_ty), involved_instrs)`` or
    ``None``.
    """
    involved: List[Instr] = []
    sext_ty: Optional[Type] = None
    cur = inst
    if cur.op == "sext":
        sext_ty = cur.ty
        src = cur.args[0]
        if not isinstance(src, str):
            return None
        nxt = defs.get(src)
        if nxt is None:
            return None
        involved.append(cur)
        cur = nxt
    if cur.op != "load":
        return None
    involved.append(cur)
    ptr = cur.args[0]
    if not isinstance(ptr, str):
        return None
    g = defs.get(ptr)
    if g is None:
        return None
    if g.op == "gep" and isinstance(g.args[1], Const):
        involved.append(g)
        return (g.args[0], g.args[1].value, cur.ty, sext_ty), involved
    if g.op in ("gaddr", "alloca"):
        return (ptr, 0, cur.ty, sext_ty), involved
    return None


@register
class SLPVectorizer(FunctionPass):
    """Superword-level parallelism: pack isomorphic scalar reductions."""

    name = "slp-vectorizer"
    min_chain = 4

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        # def/use maps are function-wide: computed once, and again only
        # after a block changes
        defs = uses = None
        for blk in list(fn.blocks.values()):
            if defs is None:
                defs, uses = fn.defs(), use_counts(fn)
            if self._vectorize_block(fn, module, blk, defs, uses, stats, target):
                changed = True
                defs = uses = None
        return changed

    def _vectorize_block(self, fn, module, blk, defs, uses, stats, target) -> bool:
        pos = {id(i): k for k, i in enumerate(blk.instrs)}
        changed = False

        # --- find accumulation chains: acc_{j+1} = add/fadd(acc_j, leaf_j).
        # A link needs acc_j to have one use, so its only candidate next
        # link is the block's first scalar add/fadd taking acc_j first.
        next_link: Dict[str, Instr] = {}
        for cand in blk.instrs:
            if (
                cand.op in ("add", "fadd")
                and cand.res is not None
                and not cand.ty.is_vec
                and isinstance(cand.args[0], str)
            ):
                next_link.setdefault(cand.args[0], cand)
        chains: List[List[Instr]] = []
        chain_heads: Set[str] = set()
        for inst in blk.instrs:
            if inst.op not in ("add", "fadd") or inst.ty.is_vec:
                continue
            if inst.res in chain_heads:
                continue
            chain = [inst]
            cur = inst
            while uses.get(cur.res, 0) == 1:
                nxt = next_link.get(cur.res)
                if nxt is None or nxt.op != cur.op:
                    break
                chain.append(nxt)
                cur = nxt
            if len(chain) >= self.min_chain:
                chains.append(chain)
                chain_heads.update(c.res for c in chain)

        for chain in chains:
            if self._vectorize_reduction(fn, module, blk, chain, defs, uses, pos, stats, target):
                changed = True
                # block contents changed; recompute bookkeeping
                defs = fn.defs()
                uses = use_counts(fn)
                pos = {id(i): k for k, i in enumerate(blk.instrs)}

        if self._vectorize_store_group(fn, module, blk, defs, uses, stats, target):
            changed = True
        return changed

    # -- reduction vectorisation ------------------------------------------
    def _vectorize_reduction(
        self, fn, module, blk, chain, defs, uses, pos, stats, target
    ) -> bool:
        op = chain[0].op
        ty = chain[0].ty
        k = len(chain)
        init = chain[0].args[0]  # running value entering the chain
        leaves = [c.args[1] for c in chain]
        if any(not isinstance(l, str) for l in leaves):
            return False
        leaf_defs = [defs.get(l) for l in leaves]
        if any(d is None for d in leaf_defs):
            return False
        # leaves must be single-use and isomorphic
        if any(uses.get(l, 0) != 1 for l in leaves):
            return False
        shapes = {d.op for d in leaf_defs}
        if len(shapes) != 1:
            return False
        shape = next(iter(shapes))
        if any(d.ty != ty for d in leaf_defs):
            return False

        if shape in ("mul", "fmul"):
            lanes_a, lanes_b = [], []
            involved: List[Instr] = list(chain) + list(leaf_defs)
            for d in leaf_defs:
                la = self._resolve_lane(d.args[0], defs, involved)
                lb = self._resolve_lane(d.args[1], defs, involved)
                if la is None or lb is None:
                    return False
                lanes_a.append(la)
                lanes_b.append(lb)
            prepared = self._prepare_operands(
                fn, blk, [lanes_a, lanes_b], k, ty, pos, chain, involved, module, target, stats
            )
            if prepared is None:
                return False
            (va, vb), insert_at = prepared
            vty = vec(ty, k)
            vm = Instr(shape, fn.fresh("slp.mul"), vty, (va, vb))
            red = Instr("reduce", fn.fresh("slp.red"), ty, (vm.res,), rop="add")
            total = Instr(op, chain[-1].res, ty, (init, red.res))
            self._commit(fn, blk, chain, [vm, red, total], insert_at, stats)
            stats.bump(self.name, "NumVectorInstructions", 3)
            stats.bump(self.name, "NumVecBundle")
            return True
        if shape == "sext" and all(
            isinstance(d.args[0], str)
            and defs.get(d.args[0]) is not None
            and defs[d.args[0]].op in ("mul", "fmul")
            for d in leaf_defs
        ):
            # `acc += sext(a*b)` — vectorise the multiply at its narrow type
            # and widen the whole vector once; profitability follows the
            # *multiply* element type, so instcombine's widening to i64
            # genuinely destroys this opportunity (Fig 5.1)
            muls = [defs[d.args[0]] for d in leaf_defs]
            if any(uses.get(m.res, 0) != 1 for m in muls):
                return False
            mul_ty = muls[0].ty
            mshape = muls[0].op
            if any(m.ty != mul_ty or m.op != mshape for m in muls):
                return False
            lanes_a, lanes_b = [], []
            involved = list(chain) + list(leaf_defs) + list(muls)
            for m in muls:
                la = self._resolve_lane(m.args[0], defs, involved)
                lb = self._resolve_lane(m.args[1], defs, involved)
                if la is None or lb is None:
                    return False
                lanes_a.append(la)
                lanes_b.append(lb)
            prepared = self._prepare_operands(
                fn, blk, [lanes_a, lanes_b], k, mul_ty, pos, chain, involved, module, target, stats
            )
            if prepared is None:
                return False
            (va, vb), insert_at = prepared
            vm = Instr(mshape, fn.fresh("slp.mul"), vec(mul_ty, k), (va, vb))
            wide = Instr("sext", fn.fresh("slp.widen"), vec(ty, k), (vm.res,))
            red = Instr("reduce", fn.fresh("slp.red"), ty, (wide.res,), rop="add")
            total = Instr(op, chain[-1].res, ty, (init, red.res))
            self._commit(fn, blk, chain, [vm, wide, red, total], insert_at, stats)
            stats.bump(self.name, "NumVectorInstructions", 4)
            stats.bump(self.name, "NumVecBundle")
            return True
        if shape in ("load", "sext"):
            lanes = []
            involved = list(chain)
            for l in leaves:
                lane = self._resolve_lane(l, defs, involved)
                if lane is None:
                    return False
                lanes.append(lane)
            prepared = self._prepare_operands(
                fn, blk, [lanes], k, ty, pos, chain, involved, module, target, stats
            )
            if prepared is None:
                return False
            (vv,), insert_at = prepared
            red = Instr("reduce", fn.fresh("slp.red"), ty, (vv,), rop="add")
            total = Instr(op, chain[-1].res, ty, (init, red.res))
            self._commit(fn, blk, chain, [red, total], insert_at, stats)
            stats.bump(self.name, "NumVectorInstructions", 2)
            stats.bump(self.name, "NumVecBundle")
            return True
        return False

    def _resolve_lane(self, operand, defs, involved: Optional[List[Instr]] = None):
        if not isinstance(operand, str):
            return None
        d = defs.get(operand)
        if d is None:
            return None
        matched = _load_lane(d, defs)
        if matched is None:
            return None
        lane, instrs = matched
        if involved is not None:
            involved.extend(instrs)
        return lane

    def _prepare_operands(
        self, fn, blk, lane_groups, k, ty, pos, chain, involved, module, target, stats
    ):
        """Validate consecutive-lane groups; emit vloads (+sext).

        Returns ``([vector operand per group], insert_index)`` or ``None``.
        """
        # profitability: enough lanes of this element type per register
        elem_bits = ty.bits
        lanes_per_reg = max(1, target.vector_bits // max(1, elem_bits))
        if lanes_per_reg < target.min_vector_lanes:
            stats.bump(self.name, "NumUnprofitable")
            return None

        plans = []
        for lanes in lane_groups:
            base0, off0, lty0, sext0 = lanes[0]
            offs = []
            for base, off, lty, sext in lanes:
                if repr(base) != repr(base0) or lty != lty0 or sext != sext0:
                    return None
                offs.append(off)
            order = sorted(range(k), key=lambda i: offs[i])
            sorted_offs = [offs[i] for i in order]
            if sorted_offs != list(range(sorted_offs[0], sorted_offs[0] + k)):
                return None
            plans.append((base0, sorted_offs[0], lty0, sext0, order))
        # all groups must agree on lane order so products pair correctly
        orders = {tuple(p[4]) for p in plans}
        if len(orders) != 1:
            return None

        # legality: no side effects between the first involved instruction
        # (earliest load being widened) and the end of the chain
        involved_ids = {id(i) for i in involved}
        window = [pos[id(i)] for i in involved if id(i) in pos]
        if not window:
            return None
        first_pos = min(window)
        last_pos = max(pos[id(c)] for c in chain)
        for inst in blk.instrs[first_pos : last_pos + 1]:
            if id(inst) not in involved_ids and has_side_effects(inst, module):
                return None

        insert_at = min(pos[id(c)] for c in chain)
        vec_ops = []
        new_pre: List[Instr] = []
        for base, start_off, lty, sext_ty, _ in plans:
            addr = base
            if start_off != 0:
                g = Instr(
                    "gep",
                    fn.fresh("slp.gep"),
                    ty=PTR,
                    args=(base, Const(start_off, I64)),
                    elem_ty=lty,
                )
                new_pre.append(g)
                addr = g.res
            vl = Instr("vload", fn.fresh("slp.ld"), vec(lty, k), (addr,), elem_ty=lty)
            new_pre.append(vl)
            last = vl.res
            if sext_ty is not None:
                sx = Instr("sext", fn.fresh("slp.sx"), vec(sext_ty, k), (last,))
                new_pre.append(sx)
                last = sx.res
            vec_ops.append(last)
        blk.instrs[insert_at:insert_at] = new_pre
        return vec_ops, insert_at + len(new_pre)

    def _commit(self, fn, blk, chain, new_instrs, insert_at, stats):
        doomed = {id(c) for c in chain}
        # leaf computations (muls / loads / sexts / geps) that become dead are
        # swept here, as LLVM's SLP does, so statistics reflect the savings
        blk.instrs = [i for i in blk.instrs if id(i) not in doomed]
        blk.instrs[insert_at:insert_at] = new_instrs
        self._sweep_dead(fn, blk)

    @staticmethod
    def _sweep_dead(fn, blk):
        uses = use_counts(fn)
        for _ in range(6):
            kept = []
            removed = []
            for inst in blk.instrs:
                if (
                    inst.res is not None
                    and inst.op in ("load", "sext", "gep", "mul", "fmul", "add", "fadd")
                    and uses.get(inst.res, 0) == 0
                ):
                    removed.append(inst)
                    continue
                kept.append(inst)
            blk.instrs = kept
            if not removed:
                break
            # the next round sees exactly the uses the removed ones held less
            for inst in removed:
                for reg in inst.reg_operands():
                    uses[reg] -= 1

    # -- store-group vectorisation ------------------------------------------
    def _vectorize_store_group(self, fn, module, blk, defs, uses, stats, target) -> bool:
        stores = [i for i in blk.instrs if i.op == "store"]
        if len(stores) < self.min_chain:
            return False
        # group stores by base with constant offsets
        groups: Dict[str, List[Tuple[int, Instr]]] = {}
        for st in stores:
            ptr = st.args[1]
            if not isinstance(ptr, str):
                continue
            g = defs.get(ptr)
            if g is None:
                continue
            if g.op == "gep" and isinstance(g.args[1], Const):
                groups.setdefault(repr(g.args[0]) + "|" + repr(g.attrs["elem_ty"]), []).append(
                    (g.args[1].value, st)
                )
        for key, members in groups.items():
            members.sort(key=lambda t: t[0])  # ties (same offset) are fine:
            offs = [o for o, _ in members]  # duplicates fail the range check
            k = len(members)
            if k < self.min_chain:
                continue
            if offs != list(range(offs[0], offs[0] + k)):
                continue
            # values must be isomorphic binops of consecutive loads
            vals = [st.args[0] for _, st in members]
            if any(not isinstance(v, str) or uses.get(v, 0) != 1 for v in vals):
                continue
            vdefs = [defs.get(v) for v in vals]
            if any(d is None for d in vdefs):
                continue
            ops = {d.op for d in vdefs}
            if len(ops) != 1:
                continue
            vop = next(iter(ops))
            if vop not in ("add", "sub", "mul", "and", "or", "xor", "fadd", "fsub", "fmul"):
                continue
            ty = vdefs[0].ty
            if any(d.ty != ty for d in vdefs) or ty.is_vec:
                continue
            lanes_per_reg = max(1, target.vector_bits // max(1, ty.bits))
            if lanes_per_reg < 2:
                stats.bump(self.name, "NumUnprofitable")
                continue
            involved: List[Instr] = list(vdefs) + [st for _, st in members]
            lanes_a = [self._resolve_lane(d.args[0], defs, involved) for d in vdefs]
            lanes_b = [self._resolve_lane(d.args[1], defs, involved) for d in vdefs]
            if any(l is None for l in lanes_a) or any(l is None for l in lanes_b):
                continue
            ok = True
            for lanes in (lanes_a, lanes_b):
                base0, off0, lty0, sx0 = lanes[0]
                offs2 = [o for _, o, _, _ in lanes]
                if any(repr(b) != repr(base0) or t != lty0 or s != sx0 for b, _, t, s in lanes):
                    ok = False
                if sorted(offs2) != list(range(min(offs2), min(offs2) + k)) or offs2 != sorted(offs2):
                    ok = False
            if not ok:
                continue
            # alias legality: the destination must not overlap the sources
            dst_base = members[0][1].args[1]
            dst_gep = defs.get(dst_base) if isinstance(dst_base, str) else None
            if dst_gep is None:
                continue
            from repro.compiler.passes.loops import LoopIdiom

            dst_root = dst_gep.args[0]
            if not all(
                LoopIdiom._provably_noalias(fn, dst_root, lanes[0][0])
                for lanes in (lanes_a, lanes_b)
            ):
                continue
            # side-effect legality: nothing else writes between the first
            # involved load (the loads are sunk to the store position) and
            # the last member store
            pos = {id(i): n for n, i in enumerate(blk.instrs)}
            involved_ids = {id(i) for i in involved}
            window = [pos[id(i)] for i in involved if id(i) in pos]
            lo = min(pos[id(st)] for _, st in members)
            hi = max(pos[id(st)] for _, st in members)
            first = min(window + [lo])
            region = blk.instrs[first : hi + 1]
            if any(has_side_effects(i, module) and id(i) not in involved_ids for i in region):
                continue

            # emit
            elem_ty = dst_gep.attrs["elem_ty"]
            new: List[Instr] = []

            def vload_of(lanes):
                base, off, lty, sx = lanes[0]
                addr = base
                if off != 0:
                    g = Instr("gep", fn.fresh("slp.gep"), ty=PTR, args=(base, Const(off, I64)), elem_ty=lty)
                    new.append(g)
                    addr = g.res
                vl = Instr("vload", fn.fresh("slp.ld"), vec(lty, k), (addr,), elem_ty=lty)
                new.append(vl)
                out = vl.res
                if sx is not None:
                    s = Instr("sext", fn.fresh("slp.sx"), vec(sx, k), (out,))
                    new.append(s)
                    out = s.res
                return out

            va = vload_of(lanes_a)
            vb = vload_of(lanes_b)
            vo = Instr(vop, fn.fresh("slp.op"), vec(ty, k), (va, vb))
            new.append(vo)
            addr0 = dst_root
            if offs[0] != 0:
                g = Instr("gep", fn.fresh("slp.gep"), ty=PTR, args=(dst_root, Const(offs[0], I64)), elem_ty=elem_ty)
                new.append(g)
                addr0 = g.res
            new.append(Instr("vstore", None, args=(vo.res, addr0), elem_ty=elem_ty))
            doomed = {id(st) for _, st in members}
            blk.instrs = [i for i in blk.instrs if id(i) not in doomed]
            blk.instrs[lo:lo] = new
            self._sweep_dead(fn, blk)
            stats.bump(self.name, "NumVectorInstructions", 4)
            stats.bump(self.name, "NumVecBundle")
            return True
        return False


@register
class LoopVectorize(FunctionPass):
    """Vectorise canonical innermost counted loops by the register width."""

    name = "loop-vectorize"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for loop in find_loops(fn):
            if any(b not in fn.blocks for b in loop.blocks):
                continue
            stats.bump(self.name, "LoopsAnalyzed")
            if self._try_vectorize(fn, module, loop, stats, target):
                changed = True
        return changed

    def _try_vectorize(self, fn, module, loop, stats, target) -> bool:
        canon = _canonical_loop(fn, loop)
        if canon is None:
            return False
        iv, start, step, trips, exit_block, body_entry = canon
        if step != 1 or trips < 2:
            return False
        if len(loop.blocks) != 3:  # header, body, latch
            return False
        latch = loop.latches[0]
        body = fn.blocks[body_entry]
        if body.phis():
            return False
        defs = fn.defs()
        hdr = fn.blocks[loop.header]
        phis = hdr.phis()
        iv_phi = defs[iv]
        red_phis = [p for p in phis if p.res != iv]
        if len(red_phis) > 1:
            return False

        # classify the body; build the vector type from the widest element
        inside = _defined_in_loop(fn, loop)
        body_vals: Set[str] = set()
        widest_bits = 8
        reduction_upd: Optional[Instr] = None
        red_phi = red_phis[0] if red_phis else None
        red_next: Optional[str] = None
        if red_phi is not None:
            for b, v in red_phi.attrs["incoming"]:
                if b in loop.blocks:
                    if not isinstance(v, str):
                        return False
                    red_next = v

        def is_iv_index(x) -> bool:
            if x == iv:
                return True
            if isinstance(x, str):
                d = defs.get(x)
                if d is not None and d.op == "sext" and d.args[0] == iv:
                    return True
            return False

        plan: List[Tuple[str, Instr]] = []
        for inst in body.instrs:
            op = inst.op
            if op == "jmp":
                continue
            if op == "gep":
                base = inst.args[0]
                if isinstance(base, str) and base in inside:
                    return False
                if not is_iv_index(inst.args[1]):
                    return False
                plan.append(("gep", inst))
                body_vals.add(inst.res)
                continue
            if op == "sext" and inst.args[0] == iv:
                plan.append(("ivcast", inst))
                body_vals.add(inst.res)
                continue
            if op == "load":
                ptr = inst.args[0]
                if not (isinstance(ptr, str) and ptr in body_vals):
                    return False
                plan.append(("vload", inst))
                body_vals.add(inst.res)
                widest_bits = max(widest_bits, inst.ty.bits)
                continue
            if op == "store":
                val, ptr = inst.args
                if not (isinstance(ptr, str) and ptr in body_vals):
                    return False
                if isinstance(val, str) and val not in body_vals and val in inside:
                    return False
                plan.append(("vstore", inst))
                continue
            if op in ("add", "sub", "mul", "and", "or", "xor", "shl", "ashr",
                      "fadd", "fsub", "fmul", "sext", "zext", "trunc"):
                for a in inst.args:
                    if isinstance(a, str) and a in inside and a not in body_vals:
                        if red_phi is not None and a == red_phi.res and inst.res == red_next:
                            continue  # the reduction update itself
                        return False
                if red_phi is not None and inst.res == red_next:
                    if inst.op not in ("add", "fadd"):
                        return False
                    plan.append(("reduce_upd", inst))
                else:
                    plan.append(("vop", inst))
                body_vals.add(inst.res)
                widest_bits = max(widest_bits, inst.ty.bits)
                continue
            return False

        if red_phi is not None and red_next not in body_vals:
            return False

        # memory legality: lanes are independent only when every pair of
        # accessed arrays is either the same base register (identical
        # addresses per lane) or provably disjoint; a shifted alias (two geps
        # into the same array at different offsets) carries values across
        # iterations and must block vectorisation
        from repro.compiler.passes.loops import LoopIdiom

        mem_bases: List[Operand] = []
        for kind, inst in plan:
            if kind in ("vload", "vstore"):
                ptr = inst.args[0] if kind == "vload" else inst.args[1]
                g = defs.get(ptr) if isinstance(ptr, str) else None
                if g is None or g.op != "gep":
                    return False
                mem_bases.append(g.args[0])
        for i in range(len(mem_bases)):
            for j in range(i + 1, len(mem_bases)):
                a, b = mem_bases[i], mem_bases[j]
                if isinstance(a, str) and a == b:
                    continue
                if not LoopIdiom._provably_noalias(fn, a, b):
                    return False

        vf = max(1, target.vector_bits // max(8, widest_bits))
        if vf < 2 or trips % vf != 0:
            return False
        # honour the minimum-lane profitability rule for reductions
        if red_phi is not None and vf < target.min_vector_lanes:
            stats.bump(self.name, "NumUnprofitable")
            return False
        # exit-block phis referencing the accumulator must be simple LCSSA
        # phis (single incoming) — we delete them and use the reduced value
        if red_phi is not None:
            for phi2 in fn.blocks[exit_block].phis():
                inc2 = phi2.attrs["incoming"]
                if any(bb == loop.header and vv == red_phi.res for bb, vv in inc2):
                    if len(inc2) != 1:
                        return False

        # latch must be [add iv, jmp]
        latch_blk = fn.blocks[latch]
        latch_real = [i for i in latch_blk.instrs if i.op not in ("jmp",)]
        iv_next_inst = None
        for b, v in iv_phi.attrs["incoming"]:
            if b in loop.blocks and isinstance(v, str):
                iv_next_inst = defs.get(v)
        if iv_next_inst is None or iv_next_inst.op != "add":
            return False
        if any(i is not iv_next_inst for i in latch_real):
            return False

        # ---- rewrite ----------------------------------------------------
        from repro.compiler.passes.utils import ensure_preheader

        pre = ensure_preheader(fn, loop.header, loop.blocks)
        pre_blk = fn.blocks[pre]
        vmap: Dict[str, Operand] = {}
        new_body: List[Instr] = []
        invar_splats: Dict[str, str] = {}

        def splat(v: Operand, sty: Type) -> Operand:
            if isinstance(v, Const):
                return Const((v.value,) * vf, vec(sty, vf))
            key = f"{v}|{sty!r}"
            if key not in invar_splats:
                bcast = Instr("broadcast", fn.fresh("lv.splat"), vec(sty, vf), (v,))
                pre_blk.instrs.insert(-1, bcast)
                invar_splats[key] = bcast.res
            return invar_splats[key]

        red_vec_phi: Optional[Instr] = None
        if red_phi is not None:
            zero = Const(
                (0.0,) * vf if red_phi.ty.is_float else (0,) * vf, vec(red_phi.ty, vf)
            )
            red_vec_phi = Instr(
                "phi", fn.fresh("lv.acc"), vec(red_phi.ty, vf), (), incoming=[]
            )

        for kind, inst in plan:
            if kind == "gep":
                g = inst.clone()
                new_body.append(g)
                vmap[inst.res] = g.res
            elif kind == "ivcast":
                s = inst.clone()
                new_body.append(s)
                vmap[inst.res] = s.res
            elif kind == "vload":
                ptr = vmap.get(inst.args[0], inst.args[0])
                vl = Instr("vload", fn.fresh("lv.ld"), vec(inst.ty, vf), (ptr,), elem_ty=inst.ty)
                new_body.append(vl)
                vmap[inst.res] = vl.res
            elif kind == "vstore":
                val, ptr = inst.args
                sval = vmap.get(val, None) if isinstance(val, str) else None
                if sval is None:
                    d = defs.get(val) if isinstance(val, str) else None
                    sty = d.ty if d is not None else inst_store_ty(fn, val)
                    sval = splat(val, sty)
                new_body.append(
                    Instr(
                        "vstore",
                        None,
                        args=(sval, vmap.get(ptr, ptr)),
                        elem_ty=inst.attrs.get("elem_ty") or _store_elem_ty(defs, ptr),
                    )
                )
            elif kind == "vop":
                vargs = []
                for a in inst.args:
                    if isinstance(a, str) and a in vmap:
                        vargs.append(vmap[a])
                    else:
                        src_ty = _operand_scalar_ty(fn, defs, a, inst)
                        vargs.append(splat(a, src_ty))
                vo = Instr(inst.op, fn.fresh("lv.op"), vec(inst.ty, vf), vargs, **dict(inst.attrs))
                new_body.append(vo)
                vmap[inst.res] = vo.res
            elif kind == "reduce_upd":
                other = inst.args[1] if inst.args[0] == red_phi.res else inst.args[0]
                vother = vmap.get(other, None) if isinstance(other, str) else None
                if vother is None:
                    src_ty = _operand_scalar_ty(fn, defs, other, inst)
                    vother = splat(other, src_ty)
                vo = Instr(inst.op, fn.fresh("lv.red"), vec(red_phi.ty, vf), (red_vec_phi.res, vother))
                new_body.append(vo)
                vmap[inst.res] = vo.res

        term = body.terminator
        body.instrs = new_body + [term]

        # iv steps by vf
        for i, a in enumerate(iv_next_inst.args):
            if isinstance(a, Const):
                iv_next_inst.args[i] = Const(vf, iv_phi.ty)

        red_final_scalar: Optional[str] = None
        if red_phi is not None and red_vec_phi is not None:
            init_val = None
            next_val = None
            for b, v in red_phi.attrs["incoming"]:
                if b in loop.blocks:
                    next_val = vmap.get(v, v)
                else:
                    init_val = v
            zero = Const(
                (0.0,) * vf if red_phi.ty.is_float else (0,) * vf, vec(red_phi.ty, vf)
            )
            red_vec_phi.attrs["incoming"] = [(pre, zero), (latch, next_val)]
            hdr.instrs.insert(0, red_vec_phi)
            # reduce in the exit block, then add the original init
            exit_blk = fn.blocks[exit_block]
            red = Instr("reduce", fn.fresh("lv.redout"), red_phi.ty, (red_vec_phi.res,), rop="add")
            fin = Instr(red_phi.ty.is_float and "fadd" or "add", fn.fresh("lv.fin"), red_phi.ty, (red.res, init_val))
            n_phis = len(exit_blk.phis())
            exit_blk.instrs.insert(n_phis, red)
            exit_blk.instrs.insert(n_phis + 1, fin)
            red_final_scalar = fin.res
            # LCSSA phis for the accumulator in the exit block: delete them
            # (their value IS the reduced scalar, which is defined below the
            # phi position and therefore cannot be a phi incoming)
            lcssa_map: Dict[str, Operand] = {}
            drop: List[Instr] = []
            for phi2 in exit_blk.phis():
                inc2 = phi2.attrs["incoming"]
                if any(bb == loop.header and vv == red_phi.res for bb, vv in inc2):
                    lcssa_map[phi2.res] = red_final_scalar
                    drop.append(phi2)
            if drop:
                exit_blk.instrs = [i for i in exit_blk.instrs if i not in drop]
            # replace out-of-loop uses of the scalar accumulator
            for bname, b2 in fn.blocks.items():
                if bname in loop.blocks:
                    continue
                for inst2 in b2.instrs:
                    if inst2 is red or inst2 is fin:
                        continue
                    if inst2.op == "phi":
                        if bname != exit_block:
                            inst2.attrs["incoming"] = [
                                (bb, red_final_scalar if vv == red_phi.res else vv)
                                for bb, vv in inst2.attrs["incoming"]
                            ]
                    else:
                        inst2.replace_uses({red_phi.res: red_final_scalar})
                    inst2.replace_uses(lcssa_map)
                    if inst2.op == "phi":
                        inst2.attrs["incoming"] = [
                            (bb, lcssa_map.get(vv, vv) if isinstance(vv, str) else vv)
                            for bb, vv in inst2.attrs["incoming"]
                        ]
            # drop the scalar accumulator phi and its update
            hdr.instrs = [i for i in hdr.instrs if i is not red_phi]
            # its update instruction was consumed into the plan's reduce_upd

        stats.bump(self.name, "LoopsVectorized")
        stats.bump(self.name, "NumVectorInstructions", len(new_body))
        return True


def _store_elem_ty(defs, ptr):
    d = defs.get(ptr) if isinstance(ptr, str) else None
    if d is not None and d.op == "gep":
        return d.attrs["elem_ty"]
    if d is not None and d.op == "alloca":
        return d.attrs["elem_ty"]
    from repro.compiler.ir import I32

    return I32


def inst_store_ty(fn, val):
    """Fallback scalar type for a stored operand."""
    from repro.compiler.ir import I32

    if isinstance(val, Const):
        return val.ty
    return I32


def _operand_scalar_ty(fn, defs, a, inst):
    if isinstance(a, Const):
        return a.ty
    d = defs.get(a)
    if d is not None:
        return d.ty
    for p, t in fn.params:
        if p == a:
            return t
    return inst.ty


@register
class VectorCombine(FunctionPass):
    """Local vector cleanups (extract-of-broadcast, splat folding)."""

    name = "vector-combine"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        defs = fn.defs()
        mapping: Dict[str, Operand] = {}
        for blk in fn.blocks.values():
            kept: List[Instr] = []
            for inst in blk.instrs:
                inst.replace_uses(mapping)
                if inst.op == "extract" and isinstance(inst.args[0], str):
                    d = defs.get(inst.args[0])
                    if d is not None and d.op == "broadcast":
                        mapping[inst.res] = d.args[0]
                        stats.bump(self.name, "NumScalarized")
                        continue
                kept.append(inst)
            blk.instrs = kept
        if mapping:
            fn.replace_all_uses(mapping)
        return bool(mapping)

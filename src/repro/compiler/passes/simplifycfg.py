"""CFG cleanup passes: ``simplifycfg``, ``jump-threading``, ``sink``,
``correlated-propagation``."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.compiler.analysis import (
    find_loops,
    is_pure_instr,
    reachable_blocks,
)
from repro.compiler.ir import Const, Function, Instr, Module, Operand
from repro.compiler.pass_manager import FunctionPass, TargetInfo, register
from repro.compiler.passes.utils import remove_trivial_phis
from repro.compiler.statistics import StatsCollector

__all__ = ["SimplifyCFG", "JumpThreading", "Sink", "CorrelatedPropagation"]


@register
class SimplifyCFG(FunctionPass):
    """Remove unreachable blocks, merge linear chains, fold trivial branches."""

    name = "simplifycfg"
    max_iterations = 8

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed_any = False
        for _ in range(self.max_iterations):
            changed = False
            changed |= self._remove_unreachable(fn, stats)
            changed |= self._fold_branches(fn, stats)
            changed |= self._merge_chains(fn, stats)
            changed |= self._skip_trampolines(fn, stats)
            # a folded phi is a change, but not a reason to iterate again
            folded = remove_trivial_phis(fn)
            changed_any |= changed or folded > 0
            if not changed:
                break
        return changed_any

    def _remove_unreachable(self, fn: Function, stats: StatsCollector) -> bool:
        reach = reachable_blocks(fn)
        dead = [b for b in fn.blocks if b not in reach]
        if not dead:
            return False
        fn.remove_blocks(dead)
        stats.bump(self.name, "NumSimpl", len(dead))
        return True

    def _fold_branches(self, fn: Function, stats: StatsCollector) -> bool:
        changed = False
        for blk in fn.blocks.values():
            term = blk.terminator
            if term is None or term.op != "br":
                continue
            t, f = term.attrs["targets"]
            cond = term.args[0]
            if t == f:
                term.op = "jmp"
                term.args = []
                term.attrs = {"target": t}
                changed = True
                stats.bump(self.name, "NumSimpl")
            elif isinstance(cond, Const):
                target_blk = t if cond.value else f
                other = f if cond.value else t
                term.op = "jmp"
                term.args = []
                term.attrs = {"target": target_blk}
                self._drop_phi_edge(fn, other, blk.name)
                changed = True
                stats.bump(self.name, "NumSimpl")
        return changed

    @staticmethod
    def _drop_phi_edge(fn: Function, block: str, pred: str) -> None:
        for inst in fn.blocks[block].phis():
            inst.attrs["incoming"] = [(b, v) for b, v in inst.attrs["incoming"] if b != pred]

    def _merge_chains(self, fn: Function, stats: StatsCollector) -> bool:
        """Merge B into A when A ends `jmp B` and B's only predecessor is A."""
        changed = False
        preds = fn.predecessors()
        for aname in list(fn.blocks):
            if aname not in fn.blocks:
                continue
            ablk = fn.blocks[aname]
            term = ablk.terminator
            if term is None or term.op != "jmp":
                continue
            bname = term.attrs["target"]
            if bname == aname or bname not in fn.blocks:
                continue
            if len(preds[bname]) != 1 or bname == fn.entry.name:
                continue
            bblk = fn.blocks[bname]
            # resolve B's phis: single pred means each phi is trivial
            mapping: Dict[str, Operand] = {}
            body: List[Instr] = []
            for inst in bblk.instrs:
                if inst.op == "phi":
                    incoming = [(b, v) for b, v in inst.attrs["incoming"] if b == aname]
                    mapping[inst.res] = incoming[0][1] if incoming else Const(0, inst.ty)
                else:
                    body.append(inst)
            ablk.instrs = ablk.instrs[:-1] + body  # drop A's jmp
            # successors of B now see A as predecessor
            for succ in bblk.successors():
                if succ in fn.blocks:
                    for inst in fn.blocks[succ].phis():
                        inst.attrs["incoming"] = [
                            (aname if b == bname else b, v) for b, v in inst.attrs["incoming"]
                        ]
            del fn.blocks[bname]
            if mapping:
                from repro.compiler.passes.utils import resolve_chain

                fn.replace_all_uses({k: resolve_chain(mapping, v) for k, v in mapping.items()})
            preds = fn.predecessors()
            changed = True
            stats.bump(self.name, "NumSimpl")
        return changed

    def _skip_trampolines(self, fn: Function, stats: StatsCollector) -> bool:
        """Retarget branches through blocks containing only a jmp."""
        changed = False
        preds = fn.predecessors()
        for tname in list(fn.blocks):
            if tname == fn.entry.name or tname not in fn.blocks:
                continue
            tblk = fn.blocks[tname]
            if len(tblk.instrs) != 1:
                continue
            term = tblk.terminator
            if term is None or term.op != "jmp":
                continue
            dest = term.attrs["target"]
            if dest == tname:
                continue
            dest_blk = fn.blocks[dest]
            dest_phis = dest_blk.phis()
            for p in list(preds[tname]):
                if p not in fn.blocks:
                    continue
                # avoid creating duplicate phi edges when p already reaches dest
                if dest_phis and any(b == p for phi in dest_phis for b, _ in phi.attrs["incoming"]):
                    continue
                pterm = fn.blocks[p].terminator
                if pterm is None:
                    continue
                # conditional branches where both arms would collapse need care
                pterm.retarget(tname, dest)
                for phi in dest_phis:
                    via = next((v for b, v in phi.attrs["incoming"] if b == tname), None)
                    if via is not None:
                        phi.attrs["incoming"].append((p, via))
                changed = True
                stats.bump(self.name, "NumSimpl")
            # if the trampoline became unreachable it is removed next round
            preds = fn.predecessors()
            if not preds[tname]:
                for phi in dest_phis:
                    phi.attrs["incoming"] = [
                        (b, v) for b, v in phi.attrs["incoming"] if b != tname
                    ]
                del fn.blocks[tname]
        return changed


@register
class JumpThreading(FunctionPass):
    """Thread branches whose condition is a phi of constants."""

    name = "jump-threading"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        changed = False
        for bname in list(fn.blocks):
            blk = fn.blocks.get(bname)
            if blk is None or bname == fn.entry.name:
                continue
            term = blk.terminator
            if term is None or term.op != "br" or not isinstance(term.args[0], str):
                continue
            phis = blk.phis()
            # shape: [phi(cond), br phi] with no other instructions
            if len(blk.instrs) != len(phis) + 1 or len(phis) != 1:
                continue
            phi = phis[0]
            if phi.res != term.args[0]:
                continue
            t, f = term.attrs["targets"]
            if t == bname or f == bname:
                continue
            const_edges = [
                (p, v) for p, v in phi.attrs["incoming"] if isinstance(v, Const)
            ]
            if not const_edges:
                continue
            preds = fn.predecessors()
            for pred_name, cval in const_edges:
                dest = t if cval.value else f
                if pred_name not in fn.blocks:
                    continue
                dest_blk = fn.blocks[dest]
                # avoid duplicate phi edges in the destination
                if any(b == pred_name for pi in dest_blk.phis() for b, _ in pi.attrs["incoming"]):
                    continue
                pterm = fn.blocks[pred_name].terminator
                if pterm is None:
                    continue
                pterm.retarget(bname, dest)
                for pi in dest_blk.phis():
                    via = next((v for b, v in pi.attrs["incoming"] if b == bname), None)
                    if via is not None:
                        pi.attrs["incoming"].append((pred_name, via))
                phi.attrs["incoming"] = [
                    (b, v) for b, v in phi.attrs["incoming"] if b != pred_name
                ]
                stats.bump(self.name, "NumThreads")
                changed = True
        if changed:
            remove_trivial_phis(fn)
        return changed


@register
class Sink(FunctionPass):
    """Sink pure single-use instructions into the successor that uses them."""

    name = "sink"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        loops = find_loops(fn)
        depth: Dict[str, int] = {}
        for loop in loops:
            for b in loop.blocks:
                depth[b] = max(depth.get(b, 0), loop.depth)

        # where is each register used, and how many times?
        use_sites: Dict[str, List[Tuple[str, Instr]]] = {}
        for bn, blk in fn.blocks.items():
            for inst in blk.instrs:
                for reg in inst.reg_operands():
                    use_sites.setdefault(reg, []).append((bn, inst))

        moved = 0
        for bname, blk in list(fn.blocks.items()):
            succs = blk.successors()
            if len(succs) < 2:
                continue
            preds = fn.predecessors()
            for inst in list(blk.instrs[:-1]):
                if inst.res is None or not is_pure_instr(inst, module):
                    continue
                if inst.op == "phi":
                    continue
                sites = use_sites.get(inst.res, [])
                if len(sites) != 1:
                    continue
                use_blk, use_inst = sites[0]
                if use_blk == bname or use_inst.op == "phi":
                    continue
                if use_blk not in succs or len(preds[use_blk]) != 1:
                    continue
                if depth.get(use_blk, 0) > depth.get(bname, 0):
                    continue  # never sink into a deeper loop
                # operand defined in this block after the sink point? no:
                # we sink to the *front* of the successor so order-safe
                blk.instrs.remove(inst)
                target_blk = fn.blocks[use_blk]
                n_phis = len(target_blk.phis())
                target_blk.instrs.insert(n_phis, inst)
                use_sites[inst.res] = [(use_blk, use_inst)]
                moved += 1
        stats.bump(self.name, "NumSunk", moved)
        return moved > 0


@register
class CorrelatedPropagation(FunctionPass):
    """Replace a value with the constant it was compared equal to on the
    edge that established the equality."""

    name = "correlated-propagation"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        defs = fn.defs()
        preds = fn.predecessors()
        n = 0
        for blk in fn.blocks.values():
            term = blk.terminator
            if term is None or term.op != "br" or not isinstance(term.args[0], str):
                continue
            cmp_inst = defs.get(term.args[0])
            if cmp_inst is None or cmp_inst.op != "icmp" or cmp_inst.attrs["pred"] != "eq":
                continue
            x, cst = cmp_inst.args
            if not (isinstance(x, str) and isinstance(cst, Const)):
                continue
            true_blk = term.attrs["targets"][0]
            if true_blk == blk.name or len(preds[true_blk]) != 1:
                continue
            # inside the single-predecessor true block, x == cst
            for inst in fn.blocks[true_blk].instrs:
                if inst.op == "phi":
                    continue
                for i, a in enumerate(inst.args):
                    if a == x:
                        inst.args[i] = cst
                        n += 1
        stats.bump(self.name, "NumReplacements", n)
        return n > 0

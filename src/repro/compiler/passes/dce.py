"""Dead-code elimination passes: ``dce``, ``adce``, ``dse``."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.compiler.analysis import escaped_allocas, has_side_effects, use_counts
from repro.compiler.ir import Const, Function, Instr, Module
from repro.compiler.pass_manager import FunctionPass, TargetInfo, register
from repro.compiler.statistics import StatsCollector

__all__ = ["DCE", "ADCE", "DSE"]


@register
class DCE(FunctionPass):
    """Remove trivially dead instructions (no uses, no side effects)."""

    name = "dce"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        uses = use_counts(fn)
        removed_total = 0
        while True:
            removed: List[Instr] = []
            for blk in fn.blocks.values():
                kept: List[Instr] = []
                for inst in blk.instrs:
                    dead = (
                        inst.res is not None
                        and uses.get(inst.res, 0) == 0
                        and not inst.is_terminator
                        and not has_side_effects(inst, module)
                        and inst.op not in ("store", "vstore")
                    )
                    (removed if dead else kept).append(inst)
                blk.instrs = kept
            if not removed:
                break
            removed_total += len(removed)
            # the next round sees exactly the uses the removed ones held less
            for inst in removed:
                for reg in inst.reg_operands():
                    uses[reg] -= 1
        stats.bump(self.name, "NumDeleted", removed_total)
        return removed_total > 0


@register
class ADCE(FunctionPass):
    """Aggressive DCE: mark-and-sweep from observable roots.

    Unlike ``dce`` it also removes whole dead def-use webs in one shot and
    deletes stores into allocas that are never read (the slot is provably
    private because it does not escape).
    """

    name = "adce"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        defs = fn.defs()
        escaped = escaped_allocas(fn)
        # which allocas are ever loaded (directly or via gep chains)?
        alloca_regs = {i.res for i in fn.instructions() if i.op == "alloca"}
        gep_root: Dict[str, str] = {}
        for inst in fn.instructions():
            if inst.op == "gep" and isinstance(inst.args[0], str):
                base = inst.args[0]
                root = gep_root.get(base, base)
                if root in alloca_regs:
                    gep_root[inst.res] = root

        def root_of(reg) -> str:
            if not isinstance(reg, str):
                return ""
            return gep_root.get(reg, reg)

        loaded_roots: Set[str] = set()
        for inst in fn.instructions():
            if inst.op in ("load", "vload"):
                r = root_of(inst.args[0])
                if r in alloca_regs:
                    loaded_roots.add(r)
            elif inst.op == "memcpy":
                r = root_of(inst.args[1])
                if r in alloca_regs:
                    loaded_roots.add(r)

        def store_is_dead(inst: Instr) -> bool:
            if inst.op not in ("store", "vstore", "memset"):
                return False
            ptr = inst.args[1] if inst.op in ("store", "vstore") else inst.args[0]
            r = root_of(ptr)
            return r in alloca_regs and r not in escaped and r not in loaded_roots

        live: Set[str] = set()
        worklist: List[str] = []
        root_instrs: List[Instr] = []
        for inst in fn.instructions():
            is_root = inst.is_terminator or (
                has_side_effects(inst, module) and not store_is_dead(inst)
            )
            if is_root:
                root_instrs.append(inst)
        for inst in root_instrs:
            for reg in inst.reg_operands():
                if reg not in live:
                    live.add(reg)
                    worklist.append(reg)
        while worklist:
            reg = worklist.pop()
            d = defs.get(reg)
            if d is None:
                continue
            for dep in d.reg_operands():
                if dep not in live:
                    live.add(dep)
                    worklist.append(dep)

        removed = 0
        for blk in fn.blocks.values():
            kept: List[Instr] = []
            for inst in blk.instrs:
                if inst.is_terminator:
                    kept.append(inst)
                    continue
                if store_is_dead(inst):
                    removed += 1
                    continue
                if has_side_effects(inst, module):
                    kept.append(inst)
                    continue
                if inst.res is not None and inst.res not in live:
                    removed += 1
                    continue
                if inst.res is None and inst.op not in ("store", "vstore", "memset", "memcpy", "output"):
                    removed += 1
                    continue
                kept.append(inst)
            blk.instrs = kept
        stats.bump(self.name, "NumRemoved", removed)
        return removed > 0


@register
class DSE(FunctionPass):
    """Block-local dead store elimination (overwritten before any read)."""

    name = "dse"

    def run_on_function(
        self, fn: Function, module: Module, stats: StatsCollector, target: TargetInfo
    ) -> bool:
        removed = 0
        for blk in fn.blocks.values():
            doomed: Set[int] = set()
            last_store_to: Dict[object, Instr] = {}
            for inst in blk.instrs:
                op = inst.op
                if op == "store":
                    ptr = inst.args[1]
                    key = ptr if isinstance(ptr, str) else repr(ptr)
                    prev = last_store_to.get(key)
                    if prev is not None:
                        doomed.add(id(prev))
                        removed += 1
                    last_store_to[key] = inst
                elif op in ("load", "vload", "call", "memcpy", "memset", "vstore", "output", "ret"):
                    # anything that may observe memory invalidates pending stores
                    last_store_to.clear()
            if doomed:
                blk.instrs = [i for i in blk.instrs if id(i) not in doomed]
        stats.bump(self.name, "NumFastStores", removed)
        return removed > 0

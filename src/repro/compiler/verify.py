"""Structural IR verifier.

Run after every pass in tests (and optionally inside the pass manager) to
catch malformed IR early: missing terminators, uses of undefined registers,
phi edges that do not match the CFG, branches to unknown blocks, multiple
definitions of a register, and mutable instruction attrs (which
:meth:`~repro.compiler.ir.Instr.clone` shares between copies).  A pass that
produces IR failing verification is a pass with a bug — the differential
tests then localise *semantic* bugs.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.compiler.analysis import dominators, reachable_blocks
from repro.compiler.ir import Const, Function, Instr, Module, Type

__all__ = ["VerifyError", "verify_function", "verify_module"]


class VerifyError(AssertionError):
    """Raised when the IR violates a structural invariant."""


def _immutable(value: object) -> bool:
    """Whether ``value`` is safe to share between instruction clones."""
    if value is None or isinstance(value, (int, float, str, Type)):
        return True
    if isinstance(value, Const):
        return _immutable(value.value)
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(v) for v in value)
    return False


def _verify_attrs(where: str, inst: Instr) -> None:
    """Attrs hold immutable values only, except phi ``incoming``: a list of
    ``(block, operand)`` tuples.  ``Instr.clone`` copies that one list and
    shares everything else, so any other mutable value would alias."""
    for key, value in inst.attrs.items():
        if inst.op == "phi" and key == "incoming":
            if type(value) is not list or not all(
                type(e) is tuple and len(e) == 2 and _immutable(e) for e in value
            ):
                raise VerifyError(
                    f"{where}: phi incoming must be a list of (block, operand) "
                    f"pairs, got {value!r}"
                )
        elif not _immutable(value):
            raise VerifyError(f"{where}: {inst.op} attr {key!r} holds mutable {value!r}")


def verify_function(fn: Function, module: Module = None) -> None:
    """Check structural and SSA invariants of one function."""
    if not fn.blocks:
        raise VerifyError(f"@{fn.name}: no blocks")
    defined: Dict[str, str] = {p: "<param>" for p in fn.param_names()}
    for bname, blk in fn.blocks.items():
        if not blk.instrs:
            raise VerifyError(f"@{fn.name}:{bname}: empty block")
        term = blk.instrs[-1]
        if not term.is_terminator:
            raise VerifyError(f"@{fn.name}:{bname}: missing terminator (ends with {term.op})")
        for i, inst in enumerate(blk.instrs):
            if inst.is_terminator and i != len(blk.instrs) - 1:
                raise VerifyError(f"@{fn.name}:{bname}: terminator {inst.op} mid-block")
            if inst.op == "phi" and i > 0 and blk.instrs[i - 1].op != "phi":
                raise VerifyError(f"@{fn.name}:{bname}: phi after non-phi")
            _verify_attrs(f"@{fn.name}:{bname}", inst)
            if inst.res is not None:
                if inst.res in defined:
                    raise VerifyError(
                        f"@{fn.name}: register {inst.res} defined twice "
                        f"({defined[inst.res]} and {bname})"
                    )
                defined[inst.res] = bname
    preds = fn.predecessors()
    reach = reachable_blocks(fn)
    for bname in reach:
        for succ in fn.blocks[bname].successors():
            if succ not in fn.blocks:
                raise VerifyError(f"@{fn.name}:{bname}: branch to unknown block {succ!r}")
    for bname, blk in fn.blocks.items():
        if bname not in reach:
            continue  # unreachable blocks may be temporarily inconsistent
        incoming_preds = {p for p in preds[bname] if p in reach}
        for inst in blk.instrs:
            if inst.op == "phi":
                sources = [b for b, _ in inst.attrs["incoming"]]
                if len(set(sources)) != len(sources):
                    raise VerifyError(f"@{fn.name}:{bname}: phi has duplicate incoming block")
                src_set = {b for b in sources if b in reach}
                if src_set != incoming_preds:
                    raise VerifyError(
                        f"@{fn.name}:{bname}: phi incoming {sorted(src_set)} != "
                        f"preds {sorted(incoming_preds)}"
                    )
            for reg in inst.reg_operands():
                if reg not in defined:
                    raise VerifyError(f"@{fn.name}:{bname}: use of undefined {reg!r}")
            if inst.op == "call" and module is not None:
                callee = inst.attrs["callee"]
                if callee in module.functions:
                    nparams = len(module.functions[callee].params)
                    if len(inst.args) != nparams:
                        raise VerifyError(
                            f"@{fn.name}:{bname}: call @{callee} with {len(inst.args)} "
                            f"args, expects {nparams}"
                        )

    _verify_dominance(fn, defined, reach)


def _verify_dominance(fn: Function, defined: Dict[str, str], reach: Set[str]) -> None:
    """Every use must be dominated by its definition (SSA invariant)."""
    doms = dominators(fn)
    # position of each defining instruction within its block
    pos: Dict[str, int] = {}
    for blk in fn.blocks.values():
        for i, inst in enumerate(blk.instrs):
            if inst.res is not None:
                pos[inst.res] = i
    for bname in reach:
        blk = fn.blocks[bname]
        for i, inst in enumerate(blk.instrs):
            if inst.op == "phi":
                # phi uses must dominate the *incoming edge*, i.e. be
                # available at the end of the incoming block
                for src_blk, val in inst.attrs["incoming"]:
                    if not isinstance(val, str) or src_blk not in reach:
                        continue
                    def_blk = defined.get(val)
                    if def_blk == "<param>":
                        continue
                    if def_blk is None or def_blk not in doms.get(src_blk, set()):
                        raise VerifyError(
                            f"@{fn.name}:{bname}: phi operand {val} (def in {def_blk}) "
                            f"does not dominate incoming edge from {src_blk}"
                        )
                continue
            for reg in inst.reg_operands():
                def_blk = defined.get(reg)
                if def_blk == "<param>":
                    continue
                if def_blk == bname:
                    if pos[reg] >= i:
                        raise VerifyError(
                            f"@{fn.name}:{bname}: {reg} used before defined in-block"
                        )
                elif def_blk not in doms.get(bname, set()):
                    raise VerifyError(
                        f"@{fn.name}:{bname}: use of {reg} not dominated by its "
                        f"definition in {def_blk}"
                    )


def verify_module(module: Module) -> None:
    """Verify every function of the module."""
    for fn in module.functions.values():
        verify_function(fn, module)
    for inst_fn in module.functions.values():
        for inst in inst_fn.instructions():
            if inst.op == "gaddr":
                name = inst.attrs["name"]
                if name not in module.globals:
                    # may be resolved at link time against another module
                    continue

"""Textual IR: printer and parser (an ``.ll``-like assembly format).

Round-trippable: ``parse_module(print_module(m))`` reconstructs an
equivalent module (verified by property tests over random programs).
Useful for golden tests, debugging pass pipelines (`print_module` after
each pass), and storing IR fixtures as text.

Format sketch::

    module @gsm_main {
      global @wdata : i16 x 64 = [1, -3, ...]
      func @main() -> i64 {
      entry:
        %slot.1 = alloca i64 x 1
        store i64 0, %slot.1
        %t.2 = add i32 %a, 5
        br i1 %cond, label %then, label %else
      then:
        ret i64 %t.9
      }
    }

Types print as ``i32``/``f64``/``ptr``/``<4 x i32>``; constants as
``<ty> <value>``; instruction attributes in braces where needed.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Tuple, Union

from repro.compiler.ir import (
    Block,
    Const,
    F32,
    F64,
    Function,
    GlobalVar,
    I1,
    I8,
    I16,
    I32,
    I64,
    Instr,
    Module,
    Operand,
    PTR,
    Type,
    VOID,
    vec,
)

__all__ = ["print_module", "parse_module", "print_function", "ir_fingerprint", "IRParseError"]


class IRParseError(ValueError):
    """Raised on malformed textual IR."""


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_SCALARS = {"i1": I1, "i8": I8, "i16": I16, "i32": I32, "i64": I64, "f32": F32, "f64": F64,
            "ptr": PTR, "void": VOID}


def _ty_str(ty: Type) -> str:
    if ty.is_vec:
        return f"<{ty.lanes} x {_ty_str(ty.elem)}>"
    return repr(ty)


def _reg_str(name: str) -> str:
    """Registers always print with a %-sigil (parameters may lack one)."""
    return name if name.startswith("%") else "%" + name


def _val_str(v: Operand) -> str:
    if isinstance(v, Const):
        if isinstance(v.value, tuple):
            inner = ", ".join(str(x) for x in v.value)
            return f"{_ty_str(v.ty)} [{inner}]"
        return f"{_ty_str(v.ty)} {v.value}"
    return _reg_str(v)


def _attr_str(k: str, v) -> str:
    if isinstance(v, Type):
        return f"{k}={_ty_str(v)}"
    if isinstance(v, tuple):
        return f"{k}=({', '.join(str(x) for x in v)})"
    return f"{k}={v}"


def _instr_str(inst: Instr) -> str:
    op = inst.op
    if op == "phi":
        inc = ", ".join(f"[{b} -> {_val_str(v)}]" for b, v in inst.attrs["incoming"])
        return f"{_reg_str(inst.res)} = phi {_ty_str(inst.ty)} {inc}"
    if op == "br":
        t, f = inst.attrs["targets"]
        return f"br {_val_str(inst.args[0])}, label {t}, label {f}"
    if op == "jmp":
        return f"jmp label {inst.attrs['target']}"
    if op == "ret":
        return f"ret {_val_str(inst.args[0])}" if inst.args else "ret void"
    if op == "call":
        args = ", ".join(_val_str(a) for a in inst.args)
        head = f"{_reg_str(inst.res)} = call {_ty_str(inst.ty)} " if inst.res else "call void "
        return f"{head}@{inst.attrs['callee']}({args})"
    if op == "alloca":
        return (
            f"{_reg_str(inst.res)} = alloca {_ty_str(inst.attrs['elem_ty'])} x "
            f"{inst.attrs.get('count', 1)}"
        )
    if op == "gaddr":
        return f"{_reg_str(inst.res)} = gaddr @{inst.attrs['name']}"
    parts: List[str] = []
    if inst.res is not None:
        parts.append(f"{_reg_str(inst.res)} = {op} {_ty_str(inst.ty)}")
    else:
        parts.append(op)
    if inst.args:
        parts.append(", ".join(_val_str(a) for a in inst.args))
    extra = []
    for k in sorted(inst.attrs):
        extra.append(_attr_str(k, inst.attrs[k]))
    if extra:
        parts.append("{" + ", ".join(extra) + "}")
    return " ".join(parts)


def print_function(fn: Function) -> str:
    """Render one function as textual IR."""
    params = ", ".join(f"{_ty_str(t)} {_reg_str(p)}" for p, t in fn.params)
    attrs = (" " + " ".join(sorted(fn.attrs))) if fn.attrs else ""
    out = [f"func @{fn.name}({params}) -> {_ty_str(fn.ret_ty)}{attrs} {{"]
    for bname, blk in fn.blocks.items():
        out.append(f"{bname}:")
        for inst in blk.instrs:
            out.append(f"  {_instr_str(inst)}")
    out.append("}")
    return "\n".join(out)


def print_module(module: Module) -> str:
    """Render a module as textual IR (round-trippable)."""
    out = [f"module @{module.name} {{"]
    for gv in module.globals.values():
        konst = " const" if gv.const else ""
        init = ", ".join(str(v) for v in gv.init)
        out.append(
            f"global @{gv.name} : {_ty_str(gv.elem_ty)} x {gv.count}{konst} = [{init}]"
        )
    for fn in module.functions.values():
        out.append(print_function(fn))
    out.append("}")
    return "\n".join(out) + "\n"


def ir_fingerprint(module: Module) -> str:
    """Stable content digest of a module's IR (blake2b of its printed text).

    A pure function: a module mutated in place gets a new fingerprint."""
    return hashlib.blake2b(print_module(module).encode(), digest_size=20).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_VEC_RE = re.compile(r"^<(\d+) x ([a-z0-9]+)>$")


def _parse_ty(s: str) -> Type:
    s = s.strip()
    if s in _SCALARS:
        return _SCALARS[s]
    m = _VEC_RE.match(s)
    if m:
        return vec(_parse_ty(m.group(2)), int(m.group(1)))
    raise IRParseError(f"unknown type {s!r}")


def _parse_number(s: str):
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        return float(s)


def _split_args(s: str) -> List[str]:
    """Split a comma-separated operand list, respecting <>, [] and ()."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch in "<[(":
            depth += 1
        elif ch in ">])":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return out


def _parse_operand(s: str) -> Operand:
    s = s.strip()
    if s.startswith("%"):
        return s
    # typed constant: "<ty> <value>" or "<ty> [v, v, ...]"
    m = re.match(r"^(<\d+ x [a-z0-9]+>|[a-z]\w*)\s+(.+)$", s)
    if not m:
        raise IRParseError(f"cannot parse operand {s!r}")
    ty = _parse_ty(m.group(1))
    rest = m.group(2).strip()
    if rest.startswith("["):
        vals = tuple(_parse_number(x) for x in rest[1:-1].split(","))
        return Const(vals, ty)
    return Const(_parse_number(rest), ty)


def _parse_attrs(s: str) -> Dict[str, object]:
    attrs: Dict[str, object] = {}
    for item in _split_args(s):
        k, _, v = item.partition("=")
        k, v = k.strip(), v.strip()
        if v.startswith("(") and v.endswith(")"):
            attrs[k] = tuple(x.strip() for x in v[1:-1].split(","))
        elif re.match(r"^-?\d+$", v):
            attrs[k] = int(v)
        else:
            try:
                attrs[k] = _parse_ty(v)
            except IRParseError:
                attrs[k] = v
    return attrs


def _parse_instr(line: str) -> Instr:
    line = line.strip()
    # control flow forms
    if line.startswith("br "):
        m = re.match(r"^br (.+), label ([\w.%-]+), label ([\w.%-]+)$", line)
        if not m:
            raise IRParseError(f"bad br: {line!r}")
        return Instr("br", None, VOID, (_parse_operand(m.group(1)),),
                     targets=(m.group(2), m.group(3)))
    if line.startswith("jmp "):
        m = re.match(r"^jmp label ([\w.%-]+)$", line)
        if not m:
            raise IRParseError(f"bad jmp: {line!r}")
        return Instr("jmp", None, VOID, (), target=m.group(1))
    if line == "ret void":
        return Instr("ret", None, VOID, ())
    if line.startswith("ret "):
        return Instr("ret", None, VOID, (_parse_operand(line[4:]),))
    if line == "unreachable":
        return Instr("unreachable")
    if line.startswith("call void @"):
        m = re.match(r"^call void @([\w.$-]+)\((.*)\)$", line)
        if not m:
            raise IRParseError(f"bad call: {line!r}")
        args = tuple(_parse_operand(a) for a in _split_args(m.group(2)))
        return Instr("call", None, VOID, args, callee=m.group(1))
    if not line.startswith("%") and " " in line:
        # void instruction with operands, e.g. store / vstore / memset / output
        op, rest = line.split(" ", 1)
        attrs = {}
        am = re.search(r"\{(.*)\}$", rest)
        if am:
            attrs = _parse_attrs(am.group(1))
            rest = rest[: am.start()].strip()
        args = tuple(_parse_operand(a) for a in _split_args(rest)) if rest else ()
        return Instr(op, None, VOID, args, **attrs)

    # result-producing forms: "%res = op ..."
    m = re.match(r"^(%[\w.$-]+) = (\w[\w-]*) (.+)$", line)
    if not m:
        raise IRParseError(f"cannot parse instruction {line!r}")
    res, op, rest = m.group(1), m.group(2), m.group(3)
    if op == "phi":
        tm = re.match(r"^(<\d+ x [a-z0-9]+>|[a-z]\w*)\s+(.*)$", rest)
        ty = _parse_ty(tm.group(1))
        incoming = []
        for part in re.findall(r"\[([^\]]*->[^\]]*)\]", tm.group(2)):
            blk, _, val = part.partition("->")
            incoming.append((blk.strip(), _parse_operand(val.strip())))
        return Instr("phi", res, ty, (), incoming=incoming)
    if op == "call":
        cm = re.match(r"^(<\d+ x [a-z0-9]+>|[a-z]\w*) @([\w.$-]+)\((.*)\)$", rest)
        if not cm:
            raise IRParseError(f"bad call: {line!r}")
        ty = _parse_ty(cm.group(1))
        args = tuple(_parse_operand(a) for a in _split_args(cm.group(3)))
        return Instr("call", res, ty, args, callee=cm.group(2))
    if op == "alloca":
        am = re.match(r"^(<\d+ x [a-z0-9]+>|[a-z]\w*) x (\d+)$", rest)
        if not am:
            raise IRParseError(f"bad alloca: {line!r}")
        return Instr("alloca", res, PTR, (), elem_ty=_parse_ty(am.group(1)),
                     count=int(am.group(2)))
    if op == "gaddr":
        gm = re.match(r"^@([\w.$-]+)$", rest)
        if not gm:
            raise IRParseError(f"bad gaddr: {line!r}")
        return Instr("gaddr", res, PTR, (), name=gm.group(1))
    # generic: "<ty> [args] [{attrs}]"
    attrs = {}
    am = re.search(r"\{(.*)\}$", rest)
    if am:
        attrs = _parse_attrs(am.group(1))
        rest = rest[: am.start()].strip()
    tm = re.match(r"^(<\d+ x [a-z0-9]+>|[a-z]\w*)(?:\s+(.*))?$", rest)
    if not tm:
        raise IRParseError(f"cannot parse {line!r}")
    ty = _parse_ty(tm.group(1))
    arg_text = tm.group(2) or ""
    args = tuple(_parse_operand(a) for a in _split_args(arg_text)) if arg_text else ()
    return Instr(op, res, ty, args, **attrs)


_FUNC_RE = re.compile(r"^func @([\w.$-]+)\((.*)\) -> (<\d+ x [a-z0-9]+>|[a-z]\w*)((?: \w+)*) \{$")
_GLOBAL_RE = re.compile(
    r"^global @([\w.$-]+) : (<\d+ x [a-z0-9]+>|[a-z]\w*) x (\d+)( const)? = \[(.*)\]$"
)


def parse_module(text: str) -> Module:
    """Parse textual IR produced by :func:`print_module`."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("module @"):
        raise IRParseError("missing module header")
    mname = lines[0][len("module @"):].split()[0].rstrip("{").strip()
    module = Module(mname)
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        if line == "}":
            i += 1
            continue
        gm = _GLOBAL_RE.match(line)
        if gm:
            init = [
                _parse_number(x) for x in gm.group(5).split(",") if x.strip()
            ]
            module.add_global(
                GlobalVar(gm.group(1), _parse_ty(gm.group(2)), init, bool(gm.group(4)))
            )
            i += 1
            continue
        fm = _FUNC_RE.match(line)
        if fm:
            params = []
            if fm.group(2).strip():
                for p in _split_args(fm.group(2)):
                    ty_s, name = p.rsplit(" ", 1)
                    params.append((name.strip(), _parse_ty(ty_s)))
            fn = Function(fm.group(1), params, _parse_ty(fm.group(3)))
            for a in fm.group(4).split():
                fn.attrs.add(a)
            i += 1
            cur_block: Optional[Block] = None
            while i < len(lines) and lines[i].strip() != "}":
                raw = lines[i]
                if not raw.startswith(" ") and raw.rstrip().endswith(":"):
                    cur_block = fn.add_block(raw.strip()[:-1])
                else:
                    if cur_block is None:
                        raise IRParseError(f"instruction outside block: {raw!r}")
                    cur_block.instrs.append(_parse_instr(raw))
                i += 1
            i += 1  # consume closing brace
            # restore the fresh-name counter past any parsed %name.N
            max_n = 0
            for inst in fn.instructions():
                for name in [inst.res] + [a for a in inst.args if isinstance(a, str)]:
                    if isinstance(name, str):
                        m2 = re.search(r"\.(\d+)$", name)
                        if m2:
                            max_n = max(max_n, int(m2.group(1)))
            fn._counter = max_n + 1
            module.add_function(fn)
            continue
        raise IRParseError(f"cannot parse line: {line!r}")
    return module

"""Parity kernels: one small program per opcode family.

Each builder takes an iteration count and returns a module whose ``main``
exercises one family of VM instructions (integer ALU, division, floats,
compares and branches, memory, calls, SLP vectors, long straight-line ALU
chains, wide independent lanes, and phis that swap and rotate values).
The differential tests run them under the tree walker, the bytecode
dispatch loop and the translated code.
"""

from repro.compiler.builder import FunctionBuilder, c
from repro.compiler.ir import F64, I32, I64, GlobalVar, Module
from repro.compiler.opt_tool import run_opt


def _kernel_int_alu(iters: int):
    """add/sub/mul/xor/and/shl/ashr over a 64-bit accumulator."""
    mod = Module("k_int_alu")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(1, I64), acc)

    def body(bb, i):
        cur = bb.load(I64, acc)
        iw = bb.sext(i, I64)
        t = bb.add(cur, iw, I64)
        t = bb.mul(t, c(2654435761, I64), I64)
        t = bb.xor(t, c(0x5DEECE66D, I64), I64)
        t = bb.and_(t, c((1 << 48) - 1, I64), I64)
        t = bb.shl(t, c(3, I64), I64)
        t = bb.ashr(t, c(2, I64), I64)
        t = bb.sub(t, iw, I64)
        bb.store(t, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_int_div(iters: int):
    """sdiv/srem with sign-alternating operands (the C-truncation path)."""
    mod = Module("k_int_div")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(-123456789, I64), acc)

    def body(bb, i):
        cur = bb.load(I64, acc)
        iw = bb.sext(i, I64)
        d = bb.add(iw, c(3, I64), I64)
        q = bb.sdiv(cur, d, I64)
        r = bb.srem(cur, d, I64)
        t = bb.sub(q, r, I64)
        t = bb.mul(t, c(-7, I64), I64)
        t = bb.add(t, iw, I64)
        bb.store(t, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_float(iters: int):
    """fadd/fmul/fdiv/sitofp/fptosi round trips."""
    mod = Module("k_float")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(F64, hint="acc")
    b.store(c(1.5, F64), acc)

    def body(bb, i):
        cur = bb.load(F64, acc)
        x = bb.sitofp(bb.add(i, c(1, I32), I32), F64)
        t = bb.fmul(cur, c(1.0000001, F64), F64)
        t = bb.fadd(t, bb.fdiv(x, c(65536.0, F64), F64), F64)
        t = bb.fsub(t, bb.fdiv(t, c(1024.0, F64), F64), F64)
        bb.store(t, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.fptosi(b.load(F64, acc), I64)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_compare_branch(iters: int):
    """signed *and unsigned* icmp feeding data-dependent branches."""
    mod = Module("k_cmp_br")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        v = bb.sub(i, c(2000, I32), I32)  # sign-alternating
        is_neg = bb.icmp("slt", v, c(0, I32))
        # as unsigned, negative v is huge: takes the opposite branch
        is_big = bb.icmp("ugt", v, c(1000, I32))

        def then1(bb2):
            cur = bb2.load(I64, acc)
            bb2.store(bb2.add(cur, c(3, I64), I64), acc)

        def else1(bb2):
            cur = bb2.load(I64, acc)
            bb2.store(bb2.sub(cur, c(1, I64), I64), acc)

        bb.if_then(is_neg, then1, else1, tag="neg")

        def then2(bb2):
            cur = bb2.load(I64, acc)
            bb2.store(bb2.xor(cur, c(0xFF, I64), I64), acc)

        bb.if_then(is_big, then2, tag="big")
        sel = bb.select(
            bb.icmp("ule", v, c(7, I32)), c(11, I64), c(13, I64), I64
        )
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, sel, I64), acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_memory(iters: int, n: int = 64):
    """gep/load/store traffic over a global array and a stack buffer."""
    mod = Module("k_memory")
    mod.add_global(GlobalVar("table", I32, [((i * 37) % 251) for i in range(n)]))
    b = FunctionBuilder(mod, "main", [], I64)
    tab = b.gaddr("table")
    buf = b.alloca(I32, count=n, hint="buf")
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        idx = bb.srem(i, c(n, I32), I32)
        v = bb.load(I32, bb.gep(tab, idx, I32))
        slot = bb.gep(buf, idx, I32)
        old = bb.load(I32, slot)
        bb.store(bb.add(old, v, I32), slot)
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, bb.sext(v, I64), I64), acc)

    # first pass zero-fills the stack buffer
    def zero(bb, i):
        bb.store(c(0, I32), bb.gep(buf, i, I32))

    b.counted_loop(c(0, I32), c(n, I32), zero, tag="zero")
    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_calls(iters: int):
    """a tiny callee invoked every iteration (call/ret + frame churn)."""
    mod = Module("k_calls")
    h = FunctionBuilder(mod, "mix", [("a", I64), ("b", I64)], I64)
    t = h.xor("a", h.mul("b", c(31, I64), I64), I64)
    h.ret(h.add(t, c(17, I64), I64))

    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    b.store(c(7, I64), acc)

    def body(bb, i):
        cur = bb.load(I64, acc)
        r = bb.call("mix", [cur, bb.sext(i, I64)], I64)
        bb.store(r, acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_fused_chain(iters: int):
    """one long straight-line int+float ALU chain per iteration: one block
    of nearly pure register arithmetic."""
    mod = Module("k_fused_chain")
    b = FunctionBuilder(mod, "main", [], I64)
    acc = b.alloca(I64, hint="acc")
    facc = b.alloca(F64, hint="facc")
    b.store(c(1, I64), acc)
    b.store(c(1.0, F64), facc)

    def body(bb, i):
        t = bb.load(I64, acc)
        iw = bb.sext(i, I64)
        for k in range(4):
            t = bb.add(t, iw, I64)
            t = bb.mul(t, c(2654435761 + k, I64), I64)
            t = bb.xor(t, c(0x9E3779B9, I64), I64)
            t = bb.and_(t, c((1 << 52) - 1, I64), I64)
            t = bb.sub(t, c(k + 1, I64), I64)
        f = bb.load(F64, facc)
        x = bb.sitofp(i, F64)
        f = bb.fadd(f, bb.fmul(x, c(0.0009765625, F64), F64), F64)
        f = bb.fsub(f, bb.fmul(f, c(0.000244140625, F64), F64), F64)
        bb.store(t, acc)
        bb.store(f, facc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.add(b.load(I64, acc), b.fptosi(b.load(F64, facc), I64), I64)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_fused_wide(iters: int, lanes: int = 64):
    """64 independent lanes of identical int ALU work per iteration: wide
    dependence levels inside one long block."""
    mod = Module("k_fused_wide")
    mod.add_global(
        GlobalVar("src", I64, [((k * 2654435761) & ((1 << 63) - 1)) for k in range(lanes)])
    )
    b = FunctionBuilder(mod, "main", [], I64)
    src = b.gaddr("src")
    acc = b.alloca(I64, count=lanes, hint="acc")

    def init(bb, i):
        bb.store(c(0, I64), bb.gep(acc, i, I64))

    b.counted_loop(c(0, I32), c(lanes, I32), init, tag="init")

    def body(bb, i):
        iw = bb.sext(i, I64)
        vals = [bb.load(I64, bb.gep(src, c(k, I64), I64)) for k in range(lanes)]
        accs = [bb.load(I64, bb.gep(acc, c(k, I64), I64)) for k in range(lanes)]
        # three wide dependence levels
        t = [bb.mul(v, c(2654435761, I64), I64) for v in vals]
        t = [bb.xor(x, iw, I64) for x in t]
        t = [bb.add(a, x, I64) for a, x in zip(accs, t)]
        for k, x in enumerate(t):
            bb.store(x, bb.gep(acc, c(k, I64), I64))

    b.counted_loop(c(0, I32), c(iters, I32), body)
    total = b.alloca(I64, hint="total")
    b.store(c(0, I64), total)

    def reduce(bb, i):
        cur = bb.load(I64, total)
        bb.store(bb.add(cur, bb.load(I64, bb.gep(acc, i, I64)), I64), total)

    b.counted_loop(c(0, I32), c(lanes, I32), reduce, tag="reduce")
    out = b.load(I64, total)
    b.output(out)
    b.ret(out)
    return mod


def _kernel_vector(iters: int):
    """an SLP-vectorized dot-product body (vload/vbinop/vreduce)."""
    lanes = 8
    mod = Module("k_vector")
    mod.add_global(GlobalVar("w", I32, [i + 1 for i in range(lanes)]))
    mod.add_global(GlobalVar("d", I32, [2 * i + 1 for i in range(lanes)]))
    b = FunctionBuilder(mod, "main", [], I64)
    w = b.gaddr("w")
    d = b.gaddr("d")
    acc = b.alloca(I64, hint="acc")
    b.store(c(0, I64), acc)

    def body(bb, i):
        total = None
        for k in range(lanes):
            wv = bb.load(I32, bb.gep(w, c(k, I64), I32))
            dv = bb.load(I32, bb.gep(d, c(k, I64), I32))
            m = bb.mul(wv, dv, I32)
            total = m if total is None else bb.add(total, m, I32)
        cur = bb.load(I64, acc)
        bb.store(bb.add(cur, bb.sext(total, I64), I64), acc)

    b.counted_loop(c(0, I32), c(iters, I32), body)
    out = b.load(I64, acc)
    b.output(out)
    b.ret(out)
    cr = run_opt(mod, ["mem2reg", "slp-vectorizer"])
    return cr.module


def _kernel_phi_swap(iters: int):
    """phis that swap two values and rotate three around a loop, so each
    back edge's copies must read every source before writing any
    destination (and a Fibonacci pair that reads the old values)."""
    mod = Module("k_phi_swap")
    b = FunctionBuilder(mod, "main", [], I64)
    b.jmp("loop")
    b.block("loop")
    i = b.phi(I32, [("entry", c(0, I32))])
    x = b.phi(I64, [("entry", c(1, I64))])
    y = b.phi(I64, [("entry", c(2, I64))])
    p = b.phi(I64, [("entry", c(3, I64))])
    q = b.phi(I64, [("entry", c(5, I64))])
    r = b.phi(I64, [("entry", c(7, I64))])
    f0 = b.phi(I64, [("entry", c(0, I64))])
    f1 = b.phi(I64, [("entry", c(1, I64))])
    b.output(b.sub(x, y, I64))
    b.output(b.add(b.mul(p, c(100, I64), I64), b.sub(q, r, I64), I64))
    fsum = b.add(f0, f1, I64)
    i_next = b.add(i, c(1, I32), I32)
    latch = b.current
    b.br(b.icmp("slt", i_next, c(iters, I32)), "loop", "done")
    back = {i: i_next, x: y, y: x, p: q, q: r, r: p, f0: f1, f1: fsum}
    for ins in latch.instrs:
        if ins.op == "phi":
            ins.attrs["incoming"].append(("loop", back[ins.res]))
    b.block("done")
    out = b.add(b.mul(x, c(1000, I64), I64), b.add(p, f1, I64), I64)
    b.output(out)
    b.ret(out)
    return mod


#: family name -> builder
KERNEL_FAMILIES = {
    "int_alu": _kernel_int_alu,
    "int_div": _kernel_int_div,
    "float": _kernel_float,
    "compare_branch": _kernel_compare_branch,
    "memory": _kernel_memory,
    "calls": _kernel_calls,
    "vector": _kernel_vector,
    "fused_chain": _kernel_fused_chain,
    "fused_wide": _kernel_fused_wide,
    "phi_swap": _kernel_phi_swap,
}


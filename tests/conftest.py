"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler.builder import FunctionBuilder, c
from repro.compiler.ir import I16, I32, I64, Const, Module


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def build_dot_kernel(acc_ty=I64, mul_ty=I32, elem_ty=I16, lanes=8) -> Module:
    """The Fig 5.1 manually-unrolled widening dot product as a main()."""
    mod = Module("dotmod")
    b = FunctionBuilder(mod, "main", [], acc_ty)
    w = b.alloca(elem_ty, count=lanes, hint="w")
    d = b.alloca(elem_ty, count=lanes, hint="d")
    for i in range(lanes):
        b.store(c(i + 1, elem_ty), b.gep(w, c(i, I64), elem_ty))
        b.store(c(2 * i + 1, elem_ty), b.gep(d, c(i, I64), elem_ty))
    acc = b.alloca(acc_ty, hint="acc")
    b.store(c(0, acc_ty), acc)
    for i in range(lanes):
        wv = b.load(elem_ty, b.gep(w, c(i, I64), elem_ty))
        dv = b.load(elem_ty, b.gep(d, c(i, I64), elem_ty))
        ws = b.sext(wv, mul_ty)
        ds = b.sext(dv, mul_ty)
        m = b.mul(ws, ds, mul_ty)
        mw = b.sext(m, acc_ty) if acc_ty.bits > mul_ty.bits else m
        cur = b.load(acc_ty, acc)
        b.store(b.add(cur, mw, acc_ty), acc)
    res = b.load(acc_ty, acc)
    b.output(res)
    b.ret(res)
    return mod


def build_sum_loop_module(n=16, with_output=True) -> Module:
    """A simple counted summation loop over a global array."""
    from repro.compiler.ir import GlobalVar

    mod = Module("summod")
    mod.add_global(GlobalVar("data", I32, list(range(1, n + 1))))
    b = FunctionBuilder(mod, "main", [], I32)
    arr = b.gaddr("data")
    acc = b.alloca(I32, hint="acc")
    b.store(c(0, I32), acc)

    def body(bb, i):
        v = bb.load(I32, bb.gep(arr, i, I32))
        cur = bb.load(I32, acc)
        bb.store(bb.add(cur, v, I32), acc)

    b.counted_loop(c(0, I32), c(n, I32), body)
    out = b.load(I32, acc)
    if with_output:
        b.output(out)
    b.ret(out)
    return mod


@pytest.fixture
def dot_module():
    return build_dot_kernel()


@pytest.fixture
def sum_loop_module():
    return build_sum_loop_module()

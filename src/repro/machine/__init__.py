"""Execution substrate: IR interpreter, bytecode VM and its translation
into Python, cost models, profiler."""

from repro.machine.interp import ExecutionResult, Interpreter, run_program
from repro.machine.bytecode import BytecodeVM, compile_module, run_bytecode
from repro.machine.codegen import translate_module
from repro.machine.platforms import PLATFORMS, Platform, get_platform
from repro.machine.cost_model import estimate_cycles
from repro.machine.profiler import Profiler, FunctionProfile

__all__ = [
    "ExecutionResult",
    "Interpreter",
    "run_program",
    "BytecodeVM",
    "compile_module",
    "run_bytecode",
    "translate_module",
    "Platform",
    "PLATFORMS",
    "get_platform",
    "estimate_cycles",
    "Profiler",
    "FunctionProfile",
]

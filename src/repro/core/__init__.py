"""CITROEN: compilation-statistics-guided BO for compiler phase ordering.

The paper's primary contribution (Chapter 5 / IPDPS 2025).  Public entry
points:

* :class:`AutotuningTask` — wraps a program + platform into the compile /
  measure / verify interface (the "user-friendly framework", §5.3.6);
* :class:`Citroen` — the tuner (cost model on compilation statistics,
  coverage-aware acquisition, DES/GA/random candidate generation, adaptive
  multi-module budget allocation);
* :class:`TuningResult` — the search trace shared with every baseline.
"""

from repro.core.task import AutotuningTask
from repro.core.eval_engine import CompileEngine, CompileOutcome
from repro.core.faults import FaultInjector, corrupt_module, parse_fault_kinds
from repro.core.result import Measurement, TuningResult
from repro.core.cost_model import CitroenCostModel
from repro.core.generator import CandidateGenerator, base_strategy
from repro.core.citroen import Citroen
from repro.core.differential import differential_test
from repro.core.transfer import PassCorrelationPrior
from repro.core.wal import WriteAheadLog, read_wal

__all__ = [
    "AutotuningTask",
    "CandidateGenerator",
    "Citroen",
    "CitroenCostModel",
    "CompileEngine",
    "CompileOutcome",
    "FaultInjector",
    "Measurement",
    "PassCorrelationPrior",
    "TuningResult",
    "WriteAheadLog",
    "base_strategy",
    "corrupt_module",
    "differential_test",
    "parse_fault_kinds",
    "read_wal",
]

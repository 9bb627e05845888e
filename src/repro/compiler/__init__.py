"""Compiler driver: assay source -> AIS program + volume plan.

* :mod:`repro.compiler.passes` — the instrumented pass pipeline;
  :func:`~repro.compiler.passes.run_compile` is the one compile entry
  point, and ``run_compile(...).compiled`` is a :class:`CompiledAssay`;
* :mod:`repro.compiler.codegen` — DAG -> AIS instruction selection,
  storage-less operand placement, matrix/pusher loading;
* :mod:`repro.compiler.diagnostics` — structured warnings (underflow risk,
  regeneration fallback, transforms applied);
* :mod:`repro.compiler.cache` — content-addressed plan cache (in-memory
  LRU + optional on-disk store);
* :mod:`repro.compiler.batch` — :func:`compile_many` batch driver with
  fingerprint dedupe and process fan-out.
"""

from .batch import BatchItemResult, BatchJob, BatchReport, compile_many
from .cache import CacheStats, PlanCache
from .codegen import CodegenError, execution_order, generate
from .rolled import RolledListing, render_rolled, render_rolled_source
from .diagnostics import Diagnostic, DiagnosticSink
from .passes.context import CompiledAssay

__all__ = [
    "compile_many",
    "CompiledAssay",
    "BatchJob",
    "BatchItemResult",
    "BatchReport",
    "PlanCache",
    "CacheStats",
    "generate",
    "render_rolled",
    "render_rolled_source",
    "RolledListing",
    "execution_order",
    "CodegenError",
    "Diagnostic",
    "DiagnosticSink",
]

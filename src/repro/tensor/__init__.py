"""Instrumented tensor runtime.

The suite's replacement for "PyTorch + PyTorch Profiler": a numpy-backed
tensor API whose every operation is classified under the paper's
six-way operator taxonomy and recorded into a trace when a profiling
context is active.

Typical usage::

    from repro import tensor as T

    with T.profile("my-workload") as prof:
        with T.phase("neural"):
            y = T.relu(T.matmul(x, w))
        with T.phase("symbolic"):
            bound = T.circular_conv(a, b)
    from repro.core.suite import characterize_trace
    print(characterize_trace(prof.trace).render())
"""

from repro.tensor.context import ProfileContext, active_context, phase, profile, stage
from repro.tensor.dispatch import record_region, run_op
from repro.tensor.heap import keep_freed_memory_mapped
from repro.tensor.ops import *  # noqa: F401,F403 - re-export the functional API
from repro.tensor.ops import __all__ as _ops_all
from repro.tensor.sparse import (CSRMatrix, csr_mask, csr_row_softmax,
                                 sddmm, spmm)
from repro.tensor.tensor import Tensor, as_tensor

__all__ = [
    "Tensor", "as_tensor",
    "ProfileContext", "active_context", "profile", "phase", "stage",
    "run_op", "record_region",
    "CSRMatrix", "csr_mask", "csr_row_softmax", "sddmm", "spmm",
] + list(_ops_all)

keep_freed_memory_mapped()

"""The paper's contribution: the characterization suite itself.

Submodules and their public names are loaded lazily (PEP 562) so that
importing a leaf module such as :mod:`repro.core.taxonomy` — which the
substrates depend on — does not drag in the analysis modules that
themselves depend on the substrates.
"""

from __future__ import annotations

import importlib
from typing import Dict

_SUBMODULES = (
    "analysis", "functions", "inefficiency", "memory", "opgraph",
    "profiler", "report", "rooflineplot", "scaling",
    "sparsity", "suite", "taxonomy", "validate",
)

#: public name -> defining submodule
_EXPORTS: Dict[str, str] = {
    "LatencyBreakdown": "analysis", "OperatorBreakdown": "analysis",
    "flops_breakdown": "analysis", "latency_breakdown": "analysis",
    "operator_breakdown": "analysis",
    "FunctionStats": "functions", "function_table": "functions",
    "render_function_table": "functions",
    "InefficiencyReport": "inefficiency",
    "analyze_inefficiency": "inefficiency",
    "MemoryProfile": "memory", "memory_profile": "memory",
    "OpGraphReport": "opgraph", "analyze_graph": "opgraph",
    "PHASE_NEURAL": "profiler", "PHASE_SYMBOLIC": "profiler",
    "Trace": "profiler", "TraceEvent": "profiler",
    "merge_traces": "profiler",
    "RooflineFigure": "rooflineplot", "phase_boundedness": "rooflineplot",
    "roofline_figure": "rooflineplot",
    "ScalePoint": "scaling", "ScalingStudy": "scaling",
    "nvsa_task_size_study": "scaling", "sweep": "scaling",
    "phase_compute_utilization": "analysis",
    "StageSparsity": "sparsity", "nvsa_attribute_sweep": "sparsity",
    "overall_sparsity": "sparsity", "stage_sparsity": "sparsity",
    "WorkloadReport": "suite", "characterize": "suite",
    "characterize_trace": "suite",
    "ALGORITHM_REGISTRY": "taxonomy", "CATEGORY_ORDER": "taxonomy",
    "OPERATION_EXAMPLES": "taxonomy", "AlgorithmEntry": "taxonomy",
    "NSParadigm": "taxonomy", "OpCategory": "taxonomy",
    "algorithms_by_paradigm": "taxonomy", "lookup_algorithm": "taxonomy",
    "ValidationResult": "validate", "validate_trace": "validate",
}

__all__ = list(_SUBMODULES) + list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"repro.core.{name}")
    if name in _EXPORTS:
        module = importlib.import_module(f"repro.core.{_EXPORTS[name]}")
        return getattr(module, name)
    raise AttributeError(f"module 'repro.core' has no attribute {name!r}")


def __dir__():
    return sorted(__all__)

"""Ablation: hypervector dimensionality.

DESIGN.md calls out the hypervector dimension d as NVSA's central
capacity/cost knob: codebook bytes and symbolic traffic scale linearly
with d, while reasoning accuracy saturates once vectors are
quasi-orthogonal enough.  This bench sweeps d and measures both sides
of the trade.
"""

import numpy as np

from repro.core.analysis import latency_breakdown
from repro.core.report import format_bytes, format_time, render_table
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import create

from conftest import emit

DIMS = (256, 512, 1024, 2048)
SEEDS = range(4)


def reproduce_dimension_ablation():
    rows = []
    traffic = {}
    for dim in DIMS:
        correct = 0
        symbolic_bytes = 0
        codebook = 0
        total_time = 0.0
        for seed in SEEDS:
            workload = create("nvsa", dim=dim, seed=seed)
            trace = workload.profile()
            correct += int(trace.metadata["result"]["correct"])
            cols = trace.columns
            symbolic_bytes = sum(
                cols.total_bytes[cols.in_phase("symbolic")].tolist())
            codebook = trace.metadata["codebook_bytes"]
            total_time = latency_breakdown(
                project_trace(trace, RTX_2080TI)).total_time
        traffic[dim] = symbolic_bytes
        rows.append([dim, f"{correct}/{len(list(SEEDS))}",
                     format_bytes(codebook),
                     format_bytes(symbolic_bytes),
                     format_time(total_time)])
    return rows, traffic


def test_ablation_dimension(benchmark):
    rows, traffic = benchmark.pedantic(reproduce_dimension_ablation,
                                       rounds=1, iterations=1)
    emit("ablation_dimension", render_table(
        ["hypervector dim", "RPM accuracy", "codebook bytes",
         "symbolic traffic", "latency"],
        rows, title="Ablation — NVSA hypervector dimensionality"),
        rows=rows,
        columns=["dim", "rpm_accuracy", "codebook_bytes",
                 "symbolic_traffic", "latency"],
        meta={"dims": list(DIMS), "seeds": len(list(SEEDS)),
              "symbolic_traffic_bytes": {str(k): v
                                         for k, v in traffic.items()}})
    # traffic scales roughly linearly with d
    assert traffic[2048] > traffic[256] * 4
    # accuracy does not collapse at the default dimension
    accuracy_1024 = int(rows[2][1].split("/")[0])
    assert accuracy_1024 >= 3

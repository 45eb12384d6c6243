"""Ablation: NLM depth and breadth.

NLM forms higher abstraction levels by stacking layers (depth) and
wider relations by raising the maximum predicate arity (breadth).
Both knobs multiply the symbolic expand/reduce/permute traffic — the
breadth-3 ternary tensors dominate bytes (n^3 elements, 6 axis
permutations), which is why the paper flags NLM's scalability.
"""

from repro.core.analysis import latency_breakdown
from repro.core.profiler import PHASE_SYMBOLIC
from repro.core.report import format_bytes, format_time, render_table
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import create

from conftest import emit


def reproduce_nlm_ablation():
    rows = []
    data = {}
    for depth, breadth in ((2, 2), (4, 2), (2, 3), (4, 3), (6, 3)):
        workload = create("nlm", depth=depth, breadth=breadth, seed=0)
        trace = workload.profile()
        lb = latency_breakdown(project_trace(trace, RTX_2080TI))
        cols = trace.columns
        symbolic_bytes = sum(
            cols.total_bytes[cols.in_phase(PHASE_SYMBOLIC)].tolist())
        accuracy = trace.metadata["result"]["grandparent_accuracy"]
        rows.append([depth, breadth, format_time(lb.total_time),
                     f"{lb.symbolic_fraction * 100:.1f}%",
                     format_bytes(symbolic_bytes),
                     f"{accuracy * 100:.0f}%"])
        data[(depth, breadth)] = (lb.total_time, symbolic_bytes)
    return rows, data


def test_ablation_nlm(benchmark):
    rows, data = benchmark.pedantic(reproduce_nlm_ablation, rounds=1,
                                    iterations=1)
    emit("ablation_nlm", render_table(
        ["depth", "breadth", "latency", "symbolic %", "symbolic bytes",
         "grandparent acc"],
        rows, title="Ablation — NLM depth x breadth"),
        rows=rows,
        columns=["depth", "breadth", "latency", "symbolic_pct",
                 "symbolic_bytes", "grandparent_accuracy"],
        meta={"device": "rtx2080ti",
              "symbolic_bytes": {f"d{d}b{b}": by
                                 for (d, b), (_, by) in data.items()}})
    # breadth (arity) is the expensive axis: ternary tensors blow up
    # traffic far more than extra layers do
    bytes_b2 = data[(4, 2)][1]
    bytes_b3 = data[(4, 3)][1]
    assert bytes_b3 > bytes_b2 * 5
    # depth scales latency roughly linearly
    assert data[(4, 3)][0] > data[(2, 3)][0]
    assert data[(6, 3)][0] > data[(4, 3)][0]

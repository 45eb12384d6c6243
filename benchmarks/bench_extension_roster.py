"""Extension roster — paradigm coverage beyond the paper's seven.

Table I spans five integration paradigms; the paper profiles workloads
from four of them.  The suite's extension workloads complete the
coverage (Symbolic[Neuro] via MCTS) and add the taxonomy's remaining
operation styles (SpMM/SDDMM graph attention, non-vector program
execution, non-vector abductive rules).  This bench characterizes the
full extended roster and verifies each paradigm's expected dataflow
signature.
"""

from repro.core.analysis import latency_breakdown
from repro.core.opgraph import analyze_graph
from repro.core.report import format_time, render_table
from repro.core.taxonomy import NSParadigm
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import EXTENSION_ORDER, create

from conftest import cached_trace, emit


def reproduce_extension_roster():
    results = {}
    for name in EXTENSION_ORDER:
        trace = cached_trace(name, seed=0)
        results[name] = (
            create(name).info,
            latency_breakdown(project_trace(trace, RTX_2080TI)),
            analyze_graph(project_trace(trace, RTX_2080TI)),
            trace.metadata["result"],
        )
    return results


def test_extension_roster(benchmark):
    results = benchmark.pedantic(reproduce_extension_roster, rounds=1,
                                 iterations=1)
    rows = []
    for name, (info, lb, graph, result) in results.items():
        rows.append([
            name.upper(), info.paradigm.value,
            format_time(lb.total_time),
            f"{lb.symbolic_fraction * 100:.1f}%",
            "yes" if graph.symbolic_depends_on_neural else "no",
            "yes" if graph.neural_depends_on_symbolic else "no",
        ])
    emit("extension_roster", render_table(
        ["workload", "paradigm", "latency", "symbolic %",
         "symbolic<-neural", "neural<-symbolic"],
        rows, title="Extension roster — remaining Table I paradigms"),
        rows=rows,
        columns=["workload", "paradigm", "latency", "symbolic_pct",
                 "symbolic_depends_on_neural",
                 "neural_depends_on_symbolic"],
        meta={"device": "rtx2080ti", "seed": 0})

    # Symbolic[Neuro]: the symbolic loop drives the neural subroutine
    mcts_graph = results["mcts"][2]
    assert mcts_graph.neural_depends_on_symbolic
    assert results["mcts"][3]["is_winning_move"]

    # Neuro_Symbolic (GNN): rules compiled into the neural structure
    gnn_graph = results["gnn"][2]
    assert gnn_graph.neural_depends_on_symbolic
    assert results["gnn"][3]["accuracy"] > 0.9

    # non-vector Neuro|Symbolic rows stay neural-latency-dominated
    # (their symbolic side is control flow, not tensor algebra)
    for name in ("nsvqa", "abl"):
        assert results[name][1].symbolic_fraction < 0.5, name
    assert results["nsvqa"][3]["accuracy"] == 1.0
    abl = results["abl"][3]
    assert abl["abduced_accuracy"] >= abl["raw_accuracy"]

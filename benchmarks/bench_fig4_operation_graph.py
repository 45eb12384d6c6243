"""Fig. 4 — operation and dataflow analysis.

Paper shape: in the pipelined Neuro|Symbolic systems (NVSA, VSAIT,
PrAE) the symbolic reasoning *depends on* the neural frontend's result
and sits on the end-to-end critical path; in LNN/LTN/NLM/ZeroC the
symbolic knowledge is compiled into (feeds) the neural structure.
Complex control and the symbolic-only phase serialize execution (low
graph width during symbolic stages).
"""

from repro.core.opgraph import analyze_graph
from repro.core.report import render_table
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import PAPER_ORDER

from conftest import cached_trace, emit

PIPELINED = ("nvsa", "vsait", "prae")


def reproduce_fig4():
    return {name: analyze_graph(
                project_trace(cached_trace(name, seed=0), RTX_2080TI))
            for name in PAPER_ORDER}


def test_fig4_operation_graph(benchmark):
    reports = benchmark.pedantic(reproduce_fig4, rounds=1, iterations=1)
    rows = []
    for name, report in reports.items():
        rows.append([
            name.upper(),
            report.num_nodes,
            report.num_edges,
            report.cross_phase_edges,
            "yes" if report.symbolic_depends_on_neural else "no",
            "yes" if report.neural_depends_on_symbolic else "no",
            f"{report.serialization:.2f}",
            f"{report.symbolic_on_critical_path * 100:.0f}%",
            report.max_width,
        ])
    emit("fig4_operation_graph", render_table(
        ["workload", "nodes", "edges", "cross-phase edges",
         "symbolic<-neural", "neural<-symbolic", "serialization",
         "symbolic on crit. path", "max width"],
        rows, title="Fig. 4 — operation-dependency graph analysis"),
        rows=rows,
        columns=["workload", "nodes", "edges", "cross_phase_edges",
                 "symbolic_depends_on_neural",
                 "neural_depends_on_symbolic", "serialization",
                 "symbolic_on_critical_path_pct", "max_width"],
        meta={"device": "rtx2080ti", "seed": 0})

    # pipelined systems: symbolic consumes the neural result
    for name in PIPELINED:
        assert reports[name].symbolic_depends_on_neural, name
        assert reports[name].symbolic_on_critical_path > 0.2, name
    # compiled systems: symbolic wiring feeds neural computation
    for name in ("nlm", "lnn"):
        assert reports[name].neural_depends_on_symbolic or \
            reports[name].symbolic_depends_on_neural, name
    # the dependency chains serialize a meaningful share of execution
    for name, report in reports.items():
        assert report.serialization > 0.02, name

"""Fig. 2a — end-to-end neural vs. symbolic latency split of the seven
workloads on the desktop CPU+GPU system model.

Paper values (symbolic share): LNN 45.4%, LTN 52.0%, NVSA 92.1%,
NLM 60.6%, VSAIT 83.7%, ZeroC 26.8%, PrAE 80.5%.
"""

from repro.core.analysis import latency_breakdown
from repro.core.report import format_time, render_table
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import PAPER_ORDER

from conftest import cached_trace, emit

PAPER_SYMBOLIC_PCT = {
    "lnn": 45.4, "ltn": 52.0, "nvsa": 92.1, "nlm": 60.6,
    "vsait": 83.7, "zeroc": 26.8, "prae": 80.5,
}


def reproduce_fig2a():
    rows = []
    for name in PAPER_ORDER:
        trace = cached_trace(name, seed=0)
        lb = latency_breakdown(project_trace(trace, RTX_2080TI))
        rows.append([
            name.upper(),
            format_time(lb.total_time),
            f"{lb.neural_fraction * 100:.1f}%",
            f"{lb.symbolic_fraction * 100:.1f}%",
            f"{PAPER_SYMBOLIC_PCT[name]:.1f}%",
            len(trace),
        ])
    return rows


def test_fig2a_latency_breakdown(benchmark):
    rows = benchmark.pedantic(reproduce_fig2a, rounds=1, iterations=1)
    emit("fig2a_latency_breakdown", render_table(
        ["workload", "total (RTX model)", "neural %", "symbolic %",
         "paper symbolic %", "events"],
        rows, title="Fig. 2a — neural/symbolic latency split"),
        rows=rows,
        columns=["workload", "total", "neural_pct", "symbolic_pct",
                 "paper_symbolic_pct", "events"],
        meta={"device": "RTX_2080TI", "seed": 0,
              "paper_symbolic_pct": PAPER_SYMBOLIC_PCT})
    # shape check: symbolic share within +-15 points of the paper
    for row in rows:
        ours = float(row[3].rstrip("%"))
        paper = float(row[4].rstrip("%"))
        assert abs(ours - paper) < 15.0, row

"""Fig. 2b — NVSA and NLM end-to-end latency across Jetson TX2,
Xavier NX, and the RTX 2080 Ti.

Paper shape: real-time performance unattainable anywhere; edge SoCs
are 1-2 orders of magnitude slower than the desktop GPU (e.g. NVSA
RPM: 380 s on RTX vs 7507 s on TX2 — a ~20x gap), and the symbolic
share persists across platforms.
"""

from repro.core.analysis import latency_breakdown
from repro.core.report import format_time, render_table
from repro.hwsim import JETSON_TX2, RTX_2080TI, XAVIER_NX, project_trace

from conftest import cached_trace, emit

DEVICES = (RTX_2080TI, XAVIER_NX, JETSON_TX2)


def reproduce_fig2b():
    rows = []
    for name in ("nvsa", "nlm"):
        trace = cached_trace(name, seed=0)
        rtx_time = None
        for device in DEVICES:
            lb = latency_breakdown(project_trace(trace, device))
            if device is RTX_2080TI:
                rtx_time = lb.total_time
            rows.append([
                name.upper(), device.name,
                format_time(lb.total_time),
                f"{lb.total_time / rtx_time:.1f}x",
                f"{lb.symbolic_fraction * 100:.1f}%",
            ])
    return rows


def test_fig2b_edge_platforms(benchmark):
    rows = benchmark.pedantic(reproduce_fig2b, rounds=1, iterations=1)
    emit("fig2b_edge_platforms", render_table(
        ["workload", "device", "latency", "slowdown vs RTX",
         "symbolic %"],
        rows, title="Fig. 2b — edge-platform latency (NVSA, NLM)"),
        rows=rows,
        columns=["workload", "device", "latency", "slowdown_vs_rtx",
                 "symbolic_pct"],
        meta={"devices": [d.name for d in DEVICES], "seed": 0})
    # shape: TX2 is the slowest platform for both workloads
    by_workload = {}
    for workload, device, _, slowdown, _ in rows:
        by_workload.setdefault(workload, {})[device] = float(
            slowdown.rstrip("x"))
    for workload, slowdowns in by_workload.items():
        assert slowdowns["Jetson TX2"] > slowdowns["RTX 2080 Ti"]
        assert slowdowns["Jetson TX2"] >= slowdowns["Xavier NX"] * 0.66
        assert slowdowns["Jetson TX2"] > 2.0, workload

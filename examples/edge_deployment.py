"""Edge-deployment study: can neuro-symbolic models run in real time on
embedded platforms?  (Paper Sec. V-A / Fig. 2b.)

Projects every workload's trace onto the Jetson TX2, Xavier NX, and
RTX 2080 Ti models, checks each against a 33 ms real-time budget
(30 FPS perception-reasoning loop), and breaks down where the edge
platforms lose their time.

Run:  python examples/edge_deployment.py
"""

from repro.core.analysis import latency_breakdown
from repro.core.report import format_time, render_table
from repro.hwsim import (JETSON_TX2, RTX_2080TI, XAVIER_NX, analyze_transfers,
                          project_trace)
from repro.workloads import PAPER_ORDER, create

REAL_TIME_BUDGET = 0.033  # 30 FPS
DEVICES = (RTX_2080TI, XAVIER_NX, JETSON_TX2)


def main() -> None:
    traces = {name: create(name, seed=0).profile()
              for name in PAPER_ORDER}

    rows = []
    for name, trace in traces.items():
        row = [name.upper()]
        for device in DEVICES:
            lb = latency_breakdown(project_trace(trace, device))
            marker = "" if lb.total_time <= REAL_TIME_BUDGET else " (!)"
            row.append(format_time(lb.total_time) + marker)
        rows.append(row)
    print(render_table(
        ["workload"] + [d.name for d in DEVICES], rows,
        title=f"Projected latency per inference "
              f"((!) = misses the {REAL_TIME_BUDGET*1e3:.0f} ms "
              f"real-time budget)"))

    # the symbolic share persists on every platform (Takeaway 2)
    print()
    rows = []
    for name, trace in traces.items():
        row = [name.upper()]
        for device in DEVICES:
            lb = latency_breakdown(project_trace(trace, device))
            row.append(f"{lb.symbolic_fraction * 100:.0f}%")
        rows.append(row)
    print(render_table(
        ["workload"] + [d.name for d in DEVICES], rows,
        title="Symbolic latency share per platform"))

    # host<->device traffic (part of Takeaway 6's data-movement story)
    print()
    rows = []
    for name, trace in traces.items():
        report = analyze_transfers(trace, RTX_2080TI)
        rows.append([
            name.upper(), report.num_transfers,
            f"{report.total_bytes / 1024:.0f} KiB",
            f"{report.h2d_fraction * 100:.0f}%",
            format_time(report.total_time),
        ])
    print(render_table(
        ["workload", "transfers", "bytes", "host->device share",
         "transfer time"],
        rows, title="Host/device transfer analysis (RTX, PCIe 3.0)"))


if __name__ == "__main__":
    main()

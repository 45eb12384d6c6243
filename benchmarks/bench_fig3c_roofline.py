"""Fig. 3c — roofline placement of every workload's neural and symbolic
components on the RTX 2080 Ti model.

Paper shape: symbolic components sit under the bandwidth roof
(memory-bound, low operational intensity); neural components sit under
the compute roof.
"""

from repro.core.rooflineplot import phase_boundedness, roofline_figure
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.core.report import render_table
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import PAPER_ORDER

from conftest import cached_trace, emit


def reproduce_fig3c():
    traces = [cached_trace(name, seed=0) for name in PAPER_ORDER]
    figure = roofline_figure(traces, RTX_2080TI)
    bounds = {name: phase_boundedness(
                  project_trace(cached_trace(name, seed=0), RTX_2080TI))
              for name in PAPER_ORDER}
    return figure, bounds


def test_fig3c_roofline(benchmark):
    figure, bounds = benchmark.pedantic(reproduce_fig3c, rounds=1,
                                        iterations=1)
    rows = []
    for point in figure.points:
        workload, phase = point.label.split(":")
        rows.append([
            workload.upper(), phase,
            f"{point.operational_intensity:.2f}",
            f"{point.achieved_flops / 1e9:.1f} GFLOP/s",
            f"{point.attainable_flops / 1e9:.1f} GFLOP/s",
            bounds[workload][phase],
        ])
    rows.append(["(ridge)", "", f"{figure.ridge_point:.1f}", "", "", ""])
    emit("fig3c_roofline", render_table(
        ["workload", "phase", "OI (FLOP/B)", "achieved", "attainable",
         "bound (time-weighted)"],
        rows, title="Fig. 3c — roofline placement on RTX 2080 Ti"),
        rows=rows,
        columns=["workload", "phase", "operational_intensity",
                 "achieved", "attainable", "bound"],
        meta={"device": "rtx2080ti",
              "ridge_point": figure.ridge_point, "seed": 0})

    # shape: symbolic memory-bound, neural compute-bound, for the
    # pipelined perception workloads
    for name in ("nvsa", "prae", "vsait"):
        assert bounds[name][PHASE_SYMBOLIC] == "memory", name
        assert bounds[name][PHASE_NEURAL] == "compute", name
    # neural OI exceeds symbolic OI for every workload except LNN,
    # whose "neural" side is itself vector-op/data-movement dominated
    # (the paper's own Fig. 3a observation for LNN neuro)
    oi = {p.label: p.operational_intensity for p in figure.points}
    for name in PAPER_ORDER:
        if name == "lnn":
            continue
        assert oi[f"{name}:neural"] > oi[f"{name}:symbolic"], name

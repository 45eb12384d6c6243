"""Recommendations 2-6 quantified — the paper suggests cross-layer
optimizations for neuro-symbolic systems; this bench applies each
what-if model to two symbolic-bound workloads and measures the
projected end-to-end effect:

* **NVSA** — its symbolic phase is a long chain of small kernels, so
  it responds to the *architecture/system* recommendations (custom
  symbolic units with fused dispatch, parallel scheduling);
* **VSAIT** — its symbolic phase streams huge hypervector arrays, so
  it responds to the *memory* recommendations (quantization, CIM,
  bandwidth scaling).

That split is itself a reproduction of the paper's point that the
optimizations are complementary and workload-dependent.
"""

from repro.core.analysis import latency_breakdown
from repro.core.report import format_time, render_table
from repro.hwsim import RTX_2080TI, project_trace
from repro.hwsim.whatif import (compute_in_memory, parallel_schedule_bound,
                                prune_trace, quantize_trace,
                                scale_bandwidth, symbolic_accelerator)

from conftest import cached_trace, emit


def reproduce_recommendations():
    results = {}
    for name in ("nvsa", "vsait"):
        trace = cached_trace(name, seed=0)
        baseline = latency_breakdown(project_trace(trace, RTX_2080TI))
        scenarios = []

        def add(label, trace_, device):
            lb = latency_breakdown(project_trace(trace_, device))
            scenarios.append((label, lb.total_time,
                              baseline.total_time / lb.total_time,
                              lb.symbolic_fraction))

        add("baseline (RTX 2080 Ti)", trace, RTX_2080TI)
        add("Rec 2/6: symbolic accelerator", trace,
            symbolic_accelerator(RTX_2080TI))
        add("Rec 3: INT8 quantization", quantize_trace(trace, 8),
            RTX_2080TI)
        add("Rec 3/7: sparsity-aware execution", prune_trace(trace, 0.5),
            RTX_2080TI)
        add("Rec 4: compute-in-memory", trace,
            compute_in_memory(RTX_2080TI))
        add("Rec 6: 2x NoC/memory bandwidth", trace,
            scale_bandwidth(RTX_2080TI, 2.0))
        parallel = parallel_schedule_bound(trace, RTX_2080TI)
        results[name] = (baseline, scenarios, parallel)
    return results


def test_recommendations(benchmark):
    results = benchmark.pedantic(reproduce_recommendations, rounds=1,
                                 iterations=1)
    rows = []
    for name, (baseline, scenarios, parallel) in results.items():
        for label, total, speedup, sym in scenarios:
            rows.append([name.upper(), label, format_time(total),
                         f"{speedup:.2f}x", f"{sym * 100:.1f}%"])
        rows.append([name.upper(), "Rec 5: parallel scheduling bound",
                     "-", f"{parallel:.2f}x", "-"])
    emit("recommendations_whatif", render_table(
        ["workload", "scenario", "latency", "speedup", "symbolic share"],
        rows, title="Paper recommendations quantified"),
        rows=rows,
        columns=["workload", "scenario", "latency", "speedup",
                 "symbolic_share_pct"],
        meta={"device": "rtx2080ti", "seed": 0})

    nvsa_base, nvsa_scen, nvsa_parallel = results["nvsa"]
    nvsa = {label: speedup for label, _, speedup, _ in nvsa_scen}
    vsait_base, vsait_scen, _ = results["vsait"]
    vsait = {label: speedup for label, _, speedup, _ in vsait_scen}

    # architecture/system recs pay off on the small-kernel workload
    assert nvsa["Rec 2/6: symbolic accelerator"] > 2.0
    accel_share = next(s for l, _, _, s in nvsa_scen
                       if l.startswith("Rec 2/6"))
    assert accel_share < nvsa_base.symbolic_fraction
    assert nvsa_parallel > 1.5

    # memory recs pay off on the streaming-hypervector workload
    assert vsait["Rec 3: INT8 quantization"] > 1.3
    assert vsait["Rec 4: compute-in-memory"] > 1.3
    assert vsait["Rec 6: 2x NoC/memory bandwidth"] > 1.2
    assert vsait["Rec 3/7: sparsity-aware execution"] >= 1.0

"""Fig. 3a — operator-category runtime split per workload, neural and
symbolic components separately.

Paper shape: neural components dominated by MatMul/Conv (LTN by MatMul
via its MLPs; NVSA/VSAIT/PrAE by Conv+MatMul perception; LNN/NLM
neural heavy on vector ops); symbolic components dominated by
vector/element-wise tensor ops, data transformation/movement, and
logic ("Others") — never by Conv.
"""

from repro.core.analysis import operator_breakdown
from repro.core.profiler import PHASE_NEURAL, PHASE_SYMBOLIC
from repro.core.report import render_table
from repro.core.taxonomy import CATEGORY_ORDER, OpCategory
from repro.hwsim import RTX_2080TI, project_trace
from repro.workloads import PAPER_ORDER

from conftest import cached_trace, emit


def reproduce_fig3a():
    table = {}
    for name in PAPER_ORDER:
        trace = cached_trace(name, seed=0)
        for ob in operator_breakdown(project_trace(trace, RTX_2080TI)):
            table[(name, ob.phase)] = ob
    return table


def test_fig3a_operator_breakdown(benchmark):
    table = benchmark.pedantic(reproduce_fig3a, rounds=1, iterations=1)
    rows = []
    for (name, phase), ob in table.items():
        shares = ob.shares()
        rows.append([name.upper(), phase]
                    + [f"{shares[c] * 100:.1f}%" for c in CATEGORY_ORDER])
    emit("fig3a_operator_breakdown", render_table(
        ["workload", "phase"] + [c.display_name for c in CATEGORY_ORDER],
        rows, title="Fig. 3a — operator-category runtime shares"),
        rows=rows,
        columns=["workload", "phase"] + [c.value for c in CATEGORY_ORDER],
        meta={"device": "RTX_2080TI", "seed": 0})

    # shape checks
    for (name, phase), ob in table.items():
        if phase == PHASE_SYMBOLIC:
            # symbolic never runs convolutions
            assert ob.share(OpCategory.CONVOLUTION) < 0.01, (name, phase)
            # symbolic is carried by vector/transform/movement/logic ops
            non_gemm = (1.0 - ob.share(OpCategory.MATMUL)
                        - ob.share(OpCategory.CONVOLUTION))
            assert non_gemm > 0.5, (name, phase)
    # LTN's neural component is MatMul-led (MLP groundings)
    ltn_neural = table[("ltn", PHASE_NEURAL)]
    assert ltn_neural.dominant_category is OpCategory.MATMUL
    # perception frontends spend real time in convolution
    for name in ("nvsa", "prae", "vsait", "zeroc"):
        assert table[(name, PHASE_NEURAL)].share(
            OpCategory.CONVOLUTION) > 0.05, name

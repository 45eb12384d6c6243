"""Ablation: codebook capacity vs. cleanup reliability.

Takeaway 4 hinges on codebooks being "large enough to contain all
object combinations and ensure quasi-orthogonality".  This bench
quantifies the trade directly on the VSA substrate: for growing
codebook sizes, measure (a) the cleanup-memory recovery rate of noisy
queries, (b) the bytes the cleanup sweep must stream — the
memory-bound GEMM behind NVSA's backend.
"""

import numpy as np

from repro import tensor as T
from repro.core.report import format_bytes, render_table
from repro.vsa import BipolarSpace, CleanupMemory, Codebook

from conftest import emit

DIM = 2048
SIZES = (16, 64, 256, 1024)
NOISE_FLIPS = 0.25   # fraction of flipped components in each query
QUERIES = 32


def reproduce_codebook_ablation():
    rng = np.random.default_rng(7)
    rows = []
    recovery = {}
    for size in SIZES:
        codebook = Codebook(BipolarSpace(DIM),
                            [f"s{i}" for i in range(size)], seed=size)
        memory = CleanupMemory(codebook)
        hits = 0
        with T.profile("cleanup") as prof:
            for _ in range(QUERIES):
                target = int(rng.integers(0, size))
                noisy = codebook.matrix.numpy()[target].copy()
                flips = rng.choice(DIM, size=int(NOISE_FLIPS * DIM),
                                   replace=False)
                noisy[flips] *= -1
                names, _ = memory.cleanup(T.tensor(noisy))
                hits += int(names[0] == f"s{target}")
        recovery[size] = hits / QUERIES
        # off-diagonal similarity: quasi-orthogonality margin
        gram = codebook.cross_correlation().numpy()
        off = gram - np.diag(np.diag(gram))
        rows.append([size, format_bytes(codebook.nbytes),
                     f"{hits}/{QUERIES}",
                     f"{np.abs(off).max():.3f}",
                     format_bytes(sum(prof.trace.columns.total_bytes.tolist())
                                  // QUERIES)])
    return rows, recovery


def test_ablation_codebook(benchmark):
    rows, recovery = benchmark.pedantic(reproduce_codebook_ablation,
                                        rounds=1, iterations=1)
    emit("ablation_codebook", render_table(
        ["symbols", "codebook bytes", "noisy recovery",
         "max off-diag similarity", "sweep bytes/query"],
        rows, title=f"Ablation — cleanup memory (d={DIM}, "
                    f"{NOISE_FLIPS:.0%} bit flips)"),
        rows=rows,
        columns=["symbols", "codebook_bytes", "noisy_recovery",
                 "max_offdiag_similarity", "sweep_bytes_per_query"],
        meta={"dim": DIM, "noise_flips": NOISE_FLIPS,
              "queries": QUERIES,
              "recovery_rates": {str(k): v
                                 for k, v in recovery.items()}})
    # quasi-orthogonality keeps cleanup near-perfect at every size
    # tested (capacity of a d=2048 bipolar space far exceeds 1024
    # symbols at this noise level)
    for size, rate in recovery.items():
        assert rate >= 0.9, (size, rate)
    # but the sweep cost grows linearly with the codebook
    assert rows[-1][1] != rows[0][1]

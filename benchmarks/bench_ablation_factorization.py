"""Ablation: factorization strategy for bound scene vectors.

NVSA must decode bound attribute products.  Two strategies:

* **brute-force cleanup** — one similarity sweep against the full
  combination codebook (|shape| x |size| x |color| = 300 rows here;
  tens of thousands at RAVEN scale) — the memory-bound GEMM Takeaway 4
  highlights;
* **resonator network** — iterate against the per-attribute codebooks
  (21 rows total), the approach of the paper's H3DFact citation.

The bench measures accuracy and per-query traffic for both, and the
crossover trend as the combination space grows.
"""

import numpy as np

from repro import tensor as T
from repro.core.report import format_bytes, render_table
from repro.vsa import BipolarSpace, Codebook, ResonatorNetwork

from conftest import emit

DIM = 1024
QUERIES = 16


def _setup(cardinalities):
    space = BipolarSpace(DIM)
    codebooks = {
        f"attr{i}": Codebook(space, [f"a{i}_{v}" for v in range(card)],
                             seed=100 + i)
        for i, card in enumerate(cardinalities)
    }
    names = list(codebooks)
    combos = []
    matrix_rows = []
    import itertools
    for values in itertools.product(*(codebooks[n].symbols
                                      for n in names)):
        combos.append("|".join(values))
        vec = None
        for name, symbol in zip(names, values):
            v = codebooks[name].vector(symbol).numpy()
            vec = v if vec is None else vec * v
        matrix_rows.append(vec)
    product_cb = Codebook(space, combos, seed=999)
    product_cb.matrix.data[:] = np.stack(matrix_rows)
    return codebooks, product_cb


def reproduce_factorization_ablation():
    rows = []
    stats = {}
    for cardinalities in ((4, 5), (5, 6, 10)):
        codebooks, product_cb = _setup(cardinalities)
        names = list(codebooks)
        network = ResonatorNetwork(codebooks)
        rng = np.random.default_rng(3)

        res_hits = brute_hits = 0
        res_bytes = brute_bytes = 0
        for _ in range(QUERIES):
            picks = {n: codebooks[n].symbols[
                rng.integers(0, len(codebooks[n]))] for n in names}
            composite = None
            for n in names:
                v = codebooks[n].vector(picks[n])
                composite = v if composite is None else T.mul(composite, v)

            with T.profile("res") as prof:
                result = network.factorize(composite)
            res_bytes += sum(prof.trace.columns.total_bytes.tolist())
            res_hits += int(result.factors == picks)

            with T.profile("brute") as prof2:
                sims = product_cb.similarities(composite)
                best = int(np.argmax(sims.numpy()))
            brute_bytes += sum(prof2.trace.columns.total_bytes.tolist())
            brute_hits += int(product_cb.symbols[best]
                              == "|".join(picks[n] for n in names))

        space_size = int(np.prod(cardinalities))
        rows.append([f"{'x'.join(map(str, cardinalities))} "
                     f"({space_size} combos)",
                     f"{brute_hits}/{QUERIES}",
                     format_bytes(brute_bytes // QUERIES),
                     f"{res_hits}/{QUERIES}",
                     format_bytes(res_bytes // QUERIES)])
        stats[space_size] = (brute_bytes / QUERIES, res_bytes / QUERIES)
    return rows, stats


def test_ablation_factorization(benchmark):
    rows, stats = benchmark.pedantic(reproduce_factorization_ablation,
                                     rounds=1, iterations=1)
    emit("ablation_factorization", render_table(
        ["combination space", "brute accuracy", "brute bytes/query",
         "resonator accuracy", "resonator bytes/query"],
        rows, title="Ablation — cleanup vs resonator factorization"),
        rows=rows,
        columns=["combination_space", "brute_accuracy",
                 "brute_bytes_per_query", "resonator_accuracy",
                 "resonator_bytes_per_query"],
        meta={"dim": DIM, "queries": QUERIES,
              "bytes_per_query": {str(size): {"brute": b, "resonator": r}
                                  for size, (b, r) in stats.items()}})
    # brute-force traffic scales with the combination space; the
    # resonator's scales with the factor codebooks
    small, large = sorted(stats)
    brute_growth = stats[large][0] / stats[small][0]
    res_growth = stats[large][1] / stats[small][1]
    assert brute_growth > res_growth

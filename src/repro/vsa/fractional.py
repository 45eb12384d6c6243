"""PMF <-> VSA transforms: NVSA's probabilistic-representation bridge.

NVSA "maps the inferred probability into vector space to substitute the
exhaustive probability computations into algebraic operations" (paper
Sec. III-D).  Concretely:

* :func:`pmf_to_vsa` — embed a probability mass function over symbol
  values as the probability-weighted superposition of the value
  codebook: ``v = sum_i p_i * C_i`` (one GEMM against the codebook).
* :func:`vsa_to_pmf` — recover a PMF by a similarity sweep against the
  codebook followed by rectification and normalization.

These two stages plus the inter-stage probability computation are the
three NVSA symbolic modules whose sparsity Fig. 5 characterizes; the
PMFs involved are highly sparse (most attribute values have ~zero
mass), which is what the sparsity analysis measures.
"""

from __future__ import annotations

import numpy as np

from repro import tensor as T
from repro.tensor.tensor import Tensor
from repro.vsa.codebook import Codebook


def pmf_to_vsa(pmf: Tensor, codebook: Codebook) -> Tensor:
    """Weighted superposition: ``(batch, n_values) -> (batch, dim)``.

    ``pmf`` rows need not be normalized; mass is used as-is so sparse
    (near-one-hot) PMFs produce near-clean codebook entries.
    """
    if pmf.shape[-1] != len(codebook):
        raise ValueError(
            f"PMF support {pmf.shape[-1]} != codebook size {len(codebook)}")
    return T.matmul(pmf, codebook.matrix)


def vsa_to_pmf(vec: Tensor, codebook: Codebook, sharpen: float = 1.0) -> Tensor:
    """Similarity sweep + rectify + normalize: ``(batch, dim) -> (batch, n)``.

    ``sharpen > 1`` raises similarities to a power before normalizing,
    concentrating mass on the best match (useful after noisy algebra).
    """
    sims = codebook.similarities(vec)
    rect = T.relu(sims)
    if sharpen != 1.0:
        rect = T.pow(rect, sharpen)
    total = T.sum(rect, axis=-1, keepdims=True)
    return T.div(rect, T.maximum(total, 1e-12))


def pmf_entropy(pmf: Tensor) -> Tensor:
    """Shannon entropy per row (nats) — perceptual-uncertainty metric."""
    clipped = T.maximum(pmf, 1e-12)
    return T.neg(T.sum(T.mul(pmf, T.log(clipped)), axis=-1))


def sparsify_pmf(pmf: Tensor, threshold: float = 1e-3) -> Tensor:
    """Zero out negligible mass and renormalize.

    NVSA's probabilistic scene representations are overwhelmingly
    sparse (>95% zero mass, Fig. 5); this models the thresholding that
    produces those unstructured sparse PMFs.
    """
    mask = T.greater(pmf, threshold)
    masked = T.mul(pmf, mask.astype(np.float32))
    total = T.sum(masked, axis=-1, keepdims=True)
    return T.div(masked, T.maximum(total, 1e-12))

"""Vector-symbolic architecture substrate: hypervector spaces, codebooks,
cleanup memory, PMF<->VSA transforms, and LSH encoding."""

from repro.vsa.codebook import CleanupMemory, Codebook, product_codebook
from repro.vsa.fractional import (pmf_entropy, pmf_to_vsa, sparsify_pmf,
                                  vsa_to_pmf)
from repro.vsa.hypervector import (BinarySpace, BipolarSpace, FHRRSpace,
                                   HolographicSpace, VSASpace, make_space)
from repro.vsa.lsh import LSHEncoder
from repro.vsa.resonator import ResonatorNetwork, ResonatorResult

__all__ = [
    "CleanupMemory", "Codebook", "product_codebook",
    "pmf_entropy", "pmf_to_vsa", "sparsify_pmf", "vsa_to_pmf",
    "BinarySpace", "BipolarSpace", "FHRRSpace", "HolographicSpace",
    "VSASpace",
    "make_space",
    "LSHEncoder",
    "ResonatorNetwork", "ResonatorResult",
]

"""Neuro-Vector-Symbolic Architecture (NVSA) on RPM tasks.

Pipeline (paper Sec. III-D):

* **neural frontend** — a ConvNet transduces each panel image into
  attribute logits; softmax heads yield per-attribute PMFs, preserving
  perceptual uncertainty.
* **symbolic backend** — probabilistic reasoning executed in VSA
  algebra over *fractional power encodings* (FPE): attribute value
  ``v`` is the ``v``-th circular-convolution power of a unitary base
  hypervector, so addition of random variables (the ``arithmetic``
  rule) becomes binding, and value shifts (``progression``) become
  binding with a constant power.  Stages:

  - ``pmf_to_vsa``       — PMFs embed as probability-weighted codebook
    superpositions (one GEMM per attribute);
  - ``rule_detection``   — for every attribute and rule candidate,
    predict each row's last panel from its predecessors with VSA
    algebra and score against the perceived vector (the sequential,
    small-kernel loop the paper identifies as NVSA's bottleneck);
  - ``rule_execution``   — apply the winning rule to the incomplete row;
  - ``vsa_to_pmf``       — decode the predicted vector through a
    codebook similarity sweep;
  - ``answer_selection`` — score the 8 candidate panels against the
    decoded PMFs.

Functional note: the ConvNet runs with deterministic untrained weights
(runtime statistics are weight-invariant); to keep the end-to-end task
*functionally* correct, perception PMFs blend the ConvNet's softmax
with an exact template decoder over the rendered panels (mask-matching
the 30 shape x size templates; intensity gives color).  DESIGN.md
documents this substitution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets import rpm
from repro.nn import Sequential, small_convnet
from repro.tensor.tensor import Tensor
from repro.vsa.codebook import Codebook
from repro.vsa.fractional import pmf_to_vsa, sparsify_pmf, vsa_to_pmf
from repro.vsa.hypervector import HolographicSpace
from repro.workloads.base import Workload, WorkloadInfo, register
from repro.workloads.perception import (decode_panel_templates,
                                        perceive_panels)

#: rule candidates the backend searches over (paper: rule detection
#: sweeps the rule space per attribute)
RULE_CANDIDATES: Tuple[Tuple[str, int], ...] = (
    ("constant", 0),
    ("progression", 1), ("progression", -1),
    ("progression", 2), ("progression", -2),
    ("arithmetic", 1), ("arithmetic", -1),
    ("distribute_three", 0),
)


def fpe_codebook(space: HolographicSpace, num_values: int,
                 seed: int) -> Codebook:
    """Fractional-power-encoding codebook: row v is ``base^(*v)``.

    The base is *unitary* (unit-magnitude spectrum) and *cyclic of
    order num_values* (phases are multiples of 2*pi/num_values), so
    powers are exact, norms stay 1, binding adds exponents, and
    exponent arithmetic wraps modulo the attribute domain — matching
    the modular progression/arithmetic rules of the RPM generator.
    """
    d = space.dim
    rng = np.random.default_rng(seed)
    half = d // 2 + 1
    phases = (2.0 * np.pi / num_values) * rng.integers(0, num_values, half)
    phases[0] = 0.0
    if d % 2 == 0:
        phases[-1] = 0.0
    # all num_values spectra at once: row v is exp(1j * v * phases)
    spectra = T.exp(T.mul(1j, T.outer(np.arange(num_values), phases)))
    rows = T.irfft(spectra, n=d)
    matrix = T.astype(T.div(T.mul(rows, d), np.sqrt(d)), np.float32)
    # normalize rows to unit L2 norm so similarities are cosines
    matrix = T.div(matrix, T.norm(matrix, axis=1, keepdims=True))
    return Codebook(space, [f"v{v}" for v in range(num_values)],
                    matrix=T.mul(matrix, np.sqrt(d)).numpy())  # dot/d == cosine


@register("nvsa")
class NVSAWorkload(Workload):
    """NVSA on an n x n RPM problem."""

    info = WorkloadInfo(
        name="nvsa",
        full_name="Neuro-Vector-Symbolic Architecture",
        paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="Supervised/Unsupervised",
        application="Fluid intelligence, Abstract reasoning",
        advantage=("Higher joint representation efficiency, abstract "
                   "reasoning capability, transparency"),
        datasets=("RAVEN", "I-RAVEN", "PGM"),
        datatype="FP32",
        neural_workload="ConvNet",
        symbolic_workload="Multiply, add, circular convolution (VSA)",
    )

    def __init__(self, matrix_size: int = 3, dim: int = 1024,
                 resolution: int = 32, seed: int = 0,
                 perception_blend: float = 0.9,
                 orientation_mode: str = "row"):
        super().__init__(matrix_size=matrix_size, dim=dim,
                         resolution=resolution, seed=seed,
                         perception_blend=perception_blend,
                         orientation_mode=orientation_mode)
        self.matrix_size = matrix_size
        self.dim = dim
        self.resolution = resolution
        self.seed = seed
        self.perception_blend = perception_blend
        self.orientation_mode = orientation_mode

    # -- construction ---------------------------------------------------------
    def _build(self) -> None:
        domains = rpm.ATTRIBUTES
        self.space = HolographicSpace(self.dim)
        self.frontend: Sequential = small_convnet(
            1, sum(domains.values()), seed=self.seed)
        self.codebooks: Dict[str, Codebook] = {
            attr: fpe_codebook(self.space, domain, seed=self.seed + 13 * i)
            for i, (attr, domain) in enumerate(domains.items())
        }
        self.combination_codebook = self._build_combination_codebook()
        self.templates = decode_panel_templates(self.resolution)
        self.problem = rpm.generate_problem(
            self.matrix_size, seed=self.seed,
            orientation_mode=self.orientation_mode)

    def _build_combination_codebook(self) -> Codebook:
        """One bound hypervector per attribute-value combination.

        This is why NVSA's codebook dominates its memory footprint
        (Takeaway 4): the frontend "enables the expression of more
        object combinations than vector space dimensions, requiring
        the codebook to be large enough to contain all object
        combinations".  Row order is C-contiguous over
        (shape, size, color).
        """
        attrs = list(rpm.ATTRIBUTES)
        domains = [rpm.ATTRIBUTES[a] for a in attrs]
        combos = [f"{s}|{z}|{c}"
                  for s in range(domains[0])
                  for z in range(domains[1])
                  for c in range(domains[2])]
        mats = [self.codebooks[a].matrix.numpy() for a in attrs]
        # bind all (shape, size, color) triples in one broadcast sweep:
        # multiply the three attribute spectra pairwise, C-contiguous
        # over (s, z, c), then transform back in a single batched irfft
        half = self.dim // 2 + 1
        fs = T.reshape(T.rfft(mats[0]), (domains[0], 1, 1, half))
        fz = T.reshape(T.rfft(mats[1]), (1, domains[1], 1, half))
        fc = T.reshape(T.rfft(mats[2]), (1, 1, domains[2], half))
        spectra = T.reshape(T.mul(T.mul(fs, fz), fc),
                            (len(combos), half))
        bound = T.astype(T.irfft(spectra, n=self.dim), np.float32)
        # renormalize so dot/d behaves like a cosine against bound
        # query vectors
        norms = T.norm(bound, axis=1, keepdims=True)
        return Codebook(self.space, combos,
                        matrix=T.mul(T.div(bound, norms),
                                     np.sqrt(self.dim)).numpy())

    def parameter_bytes(self) -> int:
        return self.frontend.parameter_bytes

    def codebook_bytes(self) -> int:
        per_attr = sum(cb.nbytes for cb in self.codebooks.values())
        return per_attr + self.combination_codebook.nbytes

    # -- helpers ---------------------------------------------------------------
    def _line_indices(self, orientation: str, line: int,
                      count: int) -> List[int]:
        """Flat panel indices of one row or column line."""
        n = self.matrix_size
        if orientation == "row":
            return [line * n + c for c in range(count)]
        return [r * n + line for r in range(count)]

    def _line_vectors(self, vecs: Tensor, orientation: str, line: int,
                      count: int) -> List[Tensor]:
        """Panel vectors of one context line (row-major layout)."""
        return [T.index(vecs, idx)
                for idx in self._line_indices(orientation, line, count)]

    def _predict_last(self, rule: Tuple[str, int], known: List[Tensor],
                      codebook: Codebook, set_vector: Optional[Tensor]) -> Tensor:
        """VSA-algebra prediction of a row's final panel vector."""
        name, parameter = rule
        if name == "constant":
            return known[-1]
        if name == "progression":
            step = codebook.vector(f"v{parameter % len(codebook)}")
            return T.circular_conv(known[-1], step)
        if name == "arithmetic":
            if len(known) < 2:
                return known[-1]
            if parameter >= 0:
                return T.circular_conv(known[0], known[1])
            return T.circular_corr(known[1], known[0])
        if name == "distribute_three":
            if set_vector is None:
                return known[-1]
            total = set_vector
            for vec in known:
                total = T.sub(total, vec)
            return total
        raise ValueError(f"unknown rule {name!r}")

    # -- inference --------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        problem = self.problem
        n = problem.matrix_size
        context_imgs = rpm.render_problem(problem, self.resolution)
        candidate_imgs = rpm.render_candidates(problem, self.resolution)
        images = np.concatenate([context_imgs, candidate_imgs], axis=0)
        num_context = context_imgs.shape[0]

        with T.phase("neural"):
            pmfs = perceive_panels(self.frontend, images, self.templates,
                                   self.perception_blend)

        detected: Dict[str, Tuple[str, int]] = {}
        detected_orientation: Dict[str, str] = {}
        predicted_pmfs: Dict[str, Tensor] = {}
        predicted_vecs: Dict[str, Tensor] = {}
        with T.phase("symbolic"):
            for attr, domain in rpm.ATTRIBUTES.items():
                codebook = self.codebooks[attr]
                pmf_all = pmfs[attr]
                with T.stage("pmf_to_vsa"):
                    context_pmf = T.index(pmf_all,
                                          (slice(0, num_context),))
                    context_pmf = sparsify_pmf(context_pmf,
                                               threshold=0.02)
                    vecs = pmf_to_vsa(context_pmf, codebook)

                orientations = ("row",) if \
                    self.orientation_mode == "row" else ("row", "col")
                with T.stage("rule_detection"):
                    best_score = -np.inf
                    best_rule = RULE_CANDIDATES[0]
                    best_orientation = "row"
                    set_vectors: Dict[str, Tensor] = {}
                    for orientation in orientations:
                        # the shared value-set vector for
                        # distribute_three, per orientation
                        first_line = self._line_vectors(
                            vecs, orientation, 0, n)
                        set_vector = first_line[0]
                        for vec in first_line[1:]:
                            set_vector = T.add(set_vector, vec)
                        set_vectors[orientation] = set_vector
                        for rule in RULE_CANDIDATES:
                            if rule[0] == "arithmetic" and n < 3:
                                continue
                            sims: List[Tensor] = []
                            for line in range(n - 1):
                                line_vecs = self._line_vectors(
                                    vecs, orientation, line, n)
                                predicted = self._predict_last(
                                    rule, line_vecs[:-1], codebook,
                                    set_vector)
                                sims.append(self.space.similarity(
                                    predicted, line_vecs[-1]))
                            score = sims[0]
                            for sim in sims[1:]:
                                score = T.add(score, sim)
                            value = float(score.numpy()) / len(sims)
                            if value > best_score:
                                best_score = value
                                best_rule = rule
                                best_orientation = orientation
                    detected[attr] = best_rule
                    detected_orientation[attr] = best_orientation

                with T.stage("rule_execution"):
                    last_known = [
                        T.index(vecs, idx)
                        for idx in self._line_indices(
                            best_orientation, n - 1, n - 1)
                    ]
                    predicted_vec = self._predict_last(
                        detected[attr], last_known, codebook,
                        set_vectors[best_orientation])
                    predicted_vecs[attr] = predicted_vec

                with T.stage("vsa_to_pmf"):
                    decoded = vsa_to_pmf(
                        T.reshape(predicted_vec, (1, self.dim)), codebook)
                    predicted_pmfs[attr] = sparsify_pmf(decoded, 0.05)

            with T.stage("answer_selection"):
                # bind the per-attribute predictions into a joint scene
                # vector and clean it up against the full combination
                # codebook — the large similarity sweep characteristic
                # of NVSA's backend
                attrs = list(rpm.ATTRIBUTES)
                joint = predicted_vecs[attrs[0]]
                for attr in attrs[1:]:
                    joint = T.circular_conv(joint, predicted_vecs[attr])
                joint_pmf = sparsify_pmf(
                    vsa_to_pmf(T.reshape(joint, (1, self.dim)),
                               self.combination_codebook),
                    threshold=0.01)

                domains = [rpm.ATTRIBUTES[a] for a in attrs]
                candidate_scores: List[float] = []
                for idx, candidate in enumerate(problem.candidates):
                    combo_index = (
                        candidate.shape * domains[1] * domains[2]
                        + candidate.size * domains[2] + candidate.color)
                    joint_mass = T.index(joint_pmf, (0, combo_index))
                    score = T.add(joint_mass, 1e-6)
                    for attr in attrs:
                        value = candidate.attribute(attr)
                        mass = T.index(predicted_pmfs[attr], (0, value))
                        score = T.mul(score, T.add(mass, 1e-6))
                    candidate_scores.append(float(score.numpy()))
                predicted_index = int(np.argmax(candidate_scores))

        rule_hits = sum(
            1 for attr, rule in detected.items()
            if rule[0] == problem.rules[attr].name)
        orientation_hits = sum(
            1 for attr, orientation in detected_orientation.items()
            if orientation == problem.rules[attr].orientation
            or problem.rules[attr].name == "constant")
        return {
            "predicted_index": predicted_index,
            "answer_index": problem.answer_index,
            "correct": predicted_index == problem.answer_index,
            "detected_rules": {a: f"{r[0]}({r[1]})"
                               for a, r in detected.items()},
            "detected_orientations": dict(detected_orientation),
            "true_rules": {a: str(r) for a, r in problem.rules.items()},
            "rule_name_hits": rule_hits,
            "orientation_hits": orientation_hits,
        }

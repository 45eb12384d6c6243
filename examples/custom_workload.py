"""Authoring a new neuro-symbolic workload for the suite.

Implements a small Neuro|Symbolic digit-sum checker in the style of
DeepProbLog's MNIST-addition benchmark: a ConvNet classifies two digit
images (neural), then a Horn-rule knowledge base verifies the claimed
sum (symbolic).  Registering it makes every analysis in the suite —
latency split, operator taxonomy, roofline, operation graph — work on
it unchanged.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro import tensor as T
from repro.core.suite import characterize
from repro.core.taxonomy import NSParadigm
from repro.logic import HornRule, KnowledgeBase, Predicate, Variable
from repro.nn import small_convnet
from repro.tensor.dispatch import record_region
from repro.workloads.base import Workload, WorkloadInfo, register


def render_digit(value: int, rng: np.random.Generator) -> np.ndarray:
    """A crude 16x16 'digit': value encoded as bar count + noise."""
    img = np.zeros((1, 16, 16), dtype=np.float32)
    for bar in range(value + 1):
        col = 1 + bar
        img[0, 2:14, col] = 1.0
    img += rng.normal(0, 0.05, img.shape).astype(np.float32)
    return img


@register("digit_sum")
class DigitSumWorkload(Workload):
    """Neural digit perception + symbolic sum verification."""

    info = WorkloadInfo(
        name="digit_sum",
        full_name="Digit-Sum Checker (DeepProbLog-style)",
        paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="Supervised",
        application="Program-verified perception",
        advantage="Symbolic verification of neural claims",
        datasets=("synthetic digits",),
        datatype="FP32",
        neural_workload="ConvNet",
        symbolic_workload="Horn-rule arithmetic",
    )

    def __init__(self, num_pairs: int = 8, seed: int = 0):
        super().__init__(num_pairs=num_pairs, seed=seed)
        self.num_pairs = num_pairs
        self.seed = seed

    def _build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.digits = rng.integers(0, 10, size=(self.num_pairs, 2))
        self.images = np.stack([
            np.stack([render_digit(int(a), rng), render_digit(int(b), rng)])
            for a, b in self.digits
        ])  # (pairs, 2, 1, 16, 16)
        self.classifier = small_convnet(1, 10, seed=self.seed,
                                        widths=(16, 32))
        # symbolic knowledge: the full addition table as Horn facts
        self.kb = KnowledgeBase()
        for a in range(10):
            for b in range(10):
                self.kb.add_fact("sum", str(a), str(b), str(a + b))

    def parameter_bytes(self) -> int:
        return self.classifier.parameter_bytes

    def codebook_bytes(self) -> int:
        return self.kb.num_facts * 24

    def run(self):
        with T.phase("neural"), T.stage("classification"):
            flat = self.images.reshape(-1, 1, 16, 16)
            logits = self.classifier(T.to_device(T.tensor(flat), "gpu"))
            probs = T.softmax(logits, axis=-1)
            predicted = np.argmax(probs.numpy(), axis=-1).reshape(
                self.num_pairs, 2)

        verified = 0
        with T.phase("symbolic"), T.stage("verification"):
            for (pa, pb), (ta, tb) in zip(predicted, self.digits):
                claimed = int(ta) + int(tb)  # the label to verify
                with record_region("sum_rule_check",
                                   flops=100.0, bytes_read=2400):
                    holds = self.kb.has_fact("sum", str(int(pa)),
                                             str(int(pb)), str(claimed))
                verified += int(holds)

        return {"pairs": self.num_pairs, "verified": verified,
                "verification_rate": verified / self.num_pairs}


def main() -> None:
    report = characterize(DigitSumWorkload(seed=0))
    print(report.render())
    print()
    print("task result:", report.result)
    print()
    print("The same registry drives the whole suite:")
    from repro.workloads import available
    print("registered workloads:", available())


if __name__ == "__main__":
    main()

"""Neuro-Symbolic VQA (NSVQA) — Table I's non-vector Neuro|Symbolic row.

NSVQA "disentangles reasoning from vision": a neural scene parser
produces a *structured object list*, and a purely symbolic program
executor answers questions over it with pre-defined discrete operators
(Table II: ``equal_color``, ``equal_integer``).  Unlike NVSA/PrAE, the
symbolic side is **non-vector**: Python-object manipulation and
table lookups rather than tensor algebra — the "Non-Vector" cell of
Table I, whose runtime lands in the "Others" operator category.

* **neural phase** — per-region ConvNet detection over the scene grid
  (attribute PMFs per cell + an occupancy check), calibrated as in the
  other perception workloads;
* **symbolic phase** — scene-structure assembly (PMF argmax to
  discrete entries) and functional-program execution (filter / count /
  exists / equal_integer chains) as recorded control-flow regions.

Functional: answers match the ground truth computed on the true scene.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets import rpm, scenes
from repro.nn import Sequential, small_convnet
from repro.tensor.dispatch import record_region
from repro.workloads.base import Workload, WorkloadInfo, register
from repro.workloads.perception import decode_panel_templates, perceive_panels


@register("nsvqa")
class NSVQAWorkload(Workload):
    """NSVQA: scene parsing + symbolic program execution."""

    info = WorkloadInfo(
        name="nsvqa",
        full_name="Neural-Symbolic Visual Question Answering",
        paradigm=NSParadigm.NEURO_PIPE_SYMBOLIC,
        learning_approach="Supervised",
        application="Visual question answering",
        advantage="Disentangles reasoning from vision and language",
        datasets=("CLEVR-like grid scenes",),
        datatype="FP32",
        neural_workload="ConvNet scene parser",
        symbolic_workload="Pre-defined program operators (non-vector)",
    )

    def __init__(self, grid: int = 3, num_objects: int = 5,
                 num_questions: int = 6, resolution: int = 32,
                 perception_blend: float = 0.9, seed: int = 0):
        super().__init__(grid=grid, num_objects=num_objects,
                         num_questions=num_questions,
                         resolution=resolution,
                         perception_blend=perception_blend, seed=seed)
        self.grid = grid
        self.num_objects = num_objects
        self.num_questions = num_questions
        self.resolution = resolution
        self.perception_blend = perception_blend
        self.seed = seed

    def _build(self) -> None:
        self.scene = scenes.generate_scene(self.grid, self.num_objects,
                                           seed=self.seed)
        self.questions = scenes.generate_questions(
            self.scene, self.num_questions, seed=self.seed + 1)
        self.parser: Sequential = small_convnet(
            1, sum(rpm.ATTRIBUTES.values()), seed=self.seed + 3)
        self.templates = decode_panel_templates(self.resolution)

    def parameter_bytes(self) -> int:
        return self.parser.parameter_bytes

    def codebook_bytes(self) -> int:
        # the pre-defined operator table + program library
        return 64 * 6 + sum(len(q.program) * 48 for q in self.questions)

    def run(self) -> Dict[str, Any]:
        cell_images = scenes.render_scene_cells(self.scene,
                                                self.resolution)
        occupied = cell_images.reshape(cell_images.shape[0], -1).max(
            axis=1) > 0.05

        with T.phase("neural"):
            pmfs = perceive_panels(self.parser, cell_images,
                                   self.templates,
                                   self.perception_blend)

        with T.phase("symbolic"):
            with T.stage("scene_assembly"):
                # argmax-decode each occupied cell into a discrete entry
                parsed: List[rpm.Panel] = []
                decoded: Dict[str, np.ndarray] = {}
                for attr in rpm.ATTRIBUTES:
                    decoded[attr] = T.argmax(pmfs[attr], axis=-1).numpy()
                for cell in range(cell_images.shape[0]):
                    if not occupied[cell]:
                        continue
                    parsed.append(rpm.Panel(
                        int(decoded["shape"][cell]),
                        int(decoded["size"][cell]),
                        int(decoded["color"][cell])))

            answers: List[scenes.Answer] = []
            with T.stage("program_execution"):
                for question in self.questions:
                    steps = sum(1 for _ in question.program)
                    with record_region(
                            "program_exec",
                            flops=float(steps * len(parsed) * 4),
                            bytes_read=steps * len(parsed) * 24):
                        answers.append(scenes.run_program(
                            question.program, parsed))

        correct = sum(1 for q, a in zip(self.questions, answers)
                      if a == q.answer)
        return {
            "accuracy": correct / len(self.questions),
            "num_questions": len(self.questions),
            "parsed_objects": len(parsed),
            "true_objects": self.scene.num_objects,
            "example_question": self.questions[0].text,
            "example_answer": answers[0],
        }

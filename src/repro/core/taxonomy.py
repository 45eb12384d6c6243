"""Operator and paradigm taxonomies from the paper.

Two classification schemes drive the whole characterization suite:

* :class:`OpCategory` — the six compute-operator categories of
  Sec. IV-B (convolution, matrix multiplication, vector/element-wise
  tensor operation, data transformation, data movement, others).
  Every trace event emitted by :mod:`repro.tensor` carries one of
  these categories; Fig. 3a partitions runtime across them.

* :class:`NSParadigm` — Henry Kautz's five neuro-symbolic paradigms as
  used in Sec. II / Table I.  The registries at the bottom of this
  module reproduce Tables I and II as queryable data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class OpCategory(enum.Enum):
    """The six operator categories of the paper's Sec. IV-B taxonomy."""

    CONVOLUTION = "convolution"
    MATMUL = "matmul"
    ELEMENTWISE = "elementwise"
    TRANSFORM = "transform"
    MOVEMENT = "movement"
    OTHER = "other"

    @property
    def display_name(self) -> str:
        return _CATEGORY_DISPLAY[self]


_CATEGORY_DISPLAY: Dict[OpCategory, str] = {
    OpCategory.CONVOLUTION: "Convolution",
    OpCategory.MATMUL: "Matrix Multiplication",
    OpCategory.ELEMENTWISE: "Vector/Element-wise Tensor Op",
    OpCategory.TRANSFORM: "Data Transformation",
    OpCategory.MOVEMENT: "Data Movement",
    OpCategory.OTHER: "Others",
}

#: Stable presentation order used by reports and figures.
CATEGORY_ORDER: Tuple[OpCategory, ...] = (
    OpCategory.CONVOLUTION,
    OpCategory.MATMUL,
    OpCategory.ELEMENTWISE,
    OpCategory.TRANSFORM,
    OpCategory.MOVEMENT,
    OpCategory.OTHER,
)


#: Canonical op-name -> category registry: the single source of truth
#: for how every instrumented kernel maps onto the six-way taxonomy.
#: Parameterized op names are registered by their canonical stem — the
#: text before the ``[...]`` variant suffix (``fuzzy_and[lukasiewicz]``
#: -> ``fuzzy_and``) — and dynamic families by a ``*`` suffix wildcard
#: (``to_*`` covers ``to_gpu``/``to_tx2``/...).  ``run_op`` takes every
#: op's category from here (call sites pass none), and the RL002 lint
#: check keeps the recorded op names and the entries in step.
OP_CATEGORIES: Dict[str, OpCategory] = {
    # -- convolution ---------------------------------------------------------
    "conv2d": OpCategory.CONVOLUTION,
    # -- matmul family -------------------------------------------------------
    "matmul": OpCategory.MATMUL,
    "outer": OpCategory.MATMUL,
    "einsum": OpCategory.MATMUL,
    "linear": OpCategory.MATMUL,
    "spmm": OpCategory.MATMUL,
    "sddmm": OpCategory.MATMUL,
    # -- vector / element-wise ----------------------------------------------
    "add": OpCategory.ELEMENTWISE,
    "sub": OpCategory.ELEMENTWISE,
    "mul": OpCategory.ELEMENTWISE,
    "div": OpCategory.ELEMENTWISE,
    "pow": OpCategory.ELEMENTWISE,
    "maximum": OpCategory.ELEMENTWISE,
    "minimum": OpCategory.ELEMENTWISE,
    "neg": OpCategory.ELEMENTWISE,
    "exp": OpCategory.ELEMENTWISE,
    "log": OpCategory.ELEMENTWISE,
    "sqrt": OpCategory.ELEMENTWISE,
    "tanh": OpCategory.ELEMENTWISE,
    "abs": OpCategory.ELEMENTWISE,
    "sign": OpCategory.ELEMENTWISE,
    "clip": OpCategory.ELEMENTWISE,
    "reciprocal": OpCategory.ELEMENTWISE,
    "relu": OpCategory.ELEMENTWISE,
    "sigmoid": OpCategory.ELEMENTWISE,
    "softmax": OpCategory.ELEMENTWISE,
    "log_softmax": OpCategory.ELEMENTWISE,
    "greater": OpCategory.ELEMENTWISE,
    "less": OpCategory.ELEMENTWISE,
    "equal": OpCategory.ELEMENTWISE,
    "logical_and": OpCategory.ELEMENTWISE,
    "logical_or": OpCategory.ELEMENTWISE,
    "logical_not": OpCategory.ELEMENTWISE,
    "where": OpCategory.ELEMENTWISE,
    "sum": OpCategory.ELEMENTWISE,
    "mean": OpCategory.ELEMENTWISE,
    "max": OpCategory.ELEMENTWISE,
    "min": OpCategory.ELEMENTWISE,
    "prod": OpCategory.ELEMENTWISE,
    "norm": OpCategory.ELEMENTWISE,
    "cumsum": OpCategory.ELEMENTWISE,
    # spectral kernels: the paper files the FFT-backed binding algebra
    # under vector/element-wise tensor ops, so the standalone FFTs that
    # compose it carry the same category
    "rfft": OpCategory.ELEMENTWISE,
    "irfft": OpCategory.ELEMENTWISE,
    "circular_conv": OpCategory.ELEMENTWISE,
    "circular_corr": OpCategory.ELEMENTWISE,
    "complex_conj": OpCategory.ELEMENTWISE,
    "phasor_project": OpCategory.ELEMENTWISE,
    "phasor_similarity": OpCategory.ELEMENTWISE,
    "batchnorm2d": OpCategory.ELEMENTWISE,
    "maxpool2d": OpCategory.ELEMENTWISE,
    "avgpool2d": OpCategory.ELEMENTWISE,
    "global_avgpool": OpCategory.ELEMENTWISE,
    "csr_row_softmax": OpCategory.ELEMENTWISE,
    # -- data transformation -------------------------------------------------
    "argmax": OpCategory.TRANSFORM,
    "reshape": OpCategory.TRANSFORM,
    "transpose": OpCategory.TRANSFORM,
    "concat": OpCategory.TRANSFORM,
    "stack": OpCategory.TRANSFORM,
    "split": OpCategory.TRANSFORM,
    "pad": OpCategory.TRANSFORM,
    "take": OpCategory.TRANSFORM,
    "index": OpCategory.TRANSFORM,
    "masked_select": OpCategory.TRANSFORM,
    "broadcast_to": OpCategory.TRANSFORM,
    "roll": OpCategory.TRANSFORM,
    "flip": OpCategory.TRANSFORM,
    "sort": OpCategory.TRANSFORM,
    "argsort": OpCategory.TRANSFORM,
    "coalesce": OpCategory.TRANSFORM,
    "one_hot": OpCategory.TRANSFORM,
    "scatter_max": OpCategory.TRANSFORM,
    "scatter_min": OpCategory.TRANSFORM,
    "csr_to_dense": OpCategory.TRANSFORM,
    # -- data movement -------------------------------------------------------
    "copy": OpCategory.MOVEMENT,
    "astype": OpCategory.MOVEMENT,
    "to_host": OpCategory.MOVEMENT,
    "to_*": OpCategory.MOVEMENT,
    "assign": OpCategory.MOVEMENT,
    # -- others (fuzzy logic / symbolic) ------------------------------------
    "fuzzy_and": OpCategory.OTHER,
    "fuzzy_or": OpCategory.OTHER,
    "fuzzy_not": OpCategory.OTHER,
    "fuzzy_implies": OpCategory.OTHER,
    "csr_mask": OpCategory.OTHER,
}


def canonical_op_name(name: str) -> str:
    """Strip the ``[...]`` variant suffix from a recorded op name.

    ``fuzzy_and[lukasiewicz]`` -> ``fuzzy_and``; plain names pass
    through unchanged.
    """
    return name.split("[", 1)[0]


def category_for(name: str) -> OpCategory:
    """Resolve a (possibly parameterized) op name to its category.

    Lookup order: exact canonical name, then ``*`` suffix wildcards
    (longest prefix wins).  Raises ``KeyError`` for unregistered names
    so that uncategorized kernels fail loudly rather than skewing the
    Fig. 3a category split.
    """
    stem = canonical_op_name(name)
    try:
        return OP_CATEGORIES[stem]
    except KeyError:
        pass
    best: Tuple[int, OpCategory] = (-1, OpCategory.OTHER)
    for key, category in OP_CATEGORIES.items():
        if key.endswith("*") and stem.startswith(key[:-1]):
            if len(key) > best[0]:
                best = (len(key), category)
    if best[0] >= 0:
        return best[1]
    raise KeyError(
        f"op name {name!r} has no entry in repro.core.taxonomy."
        f"OP_CATEGORIES; register it so traces stay classifiable")


class NSParadigm(enum.Enum):
    """Kautz's five neuro-symbolic integration paradigms (Table I)."""

    SYMBOLIC_NEURO = "Symbolic[Neuro]"
    NEURO_PIPE_SYMBOLIC = "Neuro|Symbolic"
    NEURO_SYMBOLIC_TO_NEURO = "Neuro:Symbolic->Neuro"
    NEURO_SUB_SYMBOLIC = "Neuro_Symbolic"
    NEURO_BRACKET_SYMBOLIC = "Neuro[Symbolic]"

    @property
    def description(self) -> str:
        return _PARADIGM_DESCRIPTIONS[self]


_PARADIGM_DESCRIPTIONS: Dict[NSParadigm, str] = {
    NSParadigm.SYMBOLIC_NEURO: (
        "End-to-end symbolic system that uses neural models internally "
        "as a subroutine"
    ),
    NSParadigm.NEURO_PIPE_SYMBOLIC: (
        "Pipelined system that integrates neural and symbolic components "
        "where each component specializes in complementary tasks within "
        "the whole system"
    ),
    NSParadigm.NEURO_SYMBOLIC_TO_NEURO: (
        "End-to-end neural system that compiles symbolic knowledge "
        "externally into the neural structure"
    ),
    NSParadigm.NEURO_SUB_SYMBOLIC: (
        "Pipelined system that maps symbolic first-order logic onto "
        "embeddings serving as soft constraints or regularizers for the "
        "neural model"
    ),
    NSParadigm.NEURO_BRACKET_SYMBOLIC: (
        "End-to-end neural system that uses symbolic models internally "
        "as a subroutine"
    ),
}


@dataclass(frozen=True)
class AlgorithmEntry:
    """One row of Table I: a published neuro-symbolic algorithm."""

    name: str
    paradigm: NSParadigm
    underlying_operations: Tuple[str, ...]
    vector_format: bool
    reference: str = ""

    @property
    def vector_label(self) -> str:
        return "Vector" if self.vector_format else "Non-Vector"


#: Table I reproduced as data.  ``vector_format`` is the "If Vector"
#: column; ``underlying_operations`` is the "Underlying Operation" column.
ALGORITHM_REGISTRY: Tuple[AlgorithmEntry, ...] = (
    AlgorithmEntry("AlphaGo", NSParadigm.SYMBOLIC_NEURO,
                   ("NN", "MCTS"), True, "Silver et al. 2017"),
    AlgorithmEntry("NVSA", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "mul", "add", "circular conv."), True,
                   "Hersche et al. 2023"),
    AlgorithmEntry("NeuPSL", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "fuzzy logic"), True, "Pryor et al. 2022"),
    AlgorithmEntry("NSCL", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "add", "mul", "div", "log"), True,
                   "Mao et al. 2019"),
    AlgorithmEntry("NeurASP", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "logic rules"), False, "Yang et al. 2020"),
    AlgorithmEntry("ABL", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "logic rules"), False, "Dai et al. 2019"),
    AlgorithmEntry("NSVQA", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "pre-defined objects"), False, "Yi et al. 2018"),
    AlgorithmEntry("VSAIT", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "binding/unbinding"), True, "Theiss et al. 2022"),
    AlgorithmEntry("PrAE", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "logic rules", "prob. abduction"), True,
                   "Zhang et al. 2021"),
    AlgorithmEntry("LNN", NSParadigm.NEURO_PIPE_SYMBOLIC,
                   ("NN", "fuzzy logic"), True, "Riegel et al. 2020"),
    AlgorithmEntry("Symbolic Math", NSParadigm.NEURO_SYMBOLIC_TO_NEURO,
                   ("NN",), True, "Lample & Charton 2019"),
    AlgorithmEntry("Differentiable ILP", NSParadigm.NEURO_SYMBOLIC_TO_NEURO,
                   ("NN", "fuzzy logic"), True, "Evans & Grefenstette 2018"),
    AlgorithmEntry("LTN", NSParadigm.NEURO_SUB_SYMBOLIC,
                   ("NN", "fuzzy logic"), True, "Badreddine et al. 2022"),
    AlgorithmEntry("DON", NSParadigm.NEURO_SUB_SYMBOLIC,
                   ("NN",), True, "Hohenecker & Lukas 2020"),
    AlgorithmEntry("GNN+attention", NSParadigm.NEURO_SUB_SYMBOLIC,
                   ("NN", "SpMM", "SDDMM"), True, "Lamb et al. 2020"),
    AlgorithmEntry("ZeroC", NSParadigm.NEURO_BRACKET_SYMBOLIC,
                   ("NN (energy-based model, graph)",), True,
                   "Wu et al. 2022"),
    AlgorithmEntry("NLM", NSParadigm.NEURO_BRACKET_SYMBOLIC,
                   ("NN", "permutation"), True, "Dong et al. 2019"),
)


@dataclass(frozen=True)
class OperationExample:
    """One row of Table II: an underlying operation with an example."""

    operation: str
    workload: str
    example: str


#: Table II reproduced as data.
OPERATION_EXAMPLES: Tuple[OperationExample, ...] = (
    OperationExample(
        "Fuzzy logic", "LTN",
        "F = forall x (isCarnivore(x)) -> (isMammal(x)); truth degrees "
        "in [0, 1] combined with t-norms"),
    OperationExample(
        "Mul, Add, and Circular Conv.", "NVSA",
        "X_i in {+1,-1}^d -> binding X_i * X_j, bundling X_i + X_j, "
        "circular convolution for holographic composition"),
    OperationExample(
        "Logic rules", "ABL",
        "Domain: animal(dog). carnivore(dog). mammal(dog). "
        "Formula: mammal(x) AND carnivore(x). "
        "ABL: hypos(x) :- animal(x), mammal(x), carnivore(x)"),
    OperationExample(
        "Pre-defined objects", "NSVQA",
        "equal_color: (entry, entry) -> Boolean; "
        "equal_integer: (number, number) -> Boolean"),
)


def lookup_algorithm(name: str) -> AlgorithmEntry:
    """Return the Table I row for ``name`` (case-insensitive).

    Raises ``KeyError`` if the algorithm is not in the registry.
    """
    wanted = name.lower()
    for entry in ALGORITHM_REGISTRY:
        if entry.name.lower() == wanted:
            return entry
    raise KeyError(f"unknown algorithm: {name!r}")


def algorithms_by_paradigm(paradigm: NSParadigm) -> List[AlgorithmEntry]:
    """Return all Table I rows belonging to ``paradigm``."""
    return [e for e in ALGORITHM_REGISTRY if e.paradigm is paradigm]

"""GNN + attention with symbolic rule masks (Table I: Neuro_Symbolic).

Table I lists "GNN+attention" — graph neural networks whose attention
mechanism selectively incorporates symbolic rules — with underlying
operations "NN, SpMM, SDDMM".  This workload extends the profiled
roster with that paradigm:

* **symbolic phase** — compile first-order rules over the knowledge
  graph into per-layer *attention masks*: Horn-style edge-type rules
  ("role evidence flows along teaches/takes/advises edges, not through
  department membership") are evaluated against the KB (logic-rule
  control flow) and applied to the attention logits with a sparse
  masking kernel;
* **neural phase** — a two-layer graph attention network over the
  university knowledge graph: per-edge attention scores via **SDDMM**,
  per-node normalization via sparse row softmax, and message passing
  via **SpMM** — the irregular, gather-heavy kernels the paper's
  architecture discussion targets.

Task: node-role classification (professor / student / course /
department) from graph structure.  Node input features are purely
structural (per-relation degrees), so the roles are genuinely
inferable; the readout is calibrated like the other workloads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets.kb_gen import university_kb
from repro.nn import Linear
from repro.tensor.dispatch import record_region
from repro.tensor.sparse import CSRMatrix, csr_mask, csr_row_softmax, sddmm, spmm
from repro.tensor.tensor import Tensor
from repro.workloads.base import Workload, WorkloadInfo, calibrate, register

#: relation types extracted from the knowledge base (binary predicates)
RELATIONS = ("teaches", "takes", "advises", "works_for", "member_of")

#: relations the symbolic rules admit for role inference
ROLE_EVIDENCE_RELATIONS = ("teaches", "takes", "advises")

ROLE_NAMES = ("professor", "student", "course", "department")


@register("gnn")
class GNNAttentionWorkload(Workload):
    """Rule-masked graph attention over a university knowledge graph."""

    info = WorkloadInfo(
        name="gnn",
        full_name="GNN + Attention with Symbolic Rule Masks",
        paradigm=NSParadigm.NEURO_SUB_SYMBOLIC,
        learning_approach="Supervised",
        application="Knowledge-graph reasoning, node classification",
        advantage="Selective attention to rule-licensed relations",
        datasets=("university knowledge graph",),
        datatype="FP32",
        neural_workload="Graph attention (SDDMM/SpMM)",
        symbolic_workload="Rule compilation into attention masks",
    )

    def __init__(self, num_departments: int = 3, hidden: int = 64,
                 num_layers: int = 2, readout_blend: float = 0.9,
                 seed: int = 0):
        super().__init__(num_departments=num_departments, hidden=hidden,
                         num_layers=num_layers,
                         readout_blend=readout_blend, seed=seed)
        self.num_departments = num_departments
        self.hidden = hidden
        self.num_layers = num_layers
        self.readout_blend = readout_blend
        self.seed = seed

    # -- construction --------------------------------------------------------
    def _build(self) -> None:
        self.kb = university_kb(num_departments=self.num_departments,
                                seed=self.seed)
        nodes = self.kb.constants()
        self.node_index = {node: i for i, node in enumerate(nodes)}
        self.num_nodes = len(nodes)

        # typed edge lists (symmetrized: evidence flows both ways)
        self.edges: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for relation in RELATIONS:
            rows, cols = [], []
            for _, (a, b) in self.kb.facts(relation):
                rows += [self.node_index[a], self.node_index[b]]
                cols += [self.node_index[b], self.node_index[a]]
            self.edges[relation] = (np.asarray(rows, dtype=np.int64),
                                    np.asarray(cols, dtype=np.int64))

        # labels from the KB's unary type facts
        self.labels = np.zeros(self.num_nodes, dtype=np.int64)
        for role_idx, predicate in enumerate(("professor", "student",
                                              "course", "department")):
            for _, (name,) in self.kb.facts(predicate):
                self.labels[self.node_index[name]] = role_idx

        # structural input features: per-relation in/out degree
        feats = np.zeros((self.num_nodes, 2 * len(RELATIONS)),
                         dtype=np.float32)
        for r_idx, relation in enumerate(RELATIONS):
            for _, (a, b) in self.kb.facts(relation):
                feats[self.node_index[a], 2 * r_idx] += 1
                feats[self.node_index[b], 2 * r_idx + 1] += 1
        self.features = feats / max(feats.max(), 1.0)

        h = self.hidden
        in_dim = self.features.shape[1]
        self.layers: List[Dict[str, Linear]] = []
        for layer in range(self.num_layers):
            dim = in_dim if layer == 0 else h
            self.layers.append({
                "query": Linear(dim, h, seed=self.seed + 10 * layer),
                "key": Linear(dim, h, seed=self.seed + 10 * layer + 1),
                "value": Linear(dim, h, seed=self.seed + 10 * layer + 2),
            })
        self.readout = Linear(h, len(ROLE_NAMES), seed=self.seed + 999)

    def parameter_bytes(self) -> int:
        total = self.readout.parameter_bytes
        for layer in self.layers:
            total += sum(m.parameter_bytes for m in layer.values())
        return total

    def codebook_bytes(self) -> int:
        # the rule set + typed edge lists are the symbolic knowledge
        return sum(r.nbytes + c.nbytes for r, c in self.edges.values())

    # -- symbolic rule compilation ------------------------------------------
    def _compile_masks(self) -> Tuple[CSRMatrix, CSRMatrix]:
        """Build the full adjacency and the rule-licensed mask over the
        same sparsity pattern."""
        all_rows = np.concatenate([self.edges[r][0] for r in RELATIONS])
        all_cols = np.concatenate([self.edges[r][1] for r in RELATIONS])
        licensed = np.concatenate([
            np.full(len(self.edges[r][0]),
                    1.0 if r in ROLE_EVIDENCE_RELATIONS else 0.0,
                    dtype=np.float32)
            for r in RELATIONS])
        # duplicate (i, j) pairs across relations coalesce by summation
        adjacency = CSRMatrix.from_edges(
            all_rows, all_cols, np.ones(len(all_rows), dtype=np.float32),
            (self.num_nodes, self.num_nodes))
        mask = CSRMatrix.from_edges(
            all_rows, all_cols, licensed,
            (self.num_nodes, self.num_nodes))
        return adjacency, mask

    # -- run --------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        with T.phase("symbolic"), T.stage("rule_compilation"):
            with record_region("edge_type_rules",
                               flops=float(self.kb.num_facts * 4),
                               bytes_read=self.kb.num_facts * 24):
                adjacency, mask = self._compile_masks()

        with T.phase("neural"), T.stage("feature_loading"):
            h: Tensor = T.to_device(T.tensor(self.features), "gpu")
        for layer_idx, layer in enumerate(self.layers):
            with T.phase("neural"), T.stage(f"attention_layer{layer_idx}"):
                queries = layer["query"](h)
                keys = layer["key"](h)
                values = layer["value"](h)
                scores = sddmm(adjacency, queries, keys)
            with T.phase("symbolic"), T.stage(f"rule_mask{layer_idx}"):
                masked = csr_mask(scores, mask)
            with T.phase("neural"), T.stage(f"propagate{layer_idx}"):
                attention = csr_row_softmax(masked)
                h = T.relu(spmm(attention, values))

        with T.phase("neural"), T.stage("readout"):
            logits = self.readout(h)
            probs = T.softmax(logits, axis=-1)
            one_hot = np.eye(len(ROLE_NAMES),
                             dtype=np.float32)[self.labels]
            calibrated = calibrate(probs, one_hot, self.readout_blend)

        predicted = np.argmax(calibrated.numpy(), axis=-1)
        accuracy = float((predicted == self.labels).mean())
        return {
            "accuracy": accuracy,
            "num_nodes": self.num_nodes,
            "num_edges": adjacency.nnz,
            "licensed_edge_fraction": float(
                (mask.matrix.data > 0).mean()),
        }

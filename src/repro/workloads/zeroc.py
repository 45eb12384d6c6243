"""Zero-shot Concept Recognition and Acquisition (ZeroC).

ZeroC (paper Sec. III-G) represents every concept as a graph plus an
energy-based model: elementary concepts (here ``hline``/``vline``) are
EBM-scored directly, and *hierarchical* concepts are recognized
zero-shot by composing constituent-concept EBMs along a concept graph
whose edges carry relation models (``parallel``/``perpendicular``).

* **neural phase** — ensemble EBM inference: every test image is
  evaluated under an ensemble of noise perturbations through the
  elementary-concept energy ConvNets (the memory-hungry "large
  ensemble" the paper flags for ZeroC in Fig. 3b), plus relation-EBM
  scoring of segment pairs;
* **symbolic phase** — segment parsing, concept-graph grounding
  (enumerate assignments of detected segments to graph nodes under
  type and relation constraints — networkx-backed control flow), and
  energy composition/argmin recognition.

Recognition is *functionally* zero-shot: hierarchical concepts are
never seen by any model — classification emerges from composing
per-node constraints over the concept graph, with EBM energies
providing the scoring surface.
"""

from __future__ import annotations

from itertools import permutations
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.datasets.concepts import (ConceptExample, Segment,
                                     concept_dataset, concept_graph,
                                     relation_of)
from repro.nn import Linear, MLP, Sequential, conv_block, GlobalAvgPool
from repro.tensor.dispatch import record_region
from repro.tensor.tensor import Tensor
from repro.workloads.base import Workload, WorkloadInfo, register


def _segments_intersect(a: Segment, b: Segment) -> bool:
    """Do two segments share or touch a cell (8-neighbourhood)?"""
    cells_a = set(a.cells())
    for r, c in b.cells():
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if (r + dr, c + dc) in cells_a:
                    return True
    return False


def extract_segments(image: np.ndarray, min_length: int = 3) -> List[Segment]:
    """Classical run-length parsing of a binary grid into segments."""
    grid = image[0] > 0.5
    h, w = grid.shape
    segments: List[Segment] = []
    for r in range(h):
        c = 0
        while c < w:
            if grid[r, c]:
                start = c
                while c < w and grid[r, c]:
                    c += 1
                if c - start >= min_length:
                    segments.append(Segment("h", r, start, c - start))
            else:
                c += 1
    for c in range(w):
        r = 0
        while r < h:
            if grid[r, c]:
                start = r
                while r < h and grid[r, c]:
                    r += 1
                if r - start >= min_length:
                    segments.append(Segment("v", start, c, r - start))
            else:
                r += 1
    return segments


def _graphs_match(a: "nx.Graph", b: "nx.Graph") -> bool:
    """Isomorphism with concept/relation attribute matching."""
    import networkx.algorithms.isomorphism as iso
    return nx.is_isomorphic(
        a, b,
        node_match=iso.categorical_node_match("concept", None),
        edge_match=iso.categorical_edge_match("relation", None))


def _pair_features(a: Segment, b: Segment, grid: int) -> np.ndarray:
    """Geometry features of a segment pair for the relation EBM."""
    return np.asarray([
        a.row / grid, a.col / grid, a.length / grid,
        b.row / grid, b.col / grid, b.length / grid,
        1.0 if a.orientation == "h" else 0.0,
        1.0 if b.orientation == "h" else 0.0,
    ], dtype=np.float32)


@register("zeroc")
class ZeroCWorkload(Workload):
    """ZeroC zero-shot recognition of hierarchical grid concepts."""

    info = WorkloadInfo(
        name="zeroc",
        full_name="Zero-shot Concept Recognition and Acquisition",
        paradigm=NSParadigm.NEURO_BRACKET_SYMBOLIC,
        learning_approach="Supervised",
        application=("Cross-domain classification and detection, "
                     "Concept acquisition"),
        advantage=("Higher generalization, concept acquisition and "
                   "recognition, compositionality capability"),
        datasets=("Abstraction reasoning", "Hierarchical-concept corpus"),
        datatype="INT64",
        neural_workload="Energy-based network",
        symbolic_workload="Concept graphs, relation composition",
    )

    def __init__(self, grid: int = 16, ensemble_size: int = 10,
                 per_concept: int = 4, seed: int = 0):
        super().__init__(grid=grid, ensemble_size=ensemble_size,
                         per_concept=per_concept, seed=seed)
        self.grid = grid
        self.ensemble_size = ensemble_size
        self.per_concept = per_concept
        self.seed = seed
        self.hierarchical = ("Lshape", "parallel_pair")

    def _build(self) -> None:
        self.examples: List[ConceptExample] = concept_dataset(
            self.hierarchical, per_concept=self.per_concept,
            grid=self.grid, seed=self.seed)
        self.energy_nets: Dict[str, Sequential] = {
            name: Sequential(
                conv_block(1, 32, seed=self.seed + i * 10),
                conv_block(32, 64, seed=self.seed + i * 10 + 1, stride=2),
                GlobalAvgPool(),
                Linear(64, 1, seed=self.seed + i * 10 + 2),
            )
            for i, name in enumerate(("hline", "vline"))
        }
        self.relation_net = MLP([8, 32, 1], seed=self.seed + 77)
        self.graphs = {name: concept_graph(name)
                       for name in self.hierarchical}

    def parameter_bytes(self) -> int:
        total = self.relation_net.parameter_bytes
        for net in self.energy_nets.values():
            total += net.parameter_bytes
        return total

    def codebook_bytes(self) -> int:
        # concept graphs are the symbolic knowledge store
        return sum(g.number_of_nodes() * 64 + g.number_of_edges() * 64
                   for g in self.graphs.values())

    # -- recognition -------------------------------------------------------
    def _ground(self, segments: List[Segment], name: str,
                energies: Dict[str, float],
                rel_energy: Dict[Tuple[int, int], float]) -> Optional[float]:
        """Best (lowest) composed energy of any valid assignment of
        ``segments`` to the nodes of concept graph ``name``.

        ``rel_energy`` maps segment-index pairs to the relation EBM's
        (pre-computed, batched) energies.
        """
        graph = self.graphs[name]
        nodes = list(graph.nodes())
        if len(segments) < len(nodes):
            return None
        best: Optional[float] = None
        for assignment in permutations(range(len(segments)), len(nodes)):
            valid = True
            for node_idx, seg_idx in zip(nodes, assignment):
                wanted = graph.nodes[node_idx]["concept"]
                actual = ("hline" if segments[seg_idx].orientation == "h"
                          else "vline")
                if wanted != actual:
                    valid = False
                    break
            if not valid:
                continue
            total = 0.0
            for node_idx, seg_idx in zip(nodes, assignment):
                wanted = graph.nodes[node_idx]["concept"]
                total += energies[wanted]
            for u, v, data in graph.edges(data=True):
                seg_u_idx = assignment[nodes.index(u)]
                seg_v_idx = assignment[nodes.index(v)]
                seg_u, seg_v = segments[seg_u_idx], segments[seg_v_idx]
                if relation_of(seg_u, seg_v) != data["relation"]:
                    valid = False
                    break
                if data["relation"] == "perpendicular" and \
                        not _segments_intersect(seg_u, seg_v):
                    valid = False
                    break
                total += rel_energy.get(
                    (min(seg_u_idx, seg_v_idx),
                     max(seg_u_idx, seg_v_idx)), 0.0)
            if valid and (best is None or total < best):
                best = total
        return best

    def run(self) -> Dict[str, Any]:
        rng = np.random.default_rng(self.seed + 123)
        images = np.stack([ex.image for ex in self.examples])
        labels = [ex.label for ex in self.examples]
        num = images.shape[0]

        # symbolic stage 1: parse every image into segments (the
        # concept-template grounding substrate)
        all_segments: List[List[Segment]] = []
        with T.phase("symbolic"), T.stage("segment_parsing"):
            with record_region("segment_parse",
                               flops=float(num * self.grid * self.grid),
                               bytes_read=num * self.grid * self.grid * 4):
                for i in range(num):
                    all_segments.append(extract_segments(images[i]))

        with T.phase("neural"), T.stage("ensemble_energy"):
            # ensemble EBM inference: each image under E perturbations
            tiled = np.repeat(images, self.ensemble_size, axis=0)
            noise = rng.normal(0, 0.05, tiled.shape).astype(np.float32)
            batch = T.to_device(
                T.add(T.tensor(tiled), T.tensor(noise)), "gpu")
            concept_energies: Dict[str, np.ndarray] = {}
            energy_producers: List[int] = []
            for name, net in self.energy_nets.items():
                raw = net(batch)
                per_image = T.mean(
                    T.reshape(raw, (num, self.ensemble_size)), axis=1)
                concept_energies[name] = per_image.numpy()
                if per_image.producer is not None:
                    energy_producers.append(per_image.producer)

        with T.phase("neural"), T.stage("relation_energy"):
            # batched relation-EBM over every segment pair of every image
            pair_keys: List[Tuple[int, int, int]] = []
            feats: List[np.ndarray] = []
            for i, segments in enumerate(all_segments):
                for a in range(len(segments)):
                    for b in range(a + 1, len(segments)):
                        pair_keys.append((i, a, b))
                        feats.append(_pair_features(
                            segments[a], segments[b], self.grid))
            rel_lookup: List[Dict[Tuple[int, int], float]] = [
                {} for _ in range(num)]
            if feats:
                rel_out = self.relation_net(
                    T.tensor(np.stack(feats)))
                rel_values = rel_out.numpy().reshape(-1)
                for (i, a, b), value in zip(pair_keys, rel_values):
                    rel_lookup[i][(a, b)] = float(value)

        predictions: List[str] = []
        with T.phase("symbolic"):
            for i in range(num):
                segments = all_segments[i]
                with T.stage("graph_grounding"):
                    energies = {name: float(concept_energies[name][i])
                                for name in self.energy_nets}
                    scored: Dict[str, float] = {}
                    for concept in self.hierarchical:
                        with record_region(f"ground_{concept}",
                                           flops=float(
                                               len(segments) ** 2 * 8),
                                           parents=tuple(energy_producers)):
                            energy = self._ground(segments, concept,
                                                  energies, rel_lookup[i])
                        if energy is not None:
                            scored[concept] = energy
                with T.stage("recognition"):
                    if scored:
                        prediction = min(scored, key=scored.get)
                    else:
                        prediction = "noise"
                    predictions.append(prediction)

        # concept acquisition: derive a new hierarchical concept graph
        # from the first demonstration and check it against the library
        with T.phase("symbolic"), T.stage("concept_acquisition"):
            with record_region("acquire_concept",
                               flops=float(len(all_segments[0]) ** 2)):
                acquired = self._acquire(all_segments[0])
            acquired_is_known = any(
                _graphs_match(acquired, known)
                for known in self.graphs.values())

        correct = sum(1 for p, l in zip(predictions, labels) if p == l)
        return {
            "accuracy": correct / num,
            "num_images": num,
            "predictions": predictions[:6],
            "ensemble_size": self.ensemble_size,
            "acquired_concept_nodes": acquired.number_of_nodes(),
            "acquired_is_known": acquired_is_known,
        }

    def _acquire(self, segments: List[Segment]) -> "nx.Graph":
        """Acquire a concept graph from one demonstration's segments."""
        graph = nx.Graph(name="acquired")
        for idx, segment in enumerate(segments):
            graph.add_node(idx, concept=("hline"
                                         if segment.orientation == "h"
                                         else "vline"))
        for a in range(len(segments)):
            for b in range(a + 1, len(segments)):
                relation = relation_of(segments[a], segments[b])
                if relation == "perpendicular" and \
                        not _segments_intersect(segments[a], segments[b]):
                    continue
                graph.add_edge(a, b, relation=relation)
        return graph

"""AlphaGo-style Symbolic[Neuro] workload: MCTS with a neural evaluator.

Table I's first paradigm — Symbolic[Neuro], "an end-to-end symbolic
system that uses neural models internally as a subroutine" — is not in
the paper's profiled roster, so this workload extends the suite with a
miniature representative: Monte-Carlo Tree Search over tic-tac-toe
whose leaf evaluations come from a small value network.

Phase structure (deliberately the *reverse* of the Neuro|Symbolic
pipelines): the **symbolic** tree search is the outer loop — selection
(UCB), expansion, and backpropagation are host-side control flow —
and the **neural** evaluator is invoked as a batched inner subroutine
each iteration.  In the operation graph, neural events therefore
*depend on* symbolic state, and the critical path alternates phases
every simulation.

Functionally, the search plays correctly: terminal states are scored
exactly, so with enough simulations MCTS finds forced wins regardless
of the (untrained, calibration-free) evaluator quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import tensor as T
from repro.core.taxonomy import NSParadigm
from repro.nn import MLP
from repro.tensor.context import active_context
from repro.tensor.dispatch import record_region
from repro.tensor.tensor import Tensor
from repro.workloads.base import Workload, WorkloadInfo, register


def _last_eid() -> Optional[int]:
    """Event id of the most recently recorded trace event (or None)."""
    ctx = active_context()
    if ctx is None or not ctx.trace:
        return None
    return ctx.trace[-1].eid

WIN_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


def winner(board: Tuple[int, ...]) -> int:
    """+1 / -1 winner, 0 for none."""
    for a, b, c in WIN_LINES:
        if board[a] != 0 and board[a] == board[b] == board[c]:
            return board[a]
    return 0


def legal_moves(board: Tuple[int, ...]) -> List[int]:
    return [i for i, cell in enumerate(board) if cell == 0]


def apply_move(board: Tuple[int, ...], move: int,
               player: int) -> Tuple[int, ...]:
    if board[move] != 0:
        raise ValueError(f"illegal move {move}")
    out = list(board)
    out[move] = player
    return tuple(out)


@dataclass
class Node:
    """One MCTS tree node."""

    board: Tuple[int, ...]
    player: int                      # player to move
    parent: Optional["Node"] = None
    move: Optional[int] = None       # move that led here
    children: List["Node"] = field(default_factory=list)
    visits: int = 0
    value_sum: float = 0.0

    @property
    def mean_value(self) -> float:
        return self.value_sum / self.visits if self.visits else 0.0

    def ucb(self, exploration: float) -> float:
        if self.visits == 0:
            return float("inf")
        assert self.parent is not None
        explore = exploration * math.sqrt(
            math.log(self.parent.visits + 1) / self.visits)
        return self.mean_value + explore


@register("mcts")
class MCTSWorkload(Workload):
    """Symbolic[Neuro]: MCTS game search with a neural value net."""

    info = WorkloadInfo(
        name="mcts",
        full_name="MCTS with Neural Evaluator (AlphaGo-style)",
        paradigm=NSParadigm.SYMBOLIC_NEURO,
        learning_approach="Supervised/Self-play",
        application="Game tree search, sequential decision making",
        advantage="Exact search guarantees over learned evaluations",
        datasets=("tic-tac-toe positions",),
        datatype="FP32",
        neural_workload="MLP value network",
        symbolic_workload="Monte-Carlo tree search (UCB, backprop)",
    )

    def __init__(self, simulations: int = 64, exploration: float = 1.4,
                 hidden: int = 64, seed: int = 0):
        super().__init__(simulations=simulations, exploration=exploration,
                         hidden=hidden, seed=seed)
        self.simulations = simulations
        self.exploration = exploration
        self.hidden = hidden
        self.seed = seed

    def _build(self) -> None:
        self.value_net = MLP([18, self.hidden, self.hidden, 1],
                             seed=self.seed, final_activation="tanh")
        # a position with a forced win for +1 (move 2 completes the
        # top row): X X .  /  O O .  /  . . .
        self.root_board: Tuple[int, ...] = (1, 1, 0, -1, -1, 0, 0, 0, 0)
        self.root_player = 1
        self._rng = np.random.default_rng(self.seed)

    def parameter_bytes(self) -> int:
        return self.value_net.parameter_bytes

    # -- neural subroutine -------------------------------------------------
    def _encode(self, boards: List[Tuple[int, ...]]) -> np.ndarray:
        """Two-plane encoding: own stones, opponent stones."""
        out = np.zeros((len(boards), 18), dtype=np.float32)
        for i, board in enumerate(boards):
            arr = np.asarray(board)
            out[i, :9] = (arr == 1)
            out[i, 9:] = (arr == -1)
        return out

    def _evaluate(self, boards: List[Tuple[int, ...]],
                  player: int) -> np.ndarray:
        """Value in [-1, 1] from ``player``'s perspective: exact for
        terminal boards, value-network output otherwise."""
        with T.phase("neural"), T.stage("value_net"):
            # features descend from the symbolic search state that
            # produced the leaves (the Symbolic[Neuro] call edge)
            features = Tensor(self._encode(boards),
                              producer=self._search_eid)
            value_t = self.value_net(features)
            self._value_eid = value_t.producer
            values = value_t.numpy().reshape(-1)
        out = np.empty(len(boards), dtype=np.float32)
        for i, board in enumerate(boards):
            won = winner(board)
            if won != 0:
                out[i] = float(won * player)
            elif not legal_moves(board):
                out[i] = 0.0
            else:
                out[i] = float(np.clip(values[i], -1, 1)) * player
        return out

    # -- symbolic search ------------------------------------------------------
    def _select(self, node: Node) -> Node:
        while node.children:
            node = max(node.children,
                       key=lambda child: child.ucb(self.exploration))
        return node

    def _expand(self, node: Node) -> List[Node]:
        if winner(node.board) != 0:
            return [node]
        moves = legal_moves(node.board)
        if not moves:
            return [node]
        for move in moves:
            child = Node(board=apply_move(node.board, move, node.player),
                         player=-node.player, parent=node, move=move)
            node.children.append(child)
        return node.children

    def _backpropagate(self, node: Node, value: float) -> None:
        while node is not None:
            node.visits += 1
            # value is from the perspective of the player who just
            # moved into ``node``; flip as we walk up
            node.value_sum += value
            value = -value
            node = node.parent

    def run(self) -> Dict[str, Any]:
        root = Node(board=self.root_board, player=self.root_player)
        evaluations = 0
        self._search_eid: Optional[int] = None
        self._value_eid: Optional[int] = None
        self._backprop_eid: Optional[int] = None
        for _ in range(self.simulations):
            with T.phase("symbolic"), T.stage("tree_search"):
                parents = () if self._backprop_eid is None \
                    else (self._backprop_eid,)
                with record_region("select_expand",
                                   flops=50.0, bytes_read=720,
                                   parents=parents):
                    leaf = self._select(root)
                    children = self._expand(leaf)
                self._search_eid = _last_eid()

            # neural subroutine: batched leaf evaluation
            boards = [child.board for child in children]
            values = self._evaluate(
                boards, -children[0].player)  # mover's perspective
            evaluations += len(boards)

            with T.phase("symbolic"), T.stage("backprop"):
                parents = () if self._value_eid is None \
                    else (self._value_eid,)
                with record_region("backpropagate",
                                   flops=float(10 * len(children)),
                                   bytes_read=48 * len(children),
                                   parents=parents):
                    for child, value in zip(children, values):
                        self._backpropagate(child, float(value))
                self._backprop_eid = _last_eid()

        with T.phase("symbolic"), T.stage("move_selection"):
            best = max(root.children, key=lambda child: child.visits)
            visit_counts = T.tensor(np.asarray(
                [child.visits for child in root.children],
                dtype=np.float32))
            policy = T.div(visit_counts, T.sum(visit_counts))

        return {
            "best_move": best.move,
            "is_winning_move": winner(
                apply_move(self.root_board, best.move,
                           self.root_player)) == self.root_player,
            "simulations": self.simulations,
            "evaluations": evaluations,
            "root_value": root.mean_value,
            "policy": [round(float(p), 3) for p in policy.numpy()],
        }

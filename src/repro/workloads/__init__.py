"""The seven characterized neuro-symbolic workloads (paper Sec. III).

Importing this package registers every workload; use
``workloads.create(name)`` or the classes directly.
"""

from repro.workloads.base import (Workload, WorkloadInfo, all_infos,
                                  available, create, register,
                                  workload_arg)
from repro.workloads.abl import ABLWorkload
from repro.workloads.gnn_attn import GNNAttentionWorkload
from repro.workloads.lnn import LNNWorkload
from repro.workloads.ltn import LTNWorkload
from repro.workloads.mcts_sn import MCTSWorkload
from repro.workloads.nlm import NLMWorkload
from repro.workloads.nsvqa import NSVQAWorkload
from repro.workloads.nvsa import NVSAWorkload
from repro.workloads.prae import PrAEWorkload
from repro.workloads.vsait import VSAITWorkload
from repro.workloads.zeroc import ZeroCWorkload

#: the paper's presentation order (the seven profiled workloads)
PAPER_ORDER = ("lnn", "ltn", "nvsa", "nlm", "vsait", "zeroc", "prae")

#: extension workloads covering additional Table I paradigms/rows
EXTENSION_ORDER = ("mcts", "gnn", "nsvqa", "abl")

__all__ = [
    "Workload", "WorkloadInfo", "all_infos", "available", "create",
    "register", "workload_arg", "PAPER_ORDER",
    "EXTENSION_ORDER",
    "ABLWorkload", "GNNAttentionWorkload", "LNNWorkload", "LTNWorkload",
    "MCTSWorkload", "NLMWorkload", "NSVQAWorkload", "NVSAWorkload",
    "PrAEWorkload", "VSAITWorkload", "ZeroCWorkload",
]

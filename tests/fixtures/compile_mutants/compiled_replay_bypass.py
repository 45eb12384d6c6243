"""Seeded RL001 mutant: a replayer on the compile path that cheats.

Linted from a ``compile/`` directory (an instrumented zone) by
``tests/test_compile.py`` to prove RL001 fires on the replay path: it
replays an op by calling raw numpy compute instead of the instrumented
kernel the eager trace recorded, so the op's FLOPs/bytes never reach
the replayed trace.

It is never imported by the suite.
"""

import numpy as np


def replay_matmul(a, b):
    # RL001: the kernel must be the instrumented op, not a raw numpy
    # call whose FLOPs never reach the replayed trace's counters
    return np.matmul(a, b)

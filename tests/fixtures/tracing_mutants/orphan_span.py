"""Mutant — a serve-path span opened without its trace id.

A miniature of ``Worker.execute_batch`` that drops the ``trace_id=``
keyword when opening the ``serve:batch`` span.  Every span produced
under this execution inherits no trace, so it is an orphan: it can
never be grouped under the requests it served, and waterfalls, tail
sampling, and cross-process reconstruction all silently lose the
batch.  RL106 must flag both call sites.
"""

from repro.obs.spans import span
from repro.obs.spans import span as _span


def execute_batch(runner, batch):
    with _span("serve:batch", bid=batch.bid, size=batch.size):
        return runner.run_workload(batch.workload, seed=batch.seed)


def dispatch(responses):
    for response in responses:
        with span(f"serve:dispatch#{response.rid}", rid=response.rid):
            response.deliver()

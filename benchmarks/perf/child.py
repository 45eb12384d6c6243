"""Run one perf-benchmark workload in this process; print its result.

``run.py`` starts this script once per set-up probe and once per
measured run, so every run gets a fresh interpreter.  The last line of
standard output is one JSON object with the measured numbers; the
exit code is 0 whenever that line was printed (``run.py`` turns a
failed check into exit 1), 3 when a tail percentile had too few
samples to report.  The workloads themselves are in ``loops.py``.
"""

import os

# one BLAS/OpenMP thread: the server's two workers plus the load
# generator already fill a two-core machine; must precede numpy's import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from host import HostProbe, pin_cpus  # noqa: E402
from layers import Tracer  # noqa: E402
from stats import (TAIL_PCT, TailError, percentile,  # noqa: E402
                   tail_percentile)

#: ``threads``: the threads that do the work -- one caller, or the
#: server's two workers (default ``ServeConfig``); the process is pinned
#: to as many CPUs, and the probe reads each of them.
#: ``gemm_weight``: the matrix products' share of a host-speed reading
#: (``host.HostProbe``).  ``char-symbolic`` spends about 80% of a call
#: outside kernels, and on a slow host it slows as the function-call
#: part alone does; the others mix kernel time with Python
#: (``README.md``, "Noise").
WORKLOADS = {
    "char-neural": {"kind": "char", "threads": 1, "gemm_weight": 0.5,
                    "mix": ("nvsa", "prae", "zeroc")},
    "char-symbolic": {"kind": "char", "threads": 1, "gemm_weight": 0.0,
                      "mix": ("lnn", "nlm", "ltn", "mcts")},
    # each burst submits the whole mix, in shuffled order; two batch
    # keys, so same-key requests coalesce and checkouts hit
    "serve-hot": {"kind": "serve", "threads": 2, "gemm_weight": 0.5,
                  "mix": ("nvsa",) * 6 + ("lnn",) * 2,
                  "distinct_seeds": False},
    # a fresh key per request: batches of one, every checkout builds
    "serve-cold": {"kind": "serve", "threads": 2, "gemm_weight": 0.5,
                   "mix": ("lnn", "nlm", "ltn", "nvsa"),
                   "distinct_seeds": True},
}

#: samples per measured window so that p90 has ``stats.TAIL_SAMPLES``
#: samples beyond it
TAIL_FLOOR = 100


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: no tail-sample floor")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="JSONL file for the traced spans")
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    probe = HostProbe(pin_cpus(spec["threads"]), spec["gemm_weight"])
    first = probe.read()
    # imported here, so that set-up time, which includes importing
    # repro, is scaled by readings taken on both sides of it
    import loops

    run = loops.Run()
    loop = loops.make_loop(spec, random.Random(args.seed), run)
    with loop:
        loop.warm_up()
        setup_raw = time.monotonic() - args.t0
        setup_s = setup_raw / ((first + probe.read()) / 2)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        if args.trace:
            plain = loop.window(probe, args.seconds / 2, 0, None)
            tracer = Tracer()
            window = loops.traced_window(loop, probe, args.seconds / 2, tracer)
            metrics = loops.layer_metrics(loop, tracer, window,
                                          plain["throughput"], run)
            if args.spans:
                tracer.write_jsonl(args.spans)
            measured = {}
        else:
            tail = not args.quick
            window = loop.window(probe, args.seconds,
                                 TAIL_FLOOR if tail else 0, None)
            p90 = tail_percentile if tail else percentile
            try:
                metrics = {
                    "latency_ms_p50": percentile(window["latencies"], 50) * 1e3,
                    "latency_ms_p90": p90(window["latencies"], TAIL_PCT) * 1e3,
                    "throughput_per_s": window["throughput"],
                }
                measured = {
                    "latency_ms_p50": percentile(window["raw_latencies"], 50) * 1e3,
                    "latency_ms_p90": p90(window["raw_latencies"], TAIL_PCT) * 1e3,
                    "throughput_per_s": window["raw_throughput"],
                    "setup_s": setup_raw,
                }
            except TailError as exc:
                print(f"{args.workload}: {exc}", file=sys.stderr)
                return 3
            # before the checks, which build workloads of their own
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check()
    loops.check_expected_digests(run)
    metrics["setup_s"] = setup_s
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "numpy": np.__version__, "attempted": run.attempted,
                      "failed": run.failed, "problems": run.problems,
                      "samples": len(window["latencies"]),
                      "slowness": window["slowness"],
                      "measured": measured, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

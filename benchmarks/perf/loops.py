"""The perf benchmark's workloads, tracing hooks and output checks.

Everything here that touches ``repro`` is imported by ``child.py``
once the process's set-up clock is running.  Both kinds of workload
are closed loops of short *episodes* (why each workload was chosen:
``README.md``):

* ``char-*`` -- an episode is one
  ``repro.core.suite.characterize(create(name, seed=s))`` call from one
  caller; calls go in rounds of the mix, in shuffled order;
* ``serve-*`` -- an episode is a burst: the whole mix submitted at once,
  in shuffled order, to the live ``InferenceServer`` (default
  ``ServeConfig``) from one thread, which waits for all of it.

Between episodes the program is idle and :class:`host.HostProbe` reads
the host's slowness; each time an episode measured is divided by the
mean of the readings on its two sides, which expresses it at the
reference host's speed.  Every input comes from
the ``random.Random`` the caller seeds; the program sees only the calls
and requests.
"""

from __future__ import annotations

import json
import random
import statistics
import threading
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional
from unittest.mock import patch

from repro.core import suite
from repro.core.taxonomy import CATEGORY_ORDER
from repro.obs import selfprof
from repro.obs.runrec import counters_digest
from repro.resilience import runner as resilience_runner
from repro.serve import cache as serve_cache
from repro.serve import pool as serve_pool
from repro.serve import server as serve_server
from repro.workloads import base as workloads_base
from repro.workloads import create

from host import HostProbe
from layers import (TENSOR_DISPATCH, TENSOR_KERNEL, UNATTRIBUTED, Tracer,
                    attribute, direct_tensor)
from stats import TAIL_PCT, percentile

HERE = Path(__file__).resolve().parent

SEED_POOL = 8              # char: seeds each workload cycles through
COLD_SEED_SPACE = 100_000  # serve-cold: against a cache capacity of 32
#: a window goes on past ``--seconds``, up to this many times it, until
#: the tail percentile has enough samples
CAP = 1.5
DIGEST_SAMPLES = 16        # served batches re-checked against eager runs
SETTLE_TIMEOUT = 60.0

LAYERS = ("serve", "resilience", "workloads", "core", "hwsim",
          TENSOR_KERNEL, TENSOR_DISPATCH, UNATTRIBUTED)

clock = time.perf_counter


class Run:
    """Attempt/failure counts and correctness problems of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problem(what)

    def problem(self, what: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(what)


class Episode(NamedTuple):
    """One measured unit of work between two host-speed readings."""

    latencies: List[float]   # seconds, one per ok call or request
    busy: float              # seconds the work took
    served: list             # serve: (due, sent, resolved, response)
    slowness: float = 1.0    # mean reading around it (host.py)


def measure(loop, probe: HostProbe, seconds: float,
            floor: int) -> Dict[str, object]:
    """Run ``loop.episode`` back to back for ``seconds``; its metrics.

    The window ends between two rounds of the mix, and goes on (up to
    CAP times ``seconds``) until ``floor`` latencies were measured.
    """
    episodes: List[Episode] = []
    samples = 0
    start = clock()
    reading = probe.read()
    while True:
        episode = loop.episode()
        after = probe.read()
        episodes.append(episode._replace(slowness=(reading + after) / 2))
        samples += len(episode.latencies)
        reading = after
        elapsed = clock() - start
        if loop.at_round_end and elapsed >= seconds and (
                samples >= floor or elapsed >= CAP * seconds):
            break
    busy = sum(e.busy / e.slowness for e in episodes)
    raw_busy = sum(e.busy for e in episodes)
    return {"latencies": [s / e.slowness
                          for e in episodes for s in e.latencies],
            "raw_latencies": [s for e in episodes for s in e.latencies],
            "throughput": samples / busy if busy else 0.0,
            "raw_throughput": samples / raw_busy if raw_busy else 0.0,
            "slowness": statistics.median(e.slowness for e in episodes),
            "served": [r for e in episodes for r in e.served]}


# -- closed-loop characterization ---------------------------------------------
class CharLoop:
    """One caller characterizing a shuffled, equal-count workload mix."""

    def __init__(self, spec, rng: random.Random, run: Run):
        self.mix = list(spec["mix"])
        self.rng = rng
        self.run = run
        self.pool = rng.sample(range(1000), SEED_POOL)
        self.tracer: Optional[Tracer] = None
        self.make = create
        self.order: List[str] = []   # rest of the current round
        #: (workload, seed) -> counters digest of its first call
        self.first: Dict[tuple, str] = {}

    def __enter__(self) -> "CharLoop":
        return self

    def __exit__(self, *exc) -> None:
        return None

    @property
    def at_round_end(self) -> bool:
        return not self.order

    def warm_up(self) -> None:
        for name in self.mix:
            seed = self.pool[0]
            self._check(name, seed, suite.characterize(create(name, seed=seed)))

    def _check(self, name: str, seed: int, report) -> None:
        digest = counters_digest(report.trace)
        if self.first.setdefault((name, seed), digest) != digest:
            self.run.problem(f"{name} seed {seed}: counters digest differs "
                             f"from its first call")

    def episode(self) -> Episode:
        """One call; calls go in rounds of the mix in shuffled order."""
        if not self.order:
            self.order = list(self.mix)
            self.rng.shuffle(self.order)
        name = self.order.pop()
        seed = self.rng.choice(self.pool)
        self.run.attempted += 1
        tracer = self.tracer
        if tracer:
            tracer.set_key(("call", self.run.attempted))
        report = None
        began = clock()
        try:
            with tracer.span("call", None) if tracer else nullcontext():
                report = suite.characterize(self.make(name, seed=seed))
        except Exception as exc:  # noqa: BLE001 - counted, reported
            self.run.fail(f"{name} seed {seed}: {type(exc).__name__}: {exc}")
        took = clock() - began
        if report is None:
            return Episode([], 0.0, [])
        self._check(name, seed, report)
        return Episode([took], took, [])

    def window(self, probe: HostProbe, seconds: float, floor: int,
               tracer: Optional[Tracer]) -> Dict[str, object]:
        self.tracer = tracer
        self.make = (tracer.wrap(create, "workloads.create", "workloads")
                     if tracer else create)
        result = measure(self, probe, seconds, floor)
        self.tracer, self.make = None, create
        return result

    def requests(self, tracer: Tracer, window) -> List[tuple]:
        """(start, end, spans) of every traced call."""
        keyed = tracer.by_key()
        return [(s.start, s.end, keyed[s.key]) for s in tracer.named("call")]

    def check(self) -> None:
        """Repeats were checked as they happened."""


# -- live serving --------------------------------------------------------------
class ServeLoop:
    """Bursts of concurrent requests through the live server."""

    at_round_end = True   # every burst is a whole round of the mix

    def __init__(self, spec, rng: random.Random, run: Run):
        self.spec = spec
        self.rng = rng
        self.run = run
        self.mix = list(spec["mix"])
        self.seeds = {name: rng.randrange(1000) for name in sorted(set(self.mix))}
        self.used_seeds: set = set()
        self.server = serve_server.InferenceServer()
        self.tracer: Optional[Tracer] = None
        self._sample_rng = random.Random(rng.random())
        self._sample_lock = threading.Lock()
        self._seen = 0
        self.sampled: List[tuple] = []
        self._stack = ExitStack()

    # hooks stay installed for the loop's life: resolve time is the
    # latency end point, and served traces feed the digest check
    def __enter__(self) -> "ServeLoop":
        resolve = serve_server.PendingResponse.resolve
        execute = serve_pool.Worker.execute_batch
        loop = self

        def timed_resolve(pending, response):
            pending.bench_resolved = clock()
            resolve(pending, response)

        def sampled_execute(worker, batch):
            tracer = loop.tracer
            if tracer is None:
                result = execute(worker, batch)
            else:
                tracer.set_key(("bid", batch.bid))
                with tracer.span("serve.execute_batch", "serve") as record:
                    result = execute(worker, batch)
                    record.attrs["size"] = batch.size
            loop._sample(result)
            return result

        self._stack.enter_context(patch.object(
            serve_server.PendingResponse, "resolve", timed_resolve))
        self._stack.enter_context(patch.object(
            serve_pool.Worker, "execute_batch", sampled_execute))
        self.server.start()
        self._stack.callback(self.server.stop)
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def _sample(self, result) -> None:
        """Reservoir-sample ok single-attempt batches for re-checking."""
        if result.status != "ok" or result.attempts != 1 or result.trace is None:
            return
        batch = result.batch
        entry = (batch.workload, batch.seed, batch.params,
                 counters_digest(result.trace))
        with self._sample_lock:
            self._seen += 1
            if len(self.sampled) < DIGEST_SAMPLES:
                self.sampled.append(entry)
            else:
                slot = self._sample_rng.randrange(self._seen)
                if slot < DIGEST_SAMPLES:
                    self.sampled[slot] = entry

    def _seed(self, name: str) -> int:
        if not self.spec["distinct_seeds"]:
            return self.seeds[name]
        seed = self.rng.randrange(COLD_SEED_SPACE)
        while seed in self.used_seeds:
            seed = self.rng.randrange(COLD_SEED_SPACE)
        self.used_seeds.add(seed)
        return seed

    def warm_up(self) -> None:
        for name in sorted(set(self.mix)):
            response = self.server.submit(
                name, seed=self._seed(name)).result(SETTLE_TIMEOUT)
            if not response.ok:
                self.run.problem(f"warm-up {name}: {response.status}")

    def episode(self) -> Episode:
        """Submit the mix at once in shuffled order and wait for all.

        Latency runs from the burst's start to each request's resolve.
        """
        order = list(self.mix)
        self.rng.shuffle(order)
        due = clock()
        sent = []
        for name in order:
            self.run.attempted += 1
            sent.append((clock(), self.server.submit(name, seed=self._seed(name))))
        served = []
        for at, pending in sent:
            try:
                response = pending.result(SETTLE_TIMEOUT)
            except TimeoutError as exc:
                self.run.fail(str(exc))
                continue
            if not response.ok:
                self.run.fail(f"request {response.rid} ({response.workload}): "
                              f"{response.status} "
                              f"{response.reject_reason or response.error}")
                continue
            served.append((due, at, pending.bench_resolved, response))
        resolved = [r for _, _, r, _ in served]
        return Episode([r - due for r in resolved],
                       max(resolved) - due if resolved else 0.0, served)

    def window(self, probe: HostProbe, seconds: float, floor: int,
               tracer: Optional[Tracer]) -> Dict[str, object]:
        self.tracer = tracer
        stats0 = self.server.cache.stats()
        result = measure(self, probe, seconds, floor)
        self.tracer = None
        stats1 = self.server.cache.stats()
        result["cache"] = {k: stats1[k] - stats0[k]
                           for k in ("hits", "misses", "evictions")}
        return result

    def requests(self, tracer: Tracer, window) -> List[tuple]:
        """(due, resolved, spans) of every traced request.

        The benchmark adds one ``serve.request`` span per request, from
        submit to resolve; batch spans are shared by the batch's members.
        """
        for _, at, resolved, response in window["served"]:
            tracer.add("serve.request", "serve", at, resolved,
                       ("rid", response.rid))
        keyed = tracer.by_key()
        return [(due, resolved,
                 keyed.get(("rid", response.rid), [])
                 + keyed.get(("bid", response.bid), []))
                for due, _, resolved, response in window["served"]]

    def check(self) -> None:
        """Served batches must match an eager profile of the same key."""
        for name, seed, params, digest in self.sampled:
            eager = counters_digest(create(name, seed=seed, **params).profile())
            if eager != digest:
                self.run.problem(f"served {name} seed {seed}: counters digest "
                                 f"differs from an eager profile")


def make_loop(spec, rng: random.Random, run: Run):
    return (CharLoop if spec["kind"] == "char" else ServeLoop)(spec, rng, run)


# -- tracing ---------------------------------------------------------------------
def instrument(tracer: Tracer) -> ExitStack:
    """Wrap each layer's public entry points for the traced window."""
    stack = ExitStack()

    def wrap(owner, attr: str, name: str, layer: str) -> None:
        stack.enter_context(patch.object(
            owner, attr, tracer.wrap(getattr(owner, attr), name, layer)))

    wrap(workloads_base.Workload, "profile", "workloads.profile", "workloads")
    wrap(suite, "characterize_trace", "core.characterize_trace", "core")
    wrap(resilience_runner, "characterize_trace", "core.characterize_trace",
         "core")
    wrap(suite, "latency_breakdown", "hwsim.latency_breakdown", "hwsim")
    wrap(serve_server, "latency_breakdown", "hwsim.latency_breakdown", "hwsim")
    wrap(resilience_runner, "check_trace_health", "resilience.health",
         "resilience")
    wrap(serve_cache.ArtifactCache, "checkout", "serve.cache.checkout", "serve")

    build = workloads_base.Workload.build
    run_workload = resilience_runner.ResilientRunner.run_workload
    record = selfprof.DispatchLedger.record

    def traced_build(workload):
        if workload._built:    # profile() calls build() every time
            return build(workload)
        with tracer.span("workloads.build", "workloads"):
            return build(workload)

    def traced_run(runner, *args, **kwargs):
        with tracer.span("resilience.run_workload", "resilience") as span:
            outcome = run_workload(runner, *args, **kwargs)
            span.attrs["attempts"] = outcome.attempts
        return outcome

    def credited_record(ledger, category, parts):
        record(ledger, category, parts)
        kernel = parts.get("kernel", 0)
        tracer.add_tensor(kernel, sum(parts.values()) - kernel)

    stack.enter_context(patch.object(workloads_base.Workload, "build",
                                     traced_build))
    stack.enter_context(patch.object(resilience_runner.ResilientRunner,
                                "run_workload", traced_run))
    stack.enter_context(patch.object(selfprof.DispatchLedger, "record",
                                credited_record))
    return stack


def traced_window(loop, probe: HostProbe, seconds: float,
                  tracer: Tracer) -> Dict[str, object]:
    """``loop.window`` with every layer wrapped and the ledger on."""
    with instrument(tracer), selfprof.scoped_ledger() as ledger:
        window = loop.window(probe, seconds, 0, tracer)
    window["ledger"] = ledger
    return window


def layer_metrics(loop, tracer: Tracer, window, plain_throughput: float,
                  run: Run) -> Dict[str, float]:
    """Per-layer metrics of the traced window.

    Times are divided by the window's median host slowness, as the
    end-to-end ones are, so they read at the reference host's speed.
    Work that only some workloads do -- serving, retries, builds, one
    op category -- is given as a count or as a share of the requests'
    wall time, never as a time that reads 0 where it does not happen.
    ``plain_throughput`` is the untraced window's.
    """
    ledger = window["ledger"]
    spans = tracer.spans
    direct = direct_tensor(spans)
    children: Dict[int, List] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / window["slowness"]

    def durations(name: str) -> List[float]:
        return [s.duration for s in tracer.named(name)]

    def own(span) -> float:
        """Seconds of ``span`` outside its child spans."""
        return span.duration - sum(c.duration
                                   for c in children.get(span.sid, []))

    requests = loop.requests(tracer, window)
    n_req = max(len(requests), 1)
    parts = {layer: 0.0 for layer in LAYERS}
    named: Dict[str, float] = {}   # span name -> seconds inside requests
    wall = 0.0
    for start, end, request_spans in requests:
        split = attribute(start, end, request_spans, direct)
        if abs(sum(split.values()) - (end - start)) > 1e-9 * max(end - start, 1):
            run.problem("layer self times do not add up to the request wall")
        for layer, seconds in split.items():
            parts[layer] += seconds
        for span in request_spans:
            named[span.name] = named.get(span.name, 0.0) + span.duration
        wall += end - start

    def share(seconds: float) -> float:
        return seconds / wall if wall else 0.0

    profiles = tracer.named("workloads.profile")
    n_prof = max(len(profiles), 1)
    # profile time outside nested spans that the dispatcher did not see
    host = sum(own(p) - sum(direct[p.sid]) * 1e-9 for p in profiles)
    kernel_ns = {category.value: ledger.component_ns(category.value)
                 .get("kernel", 0) for category in CATEGORY_ORDER}
    kernel_total = sum(kernel_ns.values())
    out: Dict[str, float] = {}
    out["tensor.kernel_ms_per_profile"] = ms(kernel_total * 1e-9 / n_prof)
    for category, ns in kernel_ns.items():
        out[f"tensor.kernel_share.{category}"] = (ns / kernel_total
                                                  if kernel_total else 0.0)
    out["tensor.ops_per_profile"] = ledger.ops / n_prof
    out["tensor.dispatch_ms_per_profile"] = ms(ledger.overhead_ns * 1e-9 / n_prof)
    out["workloads.host_ms_per_profile"] = ms(host / n_prof)
    profile_s = durations("workloads.profile")
    out["workloads.profile_ms_p50"] = ms(percentile(profile_s, 50))
    out["workloads.profile_ms_p90"] = ms(percentile(profile_s, TAIL_PCT))
    out["workloads.builds_per_req"] = len(tracer.named("workloads.build")) / n_req
    out["workloads.build_share"] = share(named.get("workloads.build", 0.0))
    out["core.characterize_ms_p50"] = ms(percentile(
        durations("core.characterize_trace"), 50))
    out["hwsim.model_ms_p50"] = ms(percentile(
        durations("hwsim.latency_breakdown"), 50))
    out["hwsim.model_calls_per_req"] = (
        len(tracer.named("hwsim.latency_breakdown")) / n_req)

    served = [response for *_, response in window["served"]]
    batches = tracer.named("serve.execute_batch")
    cache = window.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["serve.queue_wait_share"] = share(sum(r.queue_wait for r in served))
    out["serve.dispatch_wait_share"] = share(sum(r.dispatch_wait for r in served))
    out["serve.execute_share"] = share(named.get("serve.execute_batch", 0.0))
    out["serve.batch_size_mean"] = (sum(b.attrs["size"] for b in batches)
                                    / max(len(batches), 1))
    out["serve.cache.checkout_share"] = share(named.get("serve.cache.checkout", 0.0))
    out["serve.cache.hit_ratio"] = cache.get("hits", 0) / max(lookups, 1)
    out["serve.cache.evictions_per_req"] = cache.get("evictions", 0) / n_req
    runs = tracer.named("resilience.run_workload")
    out["resilience.attempts_per_run"] = (sum(r.attrs["attempts"] for r in runs)
                                          / max(len(runs), 1))
    out["resilience.health_share"] = share(named.get("resilience.health", 0.0))
    for layer in LAYERS:
        out[f"self_share.{layer}"] = share(parts[layer])
    out["trace.request_ms_mean"] = ms(wall / n_req)
    out["trace.overhead_pct"] = (100.0 * (plain_throughput - window["throughput"])
                                 / plain_throughput if plain_throughput else 0.0)
    return out


# -- checks ------------------------------------------------------------------------
def check_expected_digests(run: Run) -> None:
    """The committed seed-0 counters digests must still hold."""
    expected = json.loads((HERE / "expected_digests.json").read_text())
    for name, digest in sorted(expected["digests"].items()):
        got = counters_digest(create(name, seed=expected["seed"]).profile())
        if got != digest:
            run.problem(f"{name} seed {expected['seed']}: counters digest "
                        f"{got[:12]} != expected {digest[:12]}")

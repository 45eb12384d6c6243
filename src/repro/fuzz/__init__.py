"""Operator-rule-inference fuzzing with differential execution checks.

The Dynofuzz-style pipeline over the instrumented tensor runtime:

* :mod:`~repro.fuzz.harvest` — replay the workload roster under the
  dispatcher's op-observer hook, recording one
  :class:`~repro.fuzz.records.OpInstance` per kernel;
* :mod:`~repro.fuzz.rules` — fit per-op shape/dtype/counter transfer
  rules over the (filtered) instances;
* :mod:`~repro.fuzz.generate` — grow seeded random op programs whose
  shapes compose by construction, plus boundary workload configs;
* :mod:`~repro.fuzz.oracle` — execute each program twice, eagerly,
  and cross-check template predictions, inferred rules, trace
  structure, and run-to-run determinism;
* :mod:`~repro.fuzz.chaos` — fuzz fault/timeout/rejection schedules
  through :mod:`repro.serve`, asserting every request terminates in a
  classified state;
* :mod:`~repro.fuzz.corpus` — minimize failures and persist them to a
  replayable JSONL crash corpus;
* :mod:`~repro.fuzz.runner` / :mod:`~repro.fuzz.cli` — whole
  campaigns and the ``repro fuzz run|replay|rules`` commands.
"""

from repro.fuzz.chaos import (ChaosConfig, ChaosReport,
                              build_chaos_schedule, check_serve_invariants,
                              deterministic_digest, fuzz_chaos,
                              run_chaos_schedule, run_live_chaos)
from repro.fuzz.corpus import (CrashEntry, ReplayResult, load_corpus,
                               minimize_program, replay_entry, save_corpus)
from repro.fuzz.generate import (KNOWN_UNGENERATED, TEMPLATES, LeafSpec,
                                 OpNode, OpProgram, calibration_programs,
                                 generate_program, perturb_configs)
from repro.fuzz.harvest import (DEFAULT_HARVEST, OpInstanceRecorder,
                                harvest_roster, harvest_workload)
from repro.fuzz.oracle import (CheckResult, Divergence, ExecutionResult,
                               build_ruleset, check_program, counter_digest,
                               execute_program, materialize_leaf)
from repro.fuzz.records import (OpInstance, dump_instances,
                                filter_instances)
from repro.fuzz.rules import OpRule, RuleSet, infer_rules
from repro.fuzz.runner import FuzzReport, fuzz_run

__all__ = [
    "ChaosConfig", "ChaosReport", "CheckResult", "CrashEntry",
    "DEFAULT_HARVEST", "Divergence", "ExecutionResult", "FuzzReport",
    "KNOWN_UNGENERATED", "LeafSpec", "OpInstance", "OpInstanceRecorder",
    "OpNode", "OpProgram", "OpRule", "ReplayResult", "RuleSet",
    "TEMPLATES", "build_chaos_schedule", "build_ruleset",
    "calibration_programs", "check_program", "check_serve_invariants",
    "counter_digest", "deterministic_digest", "dump_instances",
    "execute_program", "filter_instances", "fuzz_chaos", "fuzz_run",
    "generate_program", "harvest_roster", "harvest_workload",
    "infer_rules", "load_corpus", "materialize_leaf",
    "minimize_program", "perturb_configs", "replay_entry",
    "run_chaos_schedule", "run_live_chaos", "save_corpus",
]

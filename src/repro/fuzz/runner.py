"""Top-level fuzzing campaigns: programs, chaos schedules, configs.

One :func:`fuzz_run` call is a complete campaign:

1. infer (or load) the transfer-rule set — harvest + calibration;
2. generate and differentially check ``count`` seeded op programs,
   each run twice eagerly and replayed once against its own trace;
3. run ``chaos`` seeded fault/rejection schedules through the server;
4. harvest ``configs`` boundary workload configurations.

Every failure is minimized and appended to a crash corpus; the report
renders a one-screen summary and carries everything the CLI and CI
need (exit status, corpus entries, per-kind tallies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fuzz.chaos import fuzz_chaos
from repro.fuzz.corpus import (CrashEntry, entry_for_chaos,
                               entry_for_program,
                               entry_for_workload_config)
from repro.fuzz.generate import generate_program, perturb_configs
from repro.fuzz.oracle import CheckResult, build_ruleset, check_program
from repro.fuzz.rules import RuleSet

#: stride between campaign seed and per-program seeds; keeps distinct
#: campaign seeds from overlapping program streams for small counts
_PROGRAM_SEED_STRIDE = 1_000_003


@dataclass
class FuzzReport:
    """Everything one fuzzing campaign produced."""

    seed: int
    rules: RuleSet
    checked: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    divergent: List[CheckResult] = field(default_factory=list)
    chaos_run: int = 0
    chaos_failed: int = 0
    configs_run: int = 0
    config_crashes: int = 0
    entries: List[CrashEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.entries

    def render(self) -> str:
        lines = [f"fuzz campaign (seed {self.seed}): "
                 f"{len(self.rules)} op rules"]
        tally = ", ".join(f"{status}={count}" for status, count
                          in sorted(self.statuses.items()))
        lines.append(f"  programs   {self.checked} checked ({tally})")
        if self.chaos_run:
            lines.append(f"  chaos      {self.chaos_run} schedules, "
                         f"{self.chaos_failed} with violations")
        if self.configs_run:
            lines.append(f"  configs    {self.configs_run} boundary "
                         f"configs, {self.config_crashes} crashes")
        if self.entries:
            lines.append(f"  corpus     {len(self.entries)} failing "
                         f"case(s):")
            for entry in self.entries:
                kinds = ", ".join(sorted({d.kind
                                          for d in entry.divergences}))
                lines.append(f"    [{entry.kind}] seed {entry.seed}: "
                             f"{kinds}")
        else:
            lines.append("  corpus     empty — no divergences")
        return "\n".join(lines)


def fuzz_run(seed: int = 0, count: int = 50, max_ops: int = 12,
             harvest: Optional[Sequence[str]] = None,
             chaos: int = 0, configs: int = 0,
             rules: Optional[RuleSet] = None,
             minimize: bool = True) -> FuzzReport:
    """Run a full campaign; see the module docstring for the stages."""
    ruleset = rules if rules is not None else build_ruleset(
        harvest, seed=seed)
    report = FuzzReport(seed=seed, rules=ruleset)

    base = seed * _PROGRAM_SEED_STRIDE
    for index in range(count):
        program = generate_program(base + index, max_ops=max_ops)
        result = check_program(program, ruleset)
        report.checked += 1
        report.statuses[result.status] = (
            report.statuses.get(result.status, 0) + 1)
        if not result.ok:
            report.divergent.append(result)
            report.entries.append(
                entry_for_program(result, ruleset, minimize=minimize))

    if chaos:
        for chaos_report in fuzz_chaos(seed, chaos):
            report.chaos_run += 1
            if not chaos_report.ok:
                report.chaos_failed += 1
                report.entries.append(entry_for_chaos(
                    chaos_report.config, chaos_report.issues))

    if configs:
        from repro.fuzz.harvest import harvest_workload
        for name, params in perturb_configs(seed, configs):
            report.configs_run += 1
            try:
                harvest_workload(name, seed=seed, **params)
            except ValueError:
                pass           # classified refusal (TensorOpError et al.)
            except Exception as exc:  # noqa: BLE001 - crash hunting
                report.config_crashes += 1
                report.entries.append(entry_for_workload_config(
                    name, seed, dict(params),
                    f"{type(exc).__name__}: {exc}"))

    return report

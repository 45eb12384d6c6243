"""repro.lint — AST-based instrumentation-soundness checker.

Static analysis over the suite's own source tree: the figures this
repository reproduces are only as good as the counters the
instrumented runtime collects, so the linter enforces the invariants
that keep those counters honest (no raw-numpy bypasses in instrumented
zones, run_op names consistent with the op taxonomy, workloads
entering their declared phases, deterministic RNG/clock usage, and
context-stack discipline).

The RL100 series adds whole-program concurrency soundness on top of
the per-file checks: :func:`repro.lint.program.build_program` links
every module into one :class:`~repro.lint.program.Program` (symbol
table, call graph, thread entrypoints, lock contexts, sharing taint)
and ``repro.lint.concurrency`` runs five checks over it — RL101
unsynchronized shared state, RL102 lock-order cycles, RL103 thread
escapes without a defensive copy, RL104 process-boundary pickle
readiness, RL105 blocking calls under a lock.

Nothing suppresses or grandfathers a finding: each one fails until
the code or the check is fixed.

Programmatic entry point::

    from repro.lint import LintConfig, default_scan_root, run_lint
    result = run_lint(LintConfig(root=default_scan_root()))
    assert not result.errors

CLI::

    python -m repro lint [--format json] [--strict] [--select IDS]
"""

from repro.lint.engine import (DEFAULT_ZONES, LintConfig, LintContext,
                               LintResult, ModuleSource,
                               UnknownCheckError, default_scan_root,
                               discover_files, run_lint)
from repro.lint.findings import (SEVERITY_ERROR, SEVERITY_WARNING, Finding)
from repro.lint.program import Program, build_program
from repro.lint.registry import LintCheck, all_checks, register_check
from repro.lint.report import render_json, render_text

__all__ = [
    "DEFAULT_ZONES", "Finding", "LintCheck", "LintConfig", "LintContext",
    "LintResult", "ModuleSource", "Program",
    "SEVERITY_ERROR", "SEVERITY_WARNING", "UnknownCheckError",
    "all_checks", "build_program", "default_scan_root", "discover_files",
    "register_check", "render_json", "render_text", "run_lint",
]

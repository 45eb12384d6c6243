"""``python -m repro lint`` command handler.

Exit codes follow the ``faults`` convention: 0 clean, 2 findings
(errors, or warnings under ``--strict``), 3 internal error (unknown
check id, unreadable scan root).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Set

from repro.lint.engine import (LintConfig, UnknownCheckError,
                               default_scan_root, registered_checks,
                               run_lint)
from repro.lint.findings import SEVERITY_ERROR
from repro.lint.report import render_json, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 2
EXIT_INTERNAL = 3


def add_lint_arguments(cmd: argparse.ArgumentParser) -> None:
    """Attach the lint options to an argparse sub-command."""
    cmd.add_argument("paths", nargs="*",
                     help="files/directories to scan (default: the "
                          "installed repro package)")
    cmd.add_argument("--format", choices=("text", "json"), default="text",
                     dest="output_format",
                     help="report format (default text)")
    cmd.add_argument("--strict", action="store_true",
                     help="treat warnings as errors (CI mode)")
    cmd.add_argument("--select", default=None,
                     help="comma-separated check ids to run; a family "
                          "wildcard like RL1xx selects every "
                          "registered RL1-series check (default: all)")
    cmd.add_argument("--ignore", default=None,
                     help="comma-separated check ids (or RL1xx-style "
                          "families) to skip")


def _split_ids(spec: Optional[str]) -> Optional[Set[str]]:
    """A --select/--ignore spec as a set of ids/families (None if unset)."""
    if not spec:
        return None
    return {part.strip() for part in spec.split(",") if part.strip()}


def _explain_command(check_id: str) -> int:
    wanted = check_id.strip().upper()
    checks = registered_checks()
    for cls in checks:
        if cls.check_id != wanted:
            continue
        print(f"{cls.check_id} ({cls.name}) — severity: {cls.severity}")
        print()
        print(f"  {cls.description}")
        if cls.example:
            print()
            print("  example:")
            for line in cls.example.rstrip().splitlines():
                print(f"    {line}")
        return EXIT_CLEAN
    known = ", ".join(cls.check_id for cls in checks)
    print(f"repro lint explain: unknown check {wanted!r} (known: {known})")
    return EXIT_INTERNAL


def run_lint_command(args: argparse.Namespace) -> int:
    if args.paths and args.paths[0] == "explain":
        if len(args.paths) != 2:
            print("usage: repro lint explain <check-id>")
            return EXIT_INTERNAL
        return _explain_command(args.paths[1])

    roots = [Path(p) for p in args.paths] if args.paths else [
        default_scan_root()]
    missing = [str(r) for r in roots if not r.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}")
        return EXIT_INTERNAL

    select, ignore = _split_ids(args.select), _split_ids(args.ignore)
    try:
        results = [run_lint(LintConfig(root=root, select=select,
                                       ignore=ignore))
                   for root in roots]
    except UnknownCheckError as exc:
        print(f"repro lint: {exc}")
        return EXIT_INTERNAL
    result = results[0]
    for extra in results[1:]:
        result.findings.extend(extra.findings)
        result.files_scanned += extra.files_scanned

    if args.output_format == "json":
        print(render_json(result, strict=args.strict))
    else:
        print(render_text(result))

    failing = [f for f in result.findings
               if args.strict or f.severity == SEVERITY_ERROR]
    return EXIT_FINDINGS if failing else EXIT_CLEAN

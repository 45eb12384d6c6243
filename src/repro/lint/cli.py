"""``python -m repro lint`` command handler.

Exit codes follow the ``faults`` convention: 0 clean, 2 findings
(errors, or warnings under ``--strict``), 3 internal error (bad
baseline, unreadable scan root).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Set

from repro.lint.baseline import (DEFAULT_BASELINE_NAME, BaselineError,
                                 load_baseline, split_baselined,
                                 write_baseline)
from repro.lint.engine import (LintConfig, default_scan_root,
                               registered_checks, run_lint)
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
    cmd.add_argument("--baseline", default=None,
                     help=f"baseline JSON (default ./{DEFAULT_BASELINE_NAME} "
                          f"when present)")
    cmd.add_argument("--update-baseline", action="store_true",
                     help="rewrite the baseline from current findings "
                          "and exit 0")
    cmd.add_argument("--strict", action="store_true",
                     help="treat warnings as errors (CI mode)")
    cmd.add_argument("--select", default=None,
                     help="comma-separated check ids to run; a family "
                          "wildcard like RL1xx selects every "
                          "registered RL1-series check (default: all)")
    cmd.add_argument("--ignore", default=None,
                     help="comma-separated check ids (or RL1xx-style "
                          "families) to skip")


def _registered_ids() -> List[str]:
    return [cls.check_id for cls in registered_checks()]


def _expand_checks(spec: str) -> Set[str]:
    """Parse a --select/--ignore spec, expanding RL1xx-style families."""
    out: Set[str] = set()
    known = _registered_ids()
    for part in spec.split(","):
        part = part.strip().upper()
        if not part:
            continue
        if part.endswith("X"):
            prefix = part.rstrip("X")
            matches = [cid for cid in known
                       if cid.startswith(prefix) and len(cid) == len(part)]
            out.update(matches or (part,))
        else:
            out.add(part)
    return out


def _explain_command(check_id: str) -> int:
    wanted = check_id.strip().upper()
    for cls in registered_checks():
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
    known = ", ".join(_registered_ids())
    print(f"repro lint explain: unknown check {wanted!r} (known: {known})")
    return EXIT_INTERNAL


def _resolve_baseline(args: argparse.Namespace) -> Optional[Path]:
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path.cwd() / DEFAULT_BASELINE_NAME
    return default if default.exists() else None


def run_lint_command(args: argparse.Namespace) -> int:
    if args.paths and args.paths[0] == "explain":
        if len(args.paths) != 2:
            print("usage: repro lint explain <check-id>")
            return EXIT_INTERNAL
        return _explain_command(args.paths[1])

    select: Optional[Set[str]] = None
    if args.select:
        select = _expand_checks(args.select)
    ignore: Optional[Set[str]] = None
    if getattr(args, "ignore", None):
        ignore = _expand_checks(args.ignore)

    roots = [Path(p) for p in args.paths] if args.paths else [
        default_scan_root()]
    missing = [str(r) for r in roots if not r.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}")
        return EXIT_INTERNAL

    result = run_lint(LintConfig(root=roots[0], select=select,
                                 ignore=ignore))
    for root in roots[1:]:
        extra = run_lint(LintConfig(root=root, select=select,
                                    ignore=ignore))
        result.findings.extend(extra.findings)
        result.suppressed.extend(extra.suppressed)
        result.files_scanned += extra.files_scanned
    findings = result.findings

    baseline_path = _resolve_baseline(args)
    if args.update_baseline:
        target = baseline_path or Path.cwd() / DEFAULT_BASELINE_NAME
        write_baseline(target, findings)
        print(f"repro lint: wrote {len(findings)} finding(s) to {target}")
        return EXIT_CLEAN

    grandfathered: List = []
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"repro lint: {exc}")
            return EXIT_INTERNAL
        findings, grandfathered = split_baselined(findings, baseline)

    if args.output_format == "json":
        print(render_json(result, findings, grandfathered,
                          strict=args.strict))
    else:
        print(render_text(result, findings, grandfathered))

    failing = [f for f in findings
               if args.strict or f.severity == SEVERITY_ERROR]
    return EXIT_FINDINGS if failing else EXIT_CLEAN

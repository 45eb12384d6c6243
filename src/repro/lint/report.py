"""Text and JSON reporters for lint results."""

from __future__ import annotations

import json

from repro.lint.engine import LintResult

REPORT_VERSION = 2


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    lines.append(f"repro-lint: {result.files_scanned} files, "
                 f"{len(result.checks_run)} checks: "
                 f"{len(result.errors)} error(s), "
                 f"{len(result.warnings)} warning(s)")
    return "\n".join(lines)


def render_json(result: LintResult, strict: bool = False) -> str:
    """Machine-readable report (stable schema, versioned)."""
    payload = {
        "version": REPORT_VERSION,
        "strict": strict,
        "findings": [f.to_dict() for f in result.findings],
        "summary": {
            "files_scanned": result.files_scanned,
            "checks_run": list(result.checks_run),
            "errors": len(result.errors),
            "warnings": len(result.warnings),
        },
    }
    return json.dumps(payload, indent=2)

"""Finding records emitted by the instrumentation-soundness checks.

A :class:`Finding` pinpoints one violation: file (relative to the scan
root), 1-based line, 0-based column, check id (``RL001``...), severity
(``error`` | ``warning``), and a human-readable message.  Findings are
value objects; the engine sorts them without the checks' involvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING)


@dataclass(frozen=True)
class Finding:
    """One static-analysis violation."""

    path: str          #: posix path relative to the scan root
    line: int          #: 1-based line number
    col: int           #: 0-based column offset
    check_id: str      #: e.g. ``RL001``
    severity: str      #: ``error`` or ``warning``
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.check_id)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.check_id} {self.severity}: {self.message}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "check_id": self.check_id,
            "severity": self.severity,
            "message": self.message,
        }

"""Lint engine: file discovery, parsing, check execution, suppression.

The engine is deliberately self-contained (stdlib ``ast`` only).  It
walks every ``*.py`` file under the scan root (by default the installed
``repro`` package), parses each into a :class:`ModuleSource` — source,
AST, import-alias tables, zone membership — and feeds them to the
registered checks.  Findings then pass through two suppression layers:

1. inline pragmas (``# repro-lint: disable=RL001 -- reason``), counted
   but dropped;
2. the committed baseline (handled by the CLI, not here, so callers
   can distinguish new from grandfathered findings).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import SEVERITY_ERROR, Finding
from repro.lint.pragmas import PragmaIndex
from repro.lint.registry import LintCheck, all_checks

#: Package sub-trees whose compute must route through ``repro.tensor``
#: (the instrumented zones of RL001/RL003).
DEFAULT_ZONES: Tuple[str, ...] = ("workloads", "vsa", "nn", "logic",
                                  "serve", "fuzz", "compile")

#: Check id used for files the engine itself cannot process.
PARSE_ERROR_ID = "RL000"


def default_scan_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro
    return Path(repro.__file__).resolve().parent


@dataclass
class LintConfig:
    """What to scan and which checks to run."""

    root: Path
    zones: Tuple[str, ...] = DEFAULT_ZONES
    select: Optional[Set[str]] = None  #: check ids; None = all
    ignore: Optional[Set[str]] = None  #: check ids dropped after select

    @classmethod
    def for_package(cls, select: Optional[Set[str]] = None,
                    ignore: Optional[Set[str]] = None) -> "LintConfig":
        return cls(root=default_scan_root(), select=select, ignore=ignore)


class ModuleSource:
    """One parsed module plus the lookup tables checks keep needing."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.pragmas = PragmaIndex.from_source(source)
        #: alias -> dotted sub-module path inside the aliased package,
        #: e.g. ``import numpy as np`` -> {"np": ""}; ``import
        #: numpy.fft as nf`` -> {"nf": "fft"}.  Keyed per package.
        self.module_aliases: Dict[str, Dict[str, str]] = {}
        #: bare name -> dotted function path, from ``from pkg import x``
        self.func_aliases: Dict[str, Dict[str, str]] = {}
        self._index_imports()

    # -- imports ---------------------------------------------------------------
    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    package, rest = parts[0], ".".join(parts[1:])
                    bound = alias.asname or parts[0]
                    if alias.asname is None and rest:
                        # ``import numpy.fft`` binds ``numpy``
                        rest = ""
                    self.module_aliases.setdefault(package, {})[bound] = rest
            elif isinstance(node, ast.ImportFrom) and node.module:
                parts = node.module.split(".")
                package, rest = parts[0], ".".join(parts[1:])
                for alias in node.names:
                    bound = alias.asname or alias.name
                    dotted = f"{rest}.{alias.name}" if rest else alias.name
                    self.func_aliases.setdefault(package, {})[bound] = dotted

    def resolve_call(self, package: str, func: ast.expr) -> Optional[str]:
        """Dotted path of ``func`` inside ``package``, or ``None``.

        ``np.fft.rfft`` resolves to ``fft.rfft`` when ``np`` aliases
        numpy; a bare ``rfft`` resolves to ``fft.rfft`` when imported
        with ``from numpy.fft import rfft``.
        """
        if isinstance(func, ast.Name):
            return self.func_aliases.get(package, {}).get(func.id)
        if isinstance(func, ast.Attribute):
            chain: List[str] = []
            node: ast.expr = func
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if not isinstance(node, ast.Name):
                return None
            chain.reverse()
            modules = self.module_aliases.get(package, {})
            if node.id in modules:
                prefix = modules[node.id]
                return ".".join(([prefix] if prefix else []) + chain)
            funcs = self.func_aliases.get(package, {})
            if node.id in funcs:
                return ".".join([funcs[node.id]] + chain)
        return None

    def zone(self, zones: Sequence[str]) -> Optional[str]:
        """The instrumented zone this module belongs to, if any."""
        head = self.relpath.split("/", 1)[0]
        return head if head in zones else None


@dataclass
class LintContext:
    """Mutable state shared by the engine and the checks."""

    config: LintConfig
    findings: List[Finding] = field(default_factory=list)
    #: scratch space for cross-module checks, keyed by check id
    state: Dict[str, object] = field(default_factory=dict)

    def report(self, check: LintCheck, module_relpath: str, line: int,
               col: int, message: str) -> None:
        self.findings.append(Finding(
            path=module_relpath, line=line, col=col,
            check_id=check.check_id, severity=check.severity,
            message=message))


@dataclass
class LintResult:
    """Outcome of one engine run (before baseline filtering)."""

    findings: List[Finding]
    suppressed: List[Finding]     #: dropped by inline pragmas
    files_scanned: int
    checks_run: Tuple[str, ...]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity != SEVERITY_ERROR]


def discover_files(root: Path) -> List[Path]:
    """All ``*.py`` files under ``root`` (skipping ``__pycache__``)."""
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*.py")
                  if "__pycache__" not in p.parts)


def registered_checks() -> List[Type[LintCheck]]:
    """Every check class, ordered by check id."""
    # importing the check modules populates the registry
    import repro.lint.checks  # noqa: F401
    import repro.lint.clocks  # noqa: F401
    import repro.lint.compiled  # noqa: F401
    import repro.lint.concurrency  # noqa: F401
    import repro.lint.tracing  # noqa: F401
    return all_checks()


def run_lint(config: LintConfig) -> LintResult:
    """Run all (selected) checks over the configured tree."""
    checks = [cls() for cls in registered_checks()
              if (config.select is None or cls.check_id in config.select)
              and (config.ignore is None
                   or cls.check_id not in config.ignore)]
    ctx = LintContext(config=config)
    modules: List[ModuleSource] = []
    root = config.root.resolve()

    files = discover_files(root)
    for path in files:
        relpath = (path.relative_to(root).as_posix()
                   if path != root else path.name)
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            ctx.findings.append(Finding(
                path=relpath, line=getattr(exc, "lineno", 1) or 1, col=0,
                check_id=PARSE_ERROR_ID, severity=SEVERITY_ERROR,
                message=f"cannot analyze module: {exc}"))
            continue
        modules.append(ModuleSource(path, relpath, source, tree))

    for module in modules:
        for check in checks:
            check.visit_module(module, ctx)
    for check in checks:
        check.finalize(ctx)

    pragma_index = {m.relpath: m.pragmas for m in modules}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in sorted(ctx.findings, key=lambda f: f.sort_key):
        pragmas = pragma_index.get(finding.path)
        if pragmas is not None and pragmas.suppresses(finding.check_id,
                                                      finding.line):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return LintResult(findings=kept, suppressed=suppressed,
                      files_scanned=len(files),
                      checks_run=tuple(c.check_id for c in checks))

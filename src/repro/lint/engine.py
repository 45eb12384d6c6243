"""Lint engine: file discovery, parsing and check execution.

The engine is deliberately self-contained (stdlib ``ast`` only).  It
walks every ``*.py`` file under the scan root (by default the installed
``repro`` package), parses each into a :class:`ModuleSource` — source,
AST, import-alias tables, zone membership — and feeds them to the
registered checks.  Every finding a check reports is in the result:
nothing suppresses one, so a finding fails until the code or the check
is fixed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import SEVERITY_ERROR, Finding
from repro.lint.registry import LintCheck, all_checks

#: Package sub-trees whose compute must route through ``repro.tensor``
#: (the instrumented zones of RL001/RL003).
DEFAULT_ZONES: Tuple[str, ...] = ("workloads", "vsa", "nn", "logic",
                                  "serve", "fuzz", "compile")

#: Check id used for files the engine itself cannot process.
PARSE_ERROR_ID = "RL000"


class UnknownCheckError(ValueError):
    """A ``select`` or ``ignore`` entry matches no registered check."""


def default_scan_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro
    return Path(repro.__file__).resolve().parent


@dataclass
class LintConfig:
    """What to scan and which checks to run.

    ``select`` and ``ignore`` hold check ids (``RL001``) or families
    (``RL1xx``: every registered id with that prefix and length).
    """

    root: Path
    select: Optional[Set[str]] = None  #: None = every registered check
    ignore: Optional[Set[str]] = None  #: dropped after select


class ModuleSource:
    """One parsed module plus the lookup tables checks keep needing."""

    def __init__(self, path: Path, relpath: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = tree
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

    def zone(self) -> Optional[str]:
        """The instrumented zone (:data:`DEFAULT_ZONES`) this module
        belongs to, if any."""
        head = self.relpath.split("/", 1)[0]
        return head if head in DEFAULT_ZONES else None


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
    """Outcome of one engine run."""

    findings: List[Finding]
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
    import repro.lint.concurrency  # noqa: F401
    import repro.lint.tracing  # noqa: F401
    return all_checks()


def _expand_ids(entries: Optional[Set[str]],
                known: Sequence[str]) -> Optional[Set[str]]:
    """The registered ids ``entries`` name, expanding ``RL1xx``-style
    families; raises :class:`UnknownCheckError` for an entry that
    names none."""
    if entries is None:
        return None
    ids: Set[str] = set()
    for entry in entries:
        wanted = entry.strip().upper()
        prefix = wanted.rstrip("X")
        matches = [cid for cid in known
                   if cid.startswith(prefix) and len(cid) == len(wanted)]
        if not matches:
            raise UnknownCheckError(
                f"unknown check {entry!r} (known: {', '.join(known)})")
        ids.update(matches)
    return ids


def run_lint(config: LintConfig) -> LintResult:
    """Run all (selected) checks over the configured tree.

    Raises :class:`UnknownCheckError` when ``config.select`` or
    ``config.ignore`` names no registered check, so a mistyped id
    cannot lint nothing and pass.
    """
    registered = registered_checks()
    known = [cls.check_id for cls in registered]
    select = _expand_ids(config.select, known)
    ignore = _expand_ids(config.ignore, known) or set()
    checks = [cls() for cls in registered
              if (select is None or cls.check_id in select)
              and cls.check_id not in ignore]
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

    findings = sorted(ctx.findings, key=lambda f: f.sort_key)
    return LintResult(findings=findings, files_scanned=len(files),
                      checks_run=tuple(c.check_id for c in checks))

"""Crash corpus: minimized failing cases, serialized and replayable.

Every divergence the oracle or chaos checker finds becomes a
:class:`CrashEntry` — the seed, the (minimized) program or chaos
config, and the divergences observed — appended to a JSONL corpus.
``repro fuzz replay`` re-executes entries from the corpus and reports
whether each failure still reproduces, which is both the debugging
loop and the regression gate for previously-found bugs.

Minimization is a greedy backward pass: drop any node no later node
depends on, re-run the oracle, keep the drop if the program still
diverges.  Deterministic by construction (fixed iteration order, the
oracle itself is two-run-checked), so a minimized repro is stable
across machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fuzz.chaos import ChaosConfig, run_chaos_schedule, run_live_chaos
from repro.fuzz.generate import OpNode, OpProgram
from repro.fuzz.oracle import CheckResult, Divergence, check_program
from repro.fuzz.rules import RuleSet

KIND_PROGRAM = "program"
KIND_CHAOS = "chaos"
KIND_WORKLOAD_CONFIG = "workload_config"


@dataclass
class CrashEntry:
    """One reproducible failure."""

    kind: str                          # program | chaos | workload_config
    seed: int
    payload: Dict[str, object]         # program dict / chaos config / params
    divergences: List[Divergence] = field(default_factory=list)
    minimized: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "seed": self.seed,
                "payload": self.payload,
                "divergences": [d.to_dict() for d in self.divergences],
                "minimized": self.minimized}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CrashEntry":
        return cls(kind=str(data["kind"]),
                   seed=int(data["seed"]),  # type: ignore[arg-type]
                   payload=dict(data["payload"]),  # type: ignore[arg-type]
                   divergences=[Divergence.from_dict(d)
                                for d in data.get("divergences", ())],  # type: ignore[union-attr]
                   minimized=bool(data.get("minimized", False)))


def save_corpus(entries: Sequence[CrashEntry], path: str) -> None:
    with open(path, "w") as handle:
        for entry in entries:
            handle.write(json.dumps(entry.to_dict(), sort_keys=True,
                                    separators=(",", ":")) + "\n")


def load_corpus(path: str) -> List[CrashEntry]:
    """The entries of a corpus file; a malformed line raises
    ``ValueError`` naming its line number."""
    out: List[CrashEntry] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(CrashEntry.from_dict(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number}: not JSON ({exc.msg} at "
                                 f"column {exc.colno})") from exc
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {number}: {exc!r}") from exc
    return out


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def _live_nids(nodes: Sequence[OpNode]) -> set:
    """nids some surviving node consumes as input."""
    used: set = set()
    for node in nodes:
        used.update(node.inputs)
    return used


def _prune_leaves(program: OpProgram) -> OpProgram:
    """Drop leaves no surviving node reads (nids are preserved)."""
    used = _live_nids(program.nodes)
    return OpProgram(seed=program.seed,
                     leaves=[l for l in program.leaves if l.nid in used],
                     nodes=list(program.nodes))


def minimize_program(program: OpProgram,
                     rules: Optional[RuleSet] = None,
                     max_rounds: int = 8) -> OpProgram:
    """Greedy 1-node reduction preserving at least one divergence."""
    baseline = check_program(program, rules)
    if baseline.ok:
        return program
    current = program
    for _ in range(max_rounds):
        shrunk = False
        for index in range(len(current.nodes) - 1, -1, -1):
            candidate_nodes = (current.nodes[:index]
                               + current.nodes[index + 1:])
            victim = current.nodes[index]
            if victim.nid in _live_nids(candidate_nodes):
                continue       # a later node consumes this output
            candidate = _prune_leaves(OpProgram(
                seed=current.seed, leaves=list(current.leaves),
                nodes=list(candidate_nodes)))
            if not check_program(candidate, rules).ok:
                current = candidate
                shrunk = True
        if not shrunk:
            break
    return current


def entry_for_program(result: CheckResult,
                      rules: Optional[RuleSet] = None,
                      minimize: bool = True) -> CrashEntry:
    """Build the corpus entry for a divergent program check."""
    program = result.program
    minimized = False
    if minimize:
        reduced = minimize_program(program, rules)
        minimized = len(reduced.nodes) < len(program.nodes)
        program = reduced
        if minimized:
            result = check_program(program, rules)
    return CrashEntry(kind=KIND_PROGRAM, seed=program.seed,
                      payload=program.to_dict(),
                      divergences=list(result.divergences),
                      minimized=minimized)


def entry_for_chaos(config: ChaosConfig,
                    issues: Sequence[str]) -> CrashEntry:
    return CrashEntry(
        kind=KIND_CHAOS, seed=config.seed,
        payload={"seed": config.seed, "requests": config.requests,
                 "workers": config.workers,
                 "max_depth": config.max_depth,
                 "max_retries": config.max_retries,
                 "timeout": config.timeout},
        divergences=[Divergence(kind="chaos", op="serve", detail=issue)
                     for issue in issues])


def entry_for_workload_config(name: str, seed: int,
                              params: Dict[str, object],
                              error: str) -> CrashEntry:
    return CrashEntry(
        kind=KIND_WORKLOAD_CONFIG, seed=seed,
        payload={"workload": name, "params": params},
        divergences=[Divergence(kind="workload_crash", op=name,
                                detail=error)])


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Outcome of replaying one corpus entry."""

    entry: CrashEntry
    reproduced: bool
    detail: str = ""


def replay_entry(entry: CrashEntry,
                 rules: Optional[RuleSet] = None) -> ReplayResult:
    """Re-execute a corpus entry; reproduced = still failing."""
    if entry.kind == KIND_PROGRAM:
        program = OpProgram.from_dict(entry.payload)  # type: ignore[arg-type]
        result = check_program(program, rules)
        detail = "; ".join(
            f"{d.kind}:{d.op}" for d in result.divergences) or "clean"
        return ReplayResult(entry=entry,
                            reproduced=not result.ok, detail=detail)
    if entry.kind == KIND_CHAOS:
        payload = entry.payload
        config = ChaosConfig(
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            requests=int(payload.get("requests", 10)),  # type: ignore[arg-type]
            workers=int(payload.get("workers", 2)),  # type: ignore[arg-type]
            max_depth=int(payload.get("max_depth", 4)),  # type: ignore[arg-type]
            max_retries=int(payload.get("max_retries", 1)),  # type: ignore[arg-type]
            timeout=(None if payload.get("timeout") is None
                     else float(payload["timeout"])))  # type: ignore[arg-type]
        report = run_chaos_schedule(config)
        issues = list(report.issues)
        issues.extend(run_live_chaos(config))
        return ReplayResult(entry=entry, reproduced=bool(issues),
                            detail="; ".join(issues) or "clean")
    if entry.kind == KIND_WORKLOAD_CONFIG:
        from repro.fuzz.harvest import harvest_workload
        name = str(entry.payload["workload"])
        params = dict(entry.payload.get("params", {}))  # type: ignore[arg-type]
        try:
            harvest_workload(name, seed=entry.seed, **params)
        except Exception as exc:  # noqa: BLE001 - replaying a crash
            return ReplayResult(entry=entry, reproduced=True,
                                detail=f"{type(exc).__name__}: {exc}")
        return ReplayResult(entry=entry, reproduced=False, detail="clean")
    return ReplayResult(entry=entry, reproduced=False,
                        detail=f"unknown corpus kind {entry.kind!r}")

"""The five instrumentation-soundness checks (RL001-RL005).

Every figure the suite reproduces is computed from counters emitted by
the instrumented tensor runtime, so each check guards one way those
counters can silently go wrong:

* **RL001** — raw numpy compute inside the instrumented zones bypasses
  ``repro.tensor.dispatch``; its FLOPs/bytes never reach the trace.
* **RL002** — an op's category is its name's entry in
  :data:`repro.core.taxonomy.OP_CATEGORIES` and nowhere else: every
  op name recorded by ``run_op`` must have an entry (a traced op
  without one fails to dispatch) and every entry must name a recorded
  op, or Fig. 3a's six-way category split misclassifies work;
  category-keyed model tables (``obs/kstats.CATEGORY_MIX``) must key
  exactly the ``OpCategory`` values for the same reason.
* **RL003** — a registered workload whose ``run()`` never enters both
  ``phase("neural")`` and ``phase("symbolic")`` produces traces the
  Fig. 2a neural/symbolic split cannot attribute.
* **RL004** — legacy global RNG calls and ``time.time()`` /
  ``time.time_ns()`` make traces non-reproducible / non-monotonic; use
  ``np.random.default_rng`` and ``time.perf_counter[_ns]``.
* **RL005** — mutating the thread's dispatch state (the profile,
  fault-hook, op-observer and plan-session stacks of
  ``tensor.context.DispatchState``) — or the observability layer's
  span/collector stacks — outside the approved context managers
  corrupts phase labels, span parent links, and hook pairing for
  every event that follows.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.findings import SEVERITY_ERROR, SEVERITY_WARNING
from repro.lint.registry import LintCheck, register_check

# ---------------------------------------------------------------------------
# RL001 — raw numpy compute bypassing the instrumented runtime
# ---------------------------------------------------------------------------

#: numpy functions that do material FLOP work.  Cheap host-side helpers
#: (``np.argmax`` over eight candidate scores, scalar ``np.sqrt``) are
#: deliberately absent: flagging them would bury the real bypasses
#: under findings that matter to no figure.
_NUMPY_COMPUTE: Set[str] = {
    "exp", "expm1", "log", "log2", "log10", "log1p",
    "tanh", "sinh", "cosh",
    "matmul", "dot", "vdot", "inner", "outer", "einsum", "tensordot",
    "convolve", "correlate", "power",
}
_NUMPY_COMPUTE_PREFIXES: Tuple[str, ...] = ("fft.", "linalg.")


@register_check
class RawNumpyBypass(LintCheck):
    check_id = "RL001"
    name = "raw-numpy-bypass"
    description = ("numpy compute inside the instrumented zones must "
                   "route through repro.tensor ops")
    severity = SEVERITY_ERROR

    def visit_module(self, module, ctx) -> None:
        if module.zone() is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve_call("numpy", node.func)
            if dotted is None:
                continue
            if (dotted in _NUMPY_COMPUTE
                    or dotted.startswith(_NUMPY_COMPUTE_PREFIXES)):
                ctx.report(
                    self, module.relpath, node.lineno, node.col_offset,
                    f"raw numpy compute np.{dotted} bypasses the "
                    f"instrumented tensor runtime; its FLOPs/bytes never "
                    f"reach the trace — route it through repro.tensor ops")


# ---------------------------------------------------------------------------
# RL002 — op-name <-> taxonomy-registry coverage
# ---------------------------------------------------------------------------

def _attribute_chain(func: ast.expr) -> Optional[List[str]]:
    chain: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        chain.reverse()
        return chain
    return None


def _call_name(func: ast.expr) -> Optional[str]:
    """Trailing identifier of a call target (``x.y.run_op`` -> run_op)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _static_op_name(arg: ast.expr) -> Optional[Tuple[str, bool]]:
    """(name-or-prefix, is_prefix) of a run_op name argument."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr) and arg.values:
        first = arg.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, True
    return None


#: module-level dict literals keyed by ``OpCategory.value`` strings.
#: RL002 validates their keys against the taxonomy in both directions:
#: an unknown key silently drops events from the counter synthesis and
#: a missing category folds its events through the wrong mix.
_CATEGORY_TABLE_NAMES: Tuple[str, ...] = ("CATEGORY_MIX",)


@register_check
class TaxonomyCoverage(LintCheck):
    check_id = "RL002"
    name = "taxonomy-coverage"
    description = ("run_op names and OP_CATEGORIES, the only source of "
                   "an op's category, must agree in both directions")
    severity = SEVERITY_ERROR

    def _state(self, ctx) -> Dict[str, object]:
        return ctx.state.setdefault(self.check_id, {
            "used_keys": set(),           # registry keys seen at call sites
            "anchor": None,               # (relpath, line) of OP_CATEGORIES
        })

    def visit_module(self, module, ctx) -> None:
        from repro.core.taxonomy import OP_CATEGORIES, canonical_op_name
        state = self._state(ctx)

        # locate the registry definition for anchoring finalize findings
        if module.relpath.endswith("core/taxonomy.py"):
            for node in module.tree.body:
                if (isinstance(node, (ast.Assign, ast.AnnAssign))
                        and any(isinstance(t, ast.Name)
                                and t.id == "OP_CATEGORIES"
                                for t in (node.targets
                                          if isinstance(node, ast.Assign)
                                          else [node.target]))):
                    state["anchor"] = (module.relpath, node.lineno)

        self._check_category_tables(module, ctx)

        forwarders = self._forwarders(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            callee = _call_name(node.func)
            index = 0 if callee == "run_op" else forwarders.get(callee)
            if index is None or index >= len(node.args):
                continue
            parsed = _static_op_name(node.args[index])
            if parsed is None:
                continue
            raw, is_prefix = parsed
            stem = canonical_op_name(raw)
            key = self._match_registry(
                OP_CATEGORIES, stem,
                is_prefix and "[" not in raw)
            if key is None:
                ctx.report(
                    self, module.relpath, node.lineno, node.col_offset,
                    f"op name {raw!r} recorded by run_op has no entry in "
                    f"repro.core.taxonomy.OP_CATEGORIES; register it so "
                    f"the Fig. 3a category split stays exhaustive")
                continue
            state["used_keys"].update(
                k for k in OP_CATEGORIES
                if k == key or k.startswith(stem))

    def _check_category_tables(self, module, ctx) -> None:
        """Category-keyed tables stay in lockstep with the taxonomy.

        A table in :data:`_CATEGORY_TABLE_NAMES`
        (``obs/kstats.CATEGORY_MIX`` today) must key exactly the
        ``OpCategory`` *value* strings: an unknown key is dead weight
        that masks a typo and a missing category makes the counter
        synthesis ``KeyError`` on the first event of that category.
        """
        from repro.core.taxonomy import OpCategory
        valid = {category.value for category in OpCategory}
        for node in module.tree.body:
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            elif isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            else:
                continue
            if not any(isinstance(t, ast.Name)
                       and t.id in _CATEGORY_TABLE_NAMES
                       for t in targets):
                continue
            if not isinstance(value, ast.Dict):
                continue
            table = next(t.id for t in targets
                         if isinstance(t, ast.Name))
            keys: Set[str] = set()
            for key in value.keys:
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    continue  # computed keys are not statically checkable
                keys.add(key.value)
                if key.value not in valid:
                    ctx.report(
                        self, module.relpath, key.lineno,
                        key.col_offset,
                        f"{table} key {key.value!r} is not an "
                        f"OpCategory value; events can never resolve "
                        f"to it through repro.core.taxonomy — fix the "
                        f"typo or drop the entry")
            for missing in sorted(valid - keys):
                ctx.report(
                    self, module.relpath, node.lineno, node.col_offset,
                    f"{table} has no entry for OpCategory value "
                    f"{missing!r}; the per-category counter synthesis "
                    f"would KeyError on the first {missing} event")

    @staticmethod
    def _forwarders(tree: ast.Module) -> Dict[str, int]:
        """Module-local helpers that forward a name parameter to run_op.

        ``ops.py`` builds most elementwise/reduction ops through
        factories like ``_binary(name, fn, a, b)``; the static op name
        lives at the factory's call sites.  This resolves one hop: a
        FunctionDef whose body calls ``run_op(<param>, ...)`` maps its
        name to that parameter's index.
        """
        forwarders: Dict[str, int] = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = [a.arg for a in node.args.args]
            for call in ast.walk(node):
                if not (isinstance(call, ast.Call)
                        and _call_name(call.func) == "run_op"
                        and call.args
                        and isinstance(call.args[0], ast.Name)
                        and call.args[0].id in params):
                    continue
                forwarders[node.name] = params.index(call.args[0].id)
        return forwarders

    @staticmethod
    def _match_registry(registry, stem: str,
                        open_prefix: bool) -> Optional[str]:
        """The registry key a call-site stem resolves to, or None."""
        if not open_prefix and stem in registry:
            return stem
        for key in registry:
            if not key.endswith("*"):
                continue
            prefix = key[:-1]
            if stem.startswith(prefix) or (open_prefix
                                           and prefix.startswith(stem)):
                return key
        return None

    def finalize(self, ctx) -> None:
        from repro.core.taxonomy import OP_CATEGORIES, OpCategory
        state = self._state(ctx)
        anchor = state["anchor"]
        if anchor is None:
            # the registry module was not part of this scan (e.g. a
            # fixture tree); only call-site-direction checks apply
            return
        relpath, line = anchor
        used: Set[str] = state["used_keys"]  # type: ignore[assignment]
        for key in sorted(OP_CATEGORIES):
            if key not in used:
                ctx.report(
                    self, relpath, line, 0,
                    f"OP_CATEGORIES entry {key!r} matches no run_op call "
                    f"site; delete it or name the op that should use it "
                    f"(a stale entry reads as coverage no op has)")
        covered = set(OP_CATEGORIES.values())
        for category in OpCategory:
            if category not in covered:
                ctx.report(
                    self, relpath, line, 0,
                    f"taxonomy category OpCategory.{category.name} has no "
                    f"registered op; the Fig. 3a split would render an "
                    f"empty bucket")


# ---------------------------------------------------------------------------
# RL003 — workloads must enter their declared phases
# ---------------------------------------------------------------------------

_REQUIRED_PHASES: Tuple[str, ...] = ("neural", "symbolic")


@register_check
class PhaseCoverage(LintCheck):
    check_id = "RL003"
    name = "phase-coverage"
    description = ("every registered workload's run() must enter both "
                   "neural and symbolic phase contexts")
    severity = SEVERITY_ERROR

    def visit_module(self, module, ctx) -> None:
        if module.zone() != "workloads":
            return
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(isinstance(dec, ast.Call)
                       and _call_name(dec.func) == "register"
                       for dec in node.decorator_list):
                continue
            methods = {
                item.name: item for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
            run_def = methods.get("run")
            if run_def is None:
                continue  # inherited run(): not statically checkable here
            entered = self._entered_phases(run_def)
            # one hop: phases entered inside same-class helpers that
            # run() calls as ``self._helper(...)``
            for helper in self._self_calls(run_def):
                if helper in methods and helper != "run":
                    entered |= self._entered_phases(methods[helper])
            missing = [p for p in _REQUIRED_PHASES if p not in entered]
            if missing:
                ctx.report(
                    self, module.relpath, run_def.lineno,
                    run_def.col_offset,
                    f"workload {node.name}.run() never enters "
                    f"phase({'/'.join(repr(m) for m in missing)}); the "
                    f"Fig. 2a neural/symbolic latency split cannot "
                    f"attribute its events")

    @staticmethod
    def _self_calls(run_def: ast.AST) -> Set[str]:
        """Names of methods ``run()`` invokes on ``self``."""
        called: Set[str] = set()
        for node in ast.walk(run_def):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"):
                called.add(node.func.attr)
        return called

    @staticmethod
    def _entered_phases(run_def: ast.AST) -> Set[str]:
        entered: Set[str] = set()
        for node in ast.walk(run_def):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if (isinstance(call, ast.Call)
                        and _call_name(call.func) == "phase"
                        and call.args
                        and isinstance(call.args[0], ast.Constant)
                        and isinstance(call.args[0].value, str)):
                    entered.add(call.args[0].value)
        return entered


# ---------------------------------------------------------------------------
# RL004 — determinism of measurement paths
# ---------------------------------------------------------------------------

_LEGACY_RANDOM: Set[str] = {
    "seed", "rand", "randn", "randint", "random_integers", "random",
    "random_sample", "ranf", "sample", "choice", "bytes", "shuffle",
    "permutation", "uniform", "normal", "standard_normal", "binomial",
    "poisson", "beta", "gamma", "exponential", "get_state", "set_state",
    "RandomState",
}

#: stdlib ``random`` module-level functions (the hidden global
#: ``random.Random`` instance); ``random.Random(seed)`` objects are fine
_GLOBAL_STDLIB_RANDOM: Set[str] = {
    "seed", "random", "uniform", "randint", "randrange", "choice",
    "choices", "shuffle", "sample", "betavariate", "expovariate",
    "gauss", "normalvariate", "getrandbits", "triangular",
    "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "getstate", "setstate", "randbytes",
}


#: non-monotonic ``time`` wall-clock reads -> the monotonic clock to use
_WALL_CLOCKS: Dict[str, str] = {"time": "perf_counter",
                                "time_ns": "perf_counter_ns"}


@register_check
class Determinism(LintCheck):
    check_id = "RL004"
    name = "determinism"
    description = ("measurement paths must use seeded Generators and "
                   "monotonic clocks")
    severity = SEVERITY_WARNING

    def visit_module(self, module, ctx) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve_call("numpy", node.func)
            if dotted is not None:
                parts = dotted.split(".")
                if (len(parts) == 2 and parts[0] == "random"
                        and parts[1] in _LEGACY_RANDOM):
                    ctx.report(
                        self, module.relpath, node.lineno,
                        node.col_offset,
                        f"legacy global RNG np.{dotted} makes runs "
                        f"irreproducible across processes; thread a "
                        f"np.random.default_rng(seed) Generator instead")
                    continue
            stdlib = module.resolve_call("random", node.func)
            if stdlib is not None and stdlib in _GLOBAL_STDLIB_RANDOM:
                ctx.report(
                    self, module.relpath, node.lineno, node.col_offset,
                    f"module-level random.{stdlib}() draws from the "
                    f"hidden global RNG; fuzzing and measurement paths "
                    f"must thread a seeded random.Random or "
                    f"np.random.default_rng(seed) instead")
                continue
            clock = module.resolve_call("time", node.func)
            if clock in _WALL_CLOCKS:
                ctx.report(
                    self, module.relpath, node.lineno, node.col_offset,
                    f"time.{clock}() is not monotonic and skews measured "
                    f"wall times; use time.{_WALL_CLOCKS[clock]}() in "
                    f"measurement paths")


# ---------------------------------------------------------------------------
# RL005 — thread-local context stacks stay behind their managers
# ---------------------------------------------------------------------------

#: the private stack accessors of the span module
_PRIVATE_CONTEXT_NAMES: Set[str] = {"_span_stack", "_collector_stack"}
#: modules that legitimately own a thread-local stack (exempt)
_CONTEXT_MODULES: Tuple[str, ...] = ("tensor/context.py", "obs/spans.py")
#: ``from <module ending here> import _private`` is also a violation
_PRIVATE_IMPORT_SOURCES: Tuple[str, ...] = ("tensor.context", "obs.spans")
_PHASE_ATTRS: Set[str] = {"current_phase", "current_stage"}
_HOOK_FUNCS: Set[str] = {"push_fault_hook", "pop_fault_hook",
                         "push_op_observer", "pop_op_observer",
                         "push_span", "pop_span",
                         "install_collector", "uninstall_collector"}
#: the slots of ``tensor.context.DispatchState``: ``state.push(slot,
#: value)`` / ``state.pop(slot, value)`` move one of its stacks
_DISPATCH_SLOTS: Set[str] = {"context", "fault_hook", "observer",
                             "session"}


def _dispatch_stack_call(node: ast.Call) -> Optional[str]:
    """``push``/``pop`` when ``node`` moves a ``DispatchState`` stack.

    Recognized by its receiver (``<x>.dispatch.push(...)``) or by its
    first argument naming a dispatch slot (``state.pop("session",
    s)``); a list's ``pop()`` or ``pop(0)`` matches neither.
    """
    func = node.func
    if not (isinstance(func, ast.Attribute)
            and func.attr in ("push", "pop")):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Attribute) and receiver.attr == "dispatch":
        return func.attr
    if (node.args and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in _DISPATCH_SLOTS):
        return func.attr
    return None


class _ContextSafetyVisitor(ast.NodeVisitor):
    """Tracks whether we are inside an approved enter/exit scope."""

    def __init__(self, check: "ContextSafety", module, ctx):
        self.check = check
        self.module = module
        self.ctx = ctx
        self._approved_depth = 0
        #: local names bound to private internals of a stack owner
        self._private_names: Set[str] = set()

    # -- scope tracking -------------------------------------------------------
    def _is_approved(self, node: ast.AST) -> bool:
        if node.name in ("__enter__", "__exit__"):  # type: ignore[attr-defined]
            return True
        for dec in node.decorator_list:  # type: ignore[attr-defined]
            name = _call_name(dec) if isinstance(dec, ast.Call) else (
                dec.attr if isinstance(dec, ast.Attribute)
                else dec.id if isinstance(dec, ast.Name) else None)
            if name in ("contextmanager", "asynccontextmanager"):
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        approved = self._is_approved(node)
        self._approved_depth += approved
        self.generic_visit(node)
        self._approved_depth -= approved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- violations -----------------------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.module.endswith(_PRIVATE_IMPORT_SOURCES):
            for alias in node.names:
                if alias.name.startswith("_"):
                    self._private_names.add(alias.asname or alias.name)
                    self.ctx.report(
                        self.check, self.module.relpath, node.lineno,
                        node.col_offset,
                        f"importing private context internal "
                        f"{alias.name!r}; use the ProfileContext / "
                        f"phase() / stage() / span() / SpanCollector / "
                        f"fault-hook context managers instead")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        moved = _dispatch_stack_call(node)
        if name in _PRIVATE_CONTEXT_NAMES or (
                isinstance(node.func, ast.Name)
                and name in self._private_names):
            self.ctx.report(
                self.check, self.module.relpath, node.lineno,
                node.col_offset,
                f"direct access to the thread-local stack via {name}(); "
                f"only the module that owns it may touch it")
        elif moved is not None and not self._approved_depth:
            self.ctx.report(
                self.check, self.module.relpath, node.lineno,
                node.col_offset,
                f"DispatchState.{moved}() outside an __enter__/__exit__ "
                f"pair or @contextmanager; an unbalanced dispatch stack "
                f"re-routes every later op of the thread — wrap it in a "
                f"context manager")
        elif name in _HOOK_FUNCS and not self._approved_depth:
            self.ctx.report(
                self.check, self.module.relpath, node.lineno,
                node.col_offset,
                f"{name}() outside an __enter__/__exit__ pair or "
                f"@contextmanager; an unbalanced stack poisons every "
                f"later dispatch/span/observation — wrap it in a "
                f"context manager")
        self.generic_visit(node)

    def _check_targets(self, targets) -> None:
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and target.attr in _PHASE_ATTRS):
                self.ctx.report(
                    self.check, self.module.relpath, target.lineno,
                    target.col_offset,
                    f"direct assignment to {target.attr}; phase/stage "
                    f"labels must be scoped with T.phase()/T.stage() so "
                    f"they restore on exit")

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_targets([node.target])
        self.generic_visit(node)


@register_check
class ContextSafety(LintCheck):
    check_id = "RL005"
    name = "context-safety"
    description = ("dispatch-state/span/collector stacks are mutated "
                   "only through the approved context managers")
    severity = SEVERITY_ERROR

    def visit_module(self, module, ctx) -> None:
        if module.relpath.endswith(_CONTEXT_MODULES):
            return
        _ContextSafetyVisitor(self, module, ctx).visit(module.tree)

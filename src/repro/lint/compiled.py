"""RL108: compiled-executor soundness (``repro.compile`` path).

Replay's bit-exactness contract rests on two invariants that are easy
to erode one edit at a time:

1. **no raw-numpy bypass** — every kernel a replay runs must be the
   *instrumented closure* the dispatcher recorded the plan's event
   for.  A module on the compile path that calls numpy compute
   directly (the same :data:`repro.lint.checks._NUMPY_COMPUTE`
   surface RL001 polices in the workload zones) produces outputs
   whose FLOPs/bytes never reach the trace, silently breaking
   counter-digest equality with eager;
2. **no unclassified templates** — every replayed op name must map
   into the ``OP_CATEGORIES`` taxonomy.  The registry lookup
   (``category_for``) raises ``KeyError`` on unknown names; a
   ``try/except KeyError`` around it whose handler does not re-raise
   *swallows* the unknown template, and the plan would then replay an
   op the characterization tables cannot account for.

The check applies to any module whose path mentions ``compile`` —
the ``src/repro/compile`` zone itself plus seeded mutant fixtures
(``tests/fixtures/compile_mutants``) the CI gate lints explicitly.
"""

from __future__ import annotations

import ast

from repro.lint.checks import _NUMPY_COMPUTE, _NUMPY_COMPUTE_PREFIXES
from repro.lint.engine import LintContext, ModuleSource
from repro.lint.findings import SEVERITY_ERROR
from repro.lint.registry import LintCheck, register_check


def _on_compile_path(relpath: str) -> bool:
    return any("compile" in part for part in relpath.split("/"))


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise)
               for node in ast.walk(handler))


def _catches_keyerror(handler: ast.ExceptHandler) -> bool:
    """Does this handler catch ``KeyError`` (incl. bare ``except``)?"""
    exc = handler.type
    if exc is None:                              # bare except
        return True
    names = exc.elts if isinstance(exc, ast.Tuple) else [exc]
    for name in names:
        if isinstance(name, ast.Name) and name.id in ("KeyError",
                                                      "Exception",
                                                      "BaseException"):
            return True
    return False


def _calls_category_for(body: list) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else "")
            if name == "category_for":
                return True
    return False


class _CompiledVisitor(ast.NodeVisitor):
    def __init__(self, check: "CompiledExecutorSoundness",
                 module: ModuleSource, ctx: LintContext):
        self.check = check
        self.module = module
        self.ctx = ctx

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.module.resolve_call("numpy", node.func)
        if dotted is not None and (
                dotted in _NUMPY_COMPUTE
                or dotted.startswith(_NUMPY_COMPUTE_PREFIXES)):
            self.ctx.report(
                self.check, self.module.relpath, node.lineno,
                node.col_offset,
                f"raw numpy compute np.{dotted} on the compile path "
                f"bypasses the instrumented kernels; its FLOPs/bytes "
                f"never reach the trace, breaking replay's "
                f"counter-digest equality with eager")
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        if _calls_category_for(node.body):
            for handler in node.handlers:
                if (_catches_keyerror(handler)
                        and not _handler_reraises(handler)):
                    self.ctx.report(
                        self.check, self.module.relpath,
                        handler.lineno, handler.col_offset,
                        "except clause swallows the KeyError from "
                        "category_for(); an op template missing from "
                        "OP_CATEGORIES must abort replay "
                        "(re-raise a classified PlanError), not slip "
                        "into a trace the characterization tables "
                        "cannot account for")
        self.generic_visit(node)


@register_check
class CompiledExecutorSoundness(LintCheck):
    check_id = "RL108"
    name = "compiled-executor-soundness"
    description = ("compile-path modules must replay captured "
                   "instrumented kernels (no raw numpy compute) and "
                   "must not swallow unknown-template KeyErrors from "
                   "category_for")
    severity = SEVERITY_ERROR
    example = (
        "out = np.matmul(a, b)                # RL108: raw kernel\n"
        "try:\n"
        "    category_for(step.name)\n"
        "except KeyError:\n"
        "    pass                             # RL108: swallowed\n"
        "# fix: run the instrumented compute closure, and re-raise\n"
        "# unknown templates as PlanError\n")

    def visit_module(self, module: ModuleSource, ctx: LintContext) -> None:
        if not _on_compile_path(module.relpath):
            return
        _CompiledVisitor(self, module, ctx).visit(module.tree)

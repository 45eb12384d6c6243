"""RL106: serve-path spans must name their trace (no orphan spans).

The request-scoped tracing contract says every span opened on the
serving path is attributable to the trace that caused it.  A span
that names no ``trace_id`` inherits its parent's, so the root of a
serve-path tree must name one: a ``serve:*`` span opened without a
``trace_id=`` keyword is an *orphan* — it renders in the timeline but
can never be grouped under a request, which silently breaks waterfall
reports, tail sampling, and trace reconstruction across processes.

The check is syntactic and module-path independent: any call to a
function named ``span`` (or the conventional ``_span`` import alias)
whose first argument is a string literal — or an f-string with a
literal head — starting with ``serve:`` must pass ``trace_id=``.  The
synthesizer in ``serve/tracing.py`` is exempt: it *constructs*
``SpanRecord`` objects with explicit trace ids rather than opening
live spans.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.engine import LintContext, ModuleSource
from repro.lint.findings import SEVERITY_ERROR
from repro.lint.registry import LintCheck, register_check

#: function names that open a live span
_SPAN_FUNCS = {"span", "_span"}

#: the prefix marking a serving-path span name
_SERVE_PREFIX = "serve:"


def _call_func_name(func: ast.expr) -> Optional[str]:
    """Terminal name of a call target: ``obs.span`` -> ``span``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _literal_head(node: ast.expr) -> Optional[str]:
    """The literal string head of a span-name argument, if static."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


class _ServeSpanVisitor(ast.NodeVisitor):
    def __init__(self, check: "ServeSpanTrace", module: ModuleSource,
                 ctx: LintContext):
        self.check = check
        self.module = module
        self.ctx = ctx

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_func_name(node.func)
        if name in _SPAN_FUNCS and node.args:
            head = _literal_head(node.args[0])
            if head is not None and head.startswith(_SERVE_PREFIX):
                if not any(kw.arg == "trace_id" for kw in node.keywords):
                    self.ctx.report(
                        self.check, self.module.relpath, node.lineno,
                        node.col_offset,
                        f"serve-path span {head!r} opened without a "
                        f"trace id; pass trace_id=... so the span (and "
                        f"everything beneath it) is attributable to the "
                        f"request trace it serves")
        self.generic_visit(node)


@register_check
class ServeSpanTrace(LintCheck):
    check_id = "RL106"
    name = "serve-span-trace-id"
    description = ("spans opened on the serve request path must name "
                   "their trace (trace_id=...) — no orphan serve spans")
    severity = SEVERITY_ERROR
    example = (
        "with span('serve:batch', bid=batch.bid):   # RL106: orphan\n"
        "    run(batch)\n"
        "# fix:\n"
        "with span('serve:batch', trace_id=batch_trace_id(batch),\n"
        "          bid=batch.bid):\n"
        "    run(batch)\n")

    def visit_module(self, module: ModuleSource, ctx: LintContext) -> None:
        _ServeSpanVisitor(self, module, ctx).visit(module.tree)

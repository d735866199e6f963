"""SIM001 — event callbacks must not re-enter the simulator.

A callback firing inside :meth:`Simulator.run_until` that calls
``run_until``/``run_for``/``step`` again, or writes the clock, corrupts
the event loop (the engine also guards at runtime; this catches it
before a run).  Detection is intra-module: any function or lambda passed
to ``schedule_at``/``schedule_after``/``periodic``/``push`` is treated
as an event callback, and its body (plus same-named methods) is scanned
for re-entry and clock mutation.  Clock writes (``*._now_ns = ...``)
are additionally flagged *anywhere* outside the engine module itself.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules import LintRule, ModuleContext, register

_SCHEDULING_METHODS = {"schedule_at", "schedule_after", "periodic", "push"}
_REENTRY_METHODS = {"run_until", "run_for", "step"}
_CLOCK_ATTRS = {"_now_ns", "now_ns"}

#: The engine owns the clock; everything else only reads it.
_ENGINE_MODULES = {"repro.sim.engine"}


@register
class SimulatorReentryRule(LintRule):
    rule_id = "SIM001"
    title = "event callbacks must not re-enter the simulator or move the clock"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.module in _ENGINE_MODULES:
            return []
        callback_names = set()
        inline_callbacks: list[ast.Lambda] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr not in _SCHEDULING_METHODS:
                    continue
                keyword_callbacks = [
                    kw.value for kw in node.keywords if kw.arg == "callback"
                ]
                for candidate in [*node.args[1:], *keyword_callbacks]:
                    if isinstance(candidate, ast.Name):
                        callback_names.add(candidate.id)
                    elif isinstance(candidate, ast.Attribute):
                        callback_names.add(candidate.attr)
                    elif isinstance(candidate, ast.Lambda):
                        inline_callbacks.append(candidate)

        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            # Clock mutation is illegal everywhere, callback or not.
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr in _CLOCK_ATTRS:
                        findings.append(
                            ctx.finding(
                                target,
                                self.rule_id,
                                f"writes the simulation clock ({target.attr}); "
                                "only the engine advances time",
                            )
                        )
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in callback_names
            ):
                findings.extend(self._scan_callback(ctx, node, node.name))
        for lam in inline_callbacks:
            findings.extend(self._scan_callback(ctx, lam, "<lambda>"))
        return findings

    def _scan_callback(self, ctx: ModuleContext, func: ast.AST, name: str) -> list[Finding]:
        findings = []
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REENTRY_METHODS
            ):
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"event callback '{name}' re-enters the simulator via "
                        f".{node.func.attr}(); schedule follow-up events instead",
                    )
                )
        return findings

"""Rule plumbing: per-module context, rule base class, registry.

A rule is a class with a ``rule_id``, a one-line ``title`` and a
``check(ctx)`` method returning findings.  Rules are registered with the
:func:`register` decorator; the engine instantiates every registered
rule per run (rules may keep per-file scratch state).
"""

from __future__ import annotations

import ast
from typing import Iterable, Type

from repro.lint.findings import SEVERITY_ERROR, Finding


class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.module = module_name_for(path)

    def finding(
        self,
        node: ast.AST,
        rule: str,
        message: str,
        severity: str = SEVERITY_ERROR,
    ) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            severity=severity,
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for a file path.

    Files under a ``repro`` package directory map to their real dotted
    name (``.../src/repro/sim/engine.py`` -> ``repro.sim.engine``);
    anything else (tests, fixtures) maps to its stem.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        rel = parts[parts.index("repro") :]
        if rel[-1] == "__init__.py":
            rel = rel[:-1]
        elif rel[-1].endswith(".py"):
            rel[-1] = rel[-1][:-3]
        return ".".join(rel)
    stem = parts[-1]
    return stem[:-3] if stem.endswith(".py") else stem


class LintRule:
    """Base class for all static rules."""

    rule_id: str = "XXX000"
    title: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError  # EXC001: abstract-method contract


_REGISTRY: dict[str, Type[LintRule]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    _REGISTRY[cls.rule_id] = cls
    return cls


def rules_by_id() -> dict[str, Type[LintRule]]:
    """The registry (importing the rule modules populates it)."""
    _load_builtin_rules()
    return dict(_REGISTRY)


def all_rules(select: Iterable[str] | None = None) -> list[LintRule]:
    """Instantiate registered rules, optionally a subset by id."""
    registry = rules_by_id()
    if select is None:
        return [cls() for cls in registry.values()]
    unknown = [rule_id for rule_id in select if rule_id not in registry]
    if unknown:
        from repro.errors import LintError

        raise LintError(f"unknown lint rule(s): {', '.join(sorted(unknown))}")
    return [registry[rule_id]() for rule_id in select]


def _load_builtin_rules() -> None:
    # Imported lazily so `rules` itself stays import-cycle-free.
    from repro.lint import (  # noqa: F401
        rules_determinism,
        rules_exceptions,
        rules_obs,
        rules_sim,
        rules_units,
    )

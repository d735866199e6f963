"""Call resolution for the whole-program effects rules.

:class:`Resolver` pins a call expression in one module to a project
function or a project class.  OBS001 (:mod:`repro.lint.effects.guards`)
uses it to find the call sites of a helper.

Resolution keeps a zero-false-positive contract: a call it cannot pin
down resolves to ``None``, and the rules stay silent on it instead of
guessing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.program import FuncInfo, Program, _dotted_parts


@dataclass(frozen=True)
class Resolved:
    """Outcome of resolving one call expression."""

    kind: str  # "func" | "class"
    target: str  # project qname


class Resolver:
    """Best-effort call/name resolution against one module's namespace."""

    def __init__(self, program: Program, module) -> None:
        self.program = program
        self.module = module

    def local_class_types(self, func: FuncInfo) -> dict[str, str]:
        """Locals provably holding instances: ``x = ClassName(...)``."""
        types: dict[str, str] = {}
        for node in ast.walk(func.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Name) and isinstance(node.value, ast.Call)):
                continue
            resolved = self._resolve_callable(node.value.func, func, {})
            if resolved is not None and resolved.kind == "class":
                types[target.id] = resolved.target
            elif target.id in types:
                del types[target.id]
        return types

    def resolve_call(
        self, call: ast.Call, func: FuncInfo, local_types: dict[str, str]
    ) -> Resolved | None:
        return self._resolve_callable(call.func, func, local_types)

    def _resolve_callable(
        self, node: ast.expr, func: FuncInfo, local_types: dict[str, str]
    ) -> Resolved | None:
        program, module = self.program, self.module
        if isinstance(node, ast.Name):
            name = node.id
            if name in module.functions:
                target = module.functions[name]
                return Resolved("func", target.qname)
            if name in module.classes:
                return Resolved("class", module.classes[name].qname)
            if name in func.local_names:
                return None  # a local callable: opaque
            dotted = module.bindings.get(name)
            if dotted is not None:
                if dotted in program.functions:
                    return Resolved("func", dotted)
                if dotted in program.classes:
                    return Resolved("class", dotted)
            return None
        parts = _dotted_parts(node)
        if parts is None:
            return None
        head, rest = parts[0], parts[1:]
        if head == "self" and func.cls is not None and len(parts) == 2:
            method = program.method_of(func.cls.qname, parts[1])
            if method is not None:
                return Resolved("func", method.qname)
            return None
        if head in local_types and len(parts) == 2:
            method = program.method_of(local_types[head], parts[1])
            if method is not None:
                return Resolved("func", method.qname)
            return None
        if head in func.local_names:
            return None
        if head in module.classes and len(parts) == 2:
            method = program.method_of(module.classes[head].qname, parts[1])
            if method is not None:
                return Resolved("func", method.qname)
            return None
        base = module.bindings.get(head)
        if base is None:
            return None
        dotted = ".".join([base, *rest])
        if dotted in program.functions:
            return Resolved("func", dotted)
        if dotted in program.classes:
            return Resolved("class", dotted)
        if base in program.classes and len(rest) == 1:
            method = program.method_of(base, rest[0])
            if method is not None:
                return Resolved("func", method.qname)
        return None

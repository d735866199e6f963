"""Whole-program symbol table and call-graph substrate.

:func:`build_program` links every parsed module into one
:class:`Program`: functions and methods under stable qualified names,
classes with their base-class chains, and per-module import bindings.
:mod:`repro.lint.deep` builds it once; the effects and contracts
analyzers resolve names, calls and method lookups against it.

Resolution is deliberately best-effort: anything the linker cannot pin
down stays unresolved, and the analyzers treat it as unknown instead of
guessing — the zero-false-positive contract beats coverage.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.engine import ParsedModule
from repro.lint.rules import module_name_for


@dataclass
class Param:
    """One formal parameter."""

    name: str


@dataclass
class FuncInfo:
    """One function or method in the program."""

    qname: str
    module: "ModuleInfo"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[Param] = field(default_factory=list)
    cls: "ClassInfo | None" = None
    #: Names assigned anywhere in the body (plus params): the local scope.
    local_names: set[str] = field(default_factory=set)

    @property
    def path(self) -> str:
        return self.module.parsed.path


@dataclass
class ClassInfo:
    """One class: methods and resolved bases."""

    qname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)  # pre-link, raw
    bases: list[str] = field(default_factory=list)  # post-link, qnames
    methods: dict[str, FuncInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: bindings and definitions."""

    name: str
    parsed: ParsedModule
    #: local name -> dotted target ("repro.units.ms", "time", ...).
    bindings: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


@dataclass
class Program:
    """Every module linked together under qualified names."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    # --- lookups ----------------------------------------------------------

    def method_of(self, class_qname: str, name: str) -> FuncInfo | None:
        """Resolve a method through the (linked) base-class chain."""
        seen: set[str] = set()
        queue = [class_qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            cls = self.classes.get(qname)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            queue.extend(cls.bases)
        return None


def _collect_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[Param]:
    args = node.args
    return [Param(a.arg) for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


def _local_names(node: ast.AST, params: list[Param]) -> set[str]:
    """Every name bound in a function body (not descending into defs)."""
    names = {p.name for p in params}

    def visit(stmt_or_expr: ast.AST) -> None:
        for child in ast.iter_child_nodes(stmt_or_expr):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                names.add(child.id)
            elif isinstance(child, ast.alias):
                names.add(child.asname or child.name.split(".")[0])
            visit(child)

    visit(node)
    return names


def _module_bindings(module_name: str, tree: ast.Module) -> dict[str, str]:
    """Import bindings: local name -> dotted absolute target."""
    bindings: dict[str, str] = {}
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bindings[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the enclosing package.
                parts = module_name.split(".")
                if len(parts) >= node.level:
                    base_parts = parts[: len(parts) - node.level]
                else:
                    base_parts = []
                base = ".".join(base_parts)
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module or package
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                bindings[bound] = f"{target}.{alias.name}" if target else alias.name
    return bindings


def _build_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qname: str,
    module: ModuleInfo,
    cls: ClassInfo | None,
) -> FuncInfo:
    params = _collect_params(node)
    info = FuncInfo(
        qname=qname,
        module=module,
        node=node,
        params=params,
        cls=cls,
        local_names=_local_names(node, params),
    )
    return info


def _build_class(node: ast.ClassDef, qname: str, module: ModuleInfo) -> ClassInfo:
    cls = ClassInfo(qname=qname, name=node.name, module=module, node=node)
    for base in node.bases:
        if isinstance(base, ast.Name):
            cls.base_names.append(base.id)
        elif isinstance(base, ast.Attribute):
            parts = _dotted_parts(base)
            if parts:
                cls.base_names.append(".".join(parts))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method = _build_function(stmt, f"{qname}.{stmt.name}", module, cls)
            cls.methods[stmt.name] = method
    return cls


def _dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ["a","b","c"], or None for non-trivial chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def build_program(parsed_modules: list[ParsedModule]) -> Program:
    """Link every parsed module into one :class:`Program`."""
    program = Program()
    for parsed in parsed_modules:
        if parsed.ctx is None:
            continue
        name = module_name_for(parsed.path)
        module = ModuleInfo(name=name, parsed=parsed)
        tree = parsed.ctx.tree
        module.bindings = _module_bindings(name, tree)

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = _build_function(stmt, f"{name}.{stmt.name}", module, None)
                module.functions[stmt.name] = func
            elif isinstance(stmt, ast.ClassDef):
                cls = _build_class(stmt, f"{name}.{stmt.name}", module)
                module.classes[stmt.name] = cls
        program.modules[name] = module

    # Register global tables and link base classes.
    for module in program.modules.values():
        for func in module.functions.values():
            program.functions[func.qname] = func
        for cls in module.classes.values():
            program.classes[cls.qname] = cls
            for method in cls.methods.values():
                program.functions[method.qname] = method
    for module in program.modules.values():
        for cls in module.classes.values():
            for base_name in cls.base_names:
                resolved = _resolve_base(base_name, module, program)
                if resolved is not None:
                    cls.bases.append(resolved)
    return program


def _resolve_base(base_name: str, module: ModuleInfo, program: Program) -> str | None:
    """Best-effort qname of a base-class reference."""
    head = base_name.split(".")[0]
    rest = base_name.split(".")[1:]
    if not rest and head in module.classes:
        return module.classes[head].qname
    target = module.bindings.get(head)
    if target is None:
        return None
    dotted = ".".join([target, *rest])
    if dotted in program.classes:
        return dotted
    # `from x import C` style: the binding already points at the class.
    if not rest and target in program.classes:
        return target
    return None

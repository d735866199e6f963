"""Per-function effect summaries and the call-resolution substrate.

For every function in the linked :class:`~repro.lint.program.Program`
this module computes a :class:`EffectSummary`: the allocation sites the
body performs *directly* and its resolved project-internal call edges.

Resolution keeps a zero-false-positive contract: a call the linker
cannot pin down contributes no effect (it only bumps the
``unresolved_calls`` counter), so widening stays silent instead of
guessing.  The hot-path rules (:mod:`repro.lint.effects.hotpath`) walk
the direct sites plus the call edges themselves, so cold boundaries can
terminate propagation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.program import FuncInfo, Program, _build_function, _dotted_parts

#: Builtin calls that construct a fresh object per call.
BUILTIN_ALLOCATORS = {
    "list",
    "dict",
    "set",
    "tuple",
    "frozenset",
    "sorted",
    "str",
    "bytes",
    "bytearray",
    "format",
    "repr",
}

#: Unpacking assignments like ``a, b = x, y`` with few elements compile
#: to register rotations, not a tuple build — exempt from HOT001.
_PAIR_UNPACK_MAX = 3


@dataclass(frozen=True)
class AllocSite:
    """One direct allocation inside a function body."""

    line: int
    col: int
    kind: str  # human description: "tuple display", "list comprehension", ...


@dataclass(frozen=True)
class Resolved:
    """Outcome of resolving one call expression."""

    kind: str  # "func" | "class" | "external"
    target: str  # project qname or external dotted name
    func: FuncInfo | None = None


@dataclass
class CallEdge:
    """One resolved call from a function to another project function."""

    line: int
    col: int
    callee: str  # qname in Program.functions


@dataclass
class EffectSummary:
    """What one function body does directly: allocations and calls."""

    qname: str
    func: FuncInfo
    alloc_sites: list[AllocSite] = field(default_factory=list)
    calls: list[CallEdge] = field(default_factory=list)
    unresolved_calls: int = 0

    @property
    def allocates(self) -> bool:
        return bool(self.alloc_sites)


class Resolver:
    """Best-effort call/name resolution against one module's namespace."""

    def __init__(self, program: Program, module) -> None:
        self.program = program
        self.module = module

    def local_class_types(self, func: FuncInfo) -> dict[str, str]:
        """Locals provably holding instances: ``x = ClassName(...)``."""
        types: dict[str, str] = {}
        for node in ast.walk(_body_holder(func)):
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
                return Resolved("func", target.qname, target)
            if name in module.classes:
                return Resolved("class", module.classes[name].qname)
            if name in func.local_names:
                return None  # a local callable: opaque
            dotted = module.bindings.get(name)
            if dotted is not None:
                if dotted in program.functions:
                    return Resolved("func", dotted, program.functions[dotted])
                if dotted in program.classes:
                    return Resolved("class", dotted)
                return Resolved("external", dotted)
            return None
        parts = _dotted_parts(node)
        if parts is None:
            return None
        head, rest = parts[0], parts[1:]
        if head == "self" and func.cls is not None and len(parts) == 2:
            method = program.method_of(func.cls.qname, parts[1])
            if method is not None:
                return Resolved("func", method.qname, method)
            return None
        if head in local_types and len(parts) == 2:
            method = program.method_of(local_types[head], parts[1])
            if method is not None:
                return Resolved("func", method.qname, method)
            return None
        if head in func.local_names:
            return None
        if head in module.classes and len(parts) == 2:
            method = program.method_of(module.classes[head].qname, parts[1])
            if method is not None:
                return Resolved("func", method.qname, method)
            return None
        base = module.bindings.get(head)
        if base is None:
            return None
        dotted = ".".join([base, *rest])
        if dotted in program.functions:
            return Resolved("func", dotted, program.functions[dotted])
        if dotted in program.classes:
            return Resolved("class", dotted)
        if base in program.classes and len(rest) == 1:
            method = program.method_of(base, rest[0])
            if method is not None:
                return Resolved("func", method.qname, method)
        return Resolved("external", dotted)


def _body_holder(func: FuncInfo) -> ast.AST:
    if func.node is not None:
        return func.node
    return ast.Module(body=func.body, type_ignores=[])


def _exempt_nodes(body: list[ast.stmt]) -> set[int]:
    """ids of nodes inside ``raise``/``assert`` statements (error paths
    allocate freely — the exception itself already allocates)."""
    exempt: set[int] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Raise, ast.Assert)):
                for sub in ast.walk(node):
                    exempt.add(id(sub))
    return exempt


def _pair_unpack_values(body: list[ast.stmt]) -> set[int]:
    """ids of tuple displays on the RHS of small unpacking assignments."""
    values: set[int] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Tuple)
                and isinstance(node.value, ast.Tuple)
                and len(node.value.elts) <= _PAIR_UNPACK_MAX
            ):
                values.add(id(node.value))
    return values


_DISPLAY_KINDS = {
    ast.List: "list display",
    ast.Dict: "dict display",
    ast.Set: "set display",
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
    ast.GeneratorExp: "generator expression",
}


def summarize_function(
    func: FuncInfo, resolver: Resolver, program: Program
) -> EffectSummary:
    """Direct effects of one function body."""
    summary = EffectSummary(qname=func.qname, func=func)
    local_types = resolver.local_class_types(func)
    exempt = _exempt_nodes(func.body)
    pair_unpacks = _pair_unpack_values(func.body)

    def add_alloc(node: ast.AST, kind: str) -> None:
        if id(node) not in exempt:
            summary.alloc_sites.append(
                AllocSite(line=node.lineno, col=node.col_offset, kind=kind)
            )

    def handle_call(node: ast.Call) -> None:
        resolved = resolver.resolve_call(node, func, local_types)
        if resolved is None:
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in BUILTIN_ALLOCATORS:
                if fn.id not in func.local_names:
                    add_alloc(node, f"{fn.id}() call")
            elif (
                isinstance(fn, ast.Attribute)
                and fn.attr in ("format", "join")
                and isinstance(fn.value, (ast.Constant, ast.JoinedStr))
            ):
                add_alloc(node, f"str.{fn.attr}() on a constant")
            else:
                summary.unresolved_calls += 1
            return
        if resolved.kind == "class":
            cls_name = resolved.target.rsplit(".", 1)[-1]
            add_alloc(node, f"{cls_name}(...) construction")
            init = program.method_of(resolved.target, "__init__")
            if init is not None:
                summary.calls.append(
                    CallEdge(node.lineno, node.col_offset, init.qname)
                )
            return
        if resolved.kind == "func":
            summary.calls.append(
                CallEdge(node.lineno, node.col_offset, resolved.target)
            )

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_alloc(node, f"closure definition '{node.name}'")
            # The nested body runs only when called.
            return
        if isinstance(node, ast.Lambda):
            add_alloc(node, "lambda definition")
            return
        if isinstance(node, ast.Call):
            handle_call(node)
        elif type(node) in _DISPLAY_KINDS:
            if not (isinstance(node, ast.List) and not isinstance(node.ctx, ast.Load)):
                add_alloc(node, _DISPLAY_KINDS[type(node)])
        elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            if id(node) not in pair_unpacks:
                add_alloc(node, "tuple display")
        elif isinstance(node, ast.JoinedStr):
            add_alloc(node, "f-string formatting")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if isinstance(node.left, ast.Constant) and isinstance(
                node.left.value, str
            ):
                add_alloc(node, "%-string formatting")
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in func.body:
        visit(stmt)
    summary.alloc_sites.sort(key=lambda s: (s.line, s.col))
    summary.calls.sort(key=lambda e: (e.line, e.col))
    return summary


def region_func_info(program: Program, region) -> FuncInfo:
    """The FuncInfo for a hot region, building one for nested functions
    the program graph does not register (bench kernel callbacks)."""
    known = program.functions.get(region.qname)
    if known is not None:
        return known
    module = program.modules[region.module_name]
    cls = program.classes.get(region.cls_qname) if region.cls_qname else None
    return _build_function(region.node, region.qname, module, cls)


def summarize_program(program: Program) -> dict[str, EffectSummary]:
    """Effect summaries for every registered function."""
    summaries: dict[str, EffectSummary] = {}
    for module in program.modules.values():
        resolver = Resolver(program, module)
        for func in module.functions.values():
            summaries[func.qname] = summarize_function(func, resolver, program)
        for cls in module.classes.values():
            for method in cls.methods.values():
                summaries[method.qname] = summarize_function(
                    method, resolver, program
                )
    return summaries

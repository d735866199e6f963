"""PAR001: un-picklable or fork-unsafe values into task submission.

:mod:`repro.parallel` ships work to worker *processes*: the callable and
every argument cross the pickle boundary.  Lambdas and nested functions
do not pickle; open file handles and thread locks pickle or fork into
broken states.  This pass inspects every call that resolves to
``repro.parallel.pool.Task`` / ``run_tasks`` (plus direct
``ProcessPoolExecutor.submit`` style calls are out of scope — the pool
module owns that boundary) and checks the submitted callable and its
argument tuple, following simple local provenance (``f = open(...)``,
``lock = threading.Lock()``, ``with open(...) as f:``).

``functools.partial(fn, ...)`` is unwrapped one level so the common
"bind config into a module-level function" idiom is checked, not
blocked.
"""

from __future__ import annotations

import ast

from repro.lint.effects.resolver import Resolver
from repro.lint.findings import Finding
from repro.lint.program import Program, _dotted_parts

RULE_PAR_UNSAFE = "PAR001"

#: Resolved dotted names whose *result* must not cross the boundary.
_UNSAFE_FACTORIES = {
    "open": "an open file handle",
    "threading.Lock": "a threading lock",
    "threading.RLock": "a threading lock",
    "threading.Condition": "a threading condition",
    "threading.Semaphore": "a threading semaphore",
    "threading.Event": "a threading event",
    "multiprocessing.Lock": "a multiprocessing lock",
    "multiprocessing.RLock": "a multiprocessing lock",
}

#: Submission targets: (qname, fn position, args keyword).
_SUBMIT_TARGETS = {
    "repro.parallel.pool.Task": ("fn", "args"),
    "repro.parallel.Task": ("fn", "args"),
}


def _factory_kind(call: ast.Call, resolver: Resolver, func, local_types) -> str | None:
    """What unsafe thing ``call`` constructs, if any."""
    fn = call.func
    if isinstance(fn, ast.Name) and fn.id == "open":
        if fn.id not in func.local_names:
            return _UNSAFE_FACTORIES["open"]
    parts = _dotted_parts(fn) if not isinstance(fn, ast.Name) else [fn.id]
    if parts is not None:
        resolved = resolver.resolve_call(call, func, local_types)
        if resolved is not None and resolved.kind == "external":
            return _UNSAFE_FACTORIES.get(resolved.target)
    return None


class _Provenance:
    """Local name -> unsafe-kind map from straight-line assignments."""

    def __init__(self, func, resolver: Resolver, local_types) -> None:
        self.kinds: dict[str, str] = {}
        self.local_defs: set[str] = set()
        holder = func.node if func.node is not None else None
        nodes = ast.walk(holder) if holder is not None else iter(())
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not holder:
                    self.local_defs.add(node.name)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if isinstance(node.value, ast.Call):
                        kind = _factory_kind(
                            node.value, resolver, func, local_types
                        )
                        if kind is not None:
                            self.kinds[target.id] = kind
                            continue
                    if isinstance(node.value, ast.Lambda):
                        self.kinds[target.id] = "a lambda"
                        continue
                    self.kinds.pop(target.id, None)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and isinstance(item.context_expr, ast.Call)
                    ):
                        kind = _factory_kind(
                            item.context_expr, resolver, func, local_types
                        )
                        if kind is not None:
                            self.kinds[item.optional_vars.id] = kind


def _check_value(
    node: ast.expr,
    prov: _Provenance,
    resolver: Resolver,
    func,
    local_types,
    role: str,
) -> str | None:
    """Why ``node`` must not cross the process boundary, or None."""
    if isinstance(node, ast.Lambda):
        return f"a lambda as the {role} does not pickle"
    if isinstance(node, ast.GeneratorExp):
        return f"a generator expression as the {role} does not pickle"
    if isinstance(node, ast.Name):
        if node.id in prov.local_defs:
            return (
                f"nested function '{node.id}' as the {role} does not pickle "
                "(move it to module level)"
            )
        kind = prov.kinds.get(node.id)
        if kind is not None:
            return f"{kind} ('{node.id}') as the {role} is fork-unsafe"
        return None
    if isinstance(node, ast.Call):
        kind = _factory_kind(node, resolver, func, local_types)
        if kind is not None:
            return f"{kind} as the {role} is fork-unsafe"
    return None


def _submission_payload(
    call: ast.Call, resolver: Resolver, func, local_types
) -> tuple[ast.expr | None, list[ast.expr]] | None:
    """(fn expr, arg exprs) when ``call`` submits work, else None."""
    resolved = resolver.resolve_call(call, func, local_types)
    if resolved is None:
        return None
    # "class" when repro.parallel.pool is in the analyzed set, "external"
    # when a program merely imports it (fixtures, downstream users).
    if resolved.kind in ("class", "external") and resolved.target in _SUBMIT_TARGETS:
        fn_kw, args_kw = _SUBMIT_TARGETS[resolved.target]
        fn_expr: ast.expr | None = None
        arg_exprs: list[ast.expr] = []
        positional = list(call.args)
        if len(positional) >= 2:
            fn_expr = positional[1]  # Task(name, fn, args)
        if len(positional) >= 3:
            arg_exprs.append(positional[2])
        for kw in call.keywords:
            if kw.arg == fn_kw:
                fn_expr = kw.value
            elif kw.arg == args_kw:
                arg_exprs.append(kw.value)
        flat: list[ast.expr] = []
        for expr in arg_exprs:
            if isinstance(expr, (ast.Tuple, ast.List)):
                flat.extend(expr.elts)
            else:
                flat.append(expr)
        return fn_expr, flat
    return None


def _unwrap_partial(
    fn_expr: ast.expr, resolver: Resolver, func, local_types
) -> tuple[ast.expr, list[ast.expr]]:
    """``functools.partial(g, a, b)`` -> (g, [a, b]); otherwise identity."""
    if isinstance(fn_expr, ast.Call):
        resolved = resolver.resolve_call(fn_expr, func, local_types)
        if (
            resolved is not None
            and resolved.kind == "external"
            and resolved.target == "functools.partial"
            and fn_expr.args
        ):
            return fn_expr.args[0], list(fn_expr.args[1:])
    return fn_expr, []


def check_submissions(program: Program) -> list[Finding]:
    """PAR001 findings across every function in the program."""
    findings: list[Finding] = []
    for module in program.modules.values():
        resolver = Resolver(program, module)
        funcs = list(module.functions.values())
        for cls in module.classes.values():
            funcs.extend(cls.methods.values())
        if module.body is not None:
            funcs.append(module.body)
        for func in funcs:
            local_types = resolver.local_class_types(func)
            prov = _Provenance(func, resolver, local_types)
            holder = func.node
            nodes = (
                ast.walk(holder)
                if holder is not None
                else (n for stmt in func.body for n in ast.walk(stmt))
            )
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                payload = _submission_payload(node, resolver, func, local_types)
                if payload is None:
                    continue
                fn_expr, arg_exprs = payload
                checks: list[tuple[ast.expr, str]] = []
                if fn_expr is not None:
                    inner, bound = _unwrap_partial(
                        fn_expr, resolver, func, local_types
                    )
                    checks.append((inner, "task callable"))
                    checks.extend((b, "bound partial argument") for b in bound)
                checks.extend((a, "task argument") for a in arg_exprs)
                for expr, role in checks:
                    why = _check_value(
                        expr, prov, resolver, func, local_types, role
                    )
                    if why is not None:
                        findings.append(
                            Finding(
                                path=func.path,
                                line=expr.lineno,
                                col=expr.col_offset,
                                rule=RULE_PAR_UNSAFE,
                                message=(
                                    f"fork-unsafe task submission: {why}; "
                                    "values crossing repro.parallel must "
                                    "be picklable module-level objects"
                                ),
                            )
                        )
    return findings

"""OBS001: every obs use must sit behind the single ``is None`` guard.

The instrumentation contract is that the uninstrumented path pays
exactly one identity check: ``self._obs`` is either ``None`` or an
attached bundle, and every metrics/tracer touch (``self._obs``,
``self._obs_dispatched``, ...) happens only where that check has already
proven the bundle attached.  This pass machine-checks the contract with
a straight-line dominance walk per function:

* a ``Compare(X._obs, Is/IsNot, None)`` condition splits the state of
  the base expression into null / non-null branches (``and`` chains and
  ``not`` supported; a terminating null branch — ``return``/``raise`` —
  promotes the rest of the function to non-null);
* loads of ``X._obs`` members (``.tracer`` etc.) or of ``X._obs_*``
  attributes outside a non-null region are violations;
* a method whose *only* unguarded uses hang off ``self`` is excused when
  every resolved call site in the program sits inside a caller's
  non-null region (a metering helper that only guarded code calls) —
  but only if at least one call site resolves;
* uses inside the *null* branch are always violations (the guard proves
  the bundle absent there).

Assignments are tracked: ``X._obs = None`` forces null, a non-None
constant forces non-null, anything else resets to unknown.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field

from repro.lint.effects.resolver import Resolver
from repro.lint.findings import Finding
from repro.lint.program import FuncInfo, Program

RULE_OBS_GUARD = "OBS001"

_NULL = "null"
_NONNULL = "nonnull"
_UNKNOWN = "unknown"


def _render(node: ast.expr) -> str | None:
    """Stable text for a simple base expression (``self._obs`` etc.)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _obs_root(node: ast.Attribute) -> tuple[str, str] | None:
    """(guard render, base render) when ``node`` is an obs use.

    ``self._obs.tracer`` and ``self._obs_dispatched`` both guard on
    ``self._obs``; the base render ("self") identifies the receiver for
    the caller-guarded excusal.
    """
    if node.attr == "_obs" or node.attr.startswith("_obs_"):
        base = _render(node.value)
        if base is None:
            return None
        return (f"{base}._obs", base)
    return None


@dataclass
class _Use:
    node: ast.Attribute
    guard: str  # render of the X._obs expression that must be non-null
    base: str  # render of the receiver (for self-rooted excusal)
    anti: bool  # inside the proven-null branch


@dataclass
class _FuncResult:
    func: FuncInfo
    unguarded: list[_Use] = field(default_factory=list)
    #: callee qname -> [True if the call site sat in a non-null region
    #: of the *callee receiver's* guard]
    call_guard_states: dict[str, list[bool]] = field(default_factory=dict)


def _guard_from_condition(cond: ast.expr) -> dict[str, tuple[str, str]]:
    """guard render -> (state in then-branch, state in else-branch)."""
    out: dict[str, tuple[str, str]] = {}
    if isinstance(cond, ast.Compare) and len(cond.ops) == 1:
        if isinstance(cond.left, ast.Attribute) and cond.left.attr == "_obs":
            render = _render(cond.left)
            comparator = cond.comparators[0]
            if render is not None and (
                isinstance(comparator, ast.Constant) and comparator.value is None
            ):
                if isinstance(cond.ops[0], ast.Is):
                    out[render] = (_NULL, _NONNULL)
                elif isinstance(cond.ops[0], ast.IsNot):
                    out[render] = (_NONNULL, _NULL)
    elif isinstance(cond, ast.UnaryOp) and isinstance(cond.op, ast.Not):
        for render, (then, other) in _guard_from_condition(cond.operand).items():
            out[render] = (other, then)
    elif isinstance(cond, ast.BoolOp) and isinstance(cond.op, ast.And):
        # `a._obs is not None and ...`: the then-branch has every
        # operand's then-state; the else-branch proves nothing.
        for value in cond.values:
            for render, (then, _) in _guard_from_condition(value).items():
                out[render] = (then, _UNKNOWN)
    return out


def _terminates(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class _GuardWalker:
    """Statement-ordered walk of one function tracking guard states."""

    def __init__(self, func: FuncInfo, resolver: Resolver, program: Program):
        self.func = func
        self.resolver = resolver
        self.program = program
        self.result = _FuncResult(func)
        self.local_types = resolver.local_class_types(func)

    def run(self) -> _FuncResult:
        self._walk_body(self.func.node.body, {})
        return self.result

    # -- expression side ---------------------------------------------------

    def _scan_expr(self, node: ast.expr | None, env: dict[str, str]) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                root = _obs_root(sub)
                if root is None:
                    continue
                guard, base = root
                state = env.get(guard, _UNKNOWN)
                # A bare `X._obs` load is only a use when dereferenced
                # (`X._obs.tracer`); the deref is the *parent* attribute,
                # which also matches `_obs_root` via its `.value` — so a
                # lone `self._obs` comparison never lands here with
                # attr == "_obs" dereferenced.  Guard comparisons are
                # stripped by the caller before scanning.
                if state == _NULL:
                    self.result.unguarded.append(_Use(sub, guard, base, True))
                elif state != _NONNULL:
                    self.result.unguarded.append(_Use(sub, guard, base, False))
            elif isinstance(sub, ast.Call):
                self._record_call_state(sub, env)

    def _record_call_state(self, call: ast.Call, env: dict[str, str]) -> None:
        resolved = self.resolver.resolve_call(call, self.func, self.local_types)
        if resolved is None or resolved.kind != "func":
            return
        receiver = None
        if isinstance(call.func, ast.Attribute):
            receiver = _render(call.func.value)
        if receiver is None:
            return
        state = env.get(f"{receiver}._obs", _UNKNOWN)
        self.result.call_guard_states.setdefault(resolved.target, []).append(
            state == _NONNULL
        )

    def _strip_guard_compares(self, node: ast.expr) -> ast.expr:
        """Replace `X._obs is None` compares with a constant so the obs
        attribute inside the guard itself is not counted as a use."""
        class _Strip(ast.NodeTransformer):
            def visit_Compare(self, cmp: ast.Compare):  # noqa: N802
                if (
                    len(cmp.ops) == 1
                    and isinstance(cmp.left, ast.Attribute)
                    and cmp.left.attr == "_obs"
                    and isinstance(cmp.comparators[0], ast.Constant)
                    and cmp.comparators[0].value is None
                    and isinstance(cmp.ops[0], (ast.Is, ast.IsNot))
                ):
                    return ast.copy_location(ast.Constant(value=True), cmp)
                return self.generic_visit(cmp)

        return _Strip().visit(copy.deepcopy(node))

    # -- statement side ----------------------------------------------------

    def _walk_body(self, body: list[ast.stmt], env: dict[str, str]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, env)

    def _walk_stmt(self, stmt: ast.stmt, env: dict[str, str]) -> None:
        if isinstance(stmt, ast.If):
            branch_states = _guard_from_condition(stmt.test)
            self._scan_expr(self._strip_guard_compares(stmt.test), env)
            then_env = dict(env)
            else_env = dict(env)
            for render, (then, other) in branch_states.items():
                then_env[render] = then
                else_env[render] = other
            self._walk_body(stmt.body, then_env)
            self._walk_body(stmt.orelse, else_env)
            if _terminates(stmt.body) and not stmt.orelse:
                # `if X._obs is None: return` promotes the fall-through.
                env.update(else_env)
            elif _terminates(stmt.orelse) and not _terminates(stmt.body):
                env.update(then_env)
            else:
                for render in branch_states:
                    env[render] = _UNKNOWN
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, env)
            self._invalidate_assigned(stmt, env)
            self._walk_body(stmt.body, env)
            self._walk_body(stmt.orelse, env)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(self._strip_guard_compares(stmt.test), env)
            self._invalidate_assigned(stmt, env)
            self._walk_body(stmt.body, env)
            self._walk_body(stmt.orelse, env)
            return
        if isinstance(stmt, (ast.Try,)):
            self._walk_body(stmt.body, env)
            for handler in stmt.handlers:
                self._walk_body(handler.body, dict(env))
            self._walk_body(stmt.orelse, env)
            self._walk_body(stmt.finalbody, env)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, env)
            self._walk_body(stmt.body, env)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes get their own walk (if registered)
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, env)
            for target in stmt.targets:
                self._apply_assign(target, stmt.value, env)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, env)
            self._scan_expr(stmt.target, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            self._scan_expr(stmt.value, env)
            if stmt.value is not None:
                self._apply_assign(stmt.target, stmt.value, env)
            return
        if isinstance(stmt, (ast.Return, ast.Expr)):
            self._scan_expr(stmt.value, env)
            return
        if isinstance(stmt, (ast.Raise,)):
            self._scan_expr(stmt.exc, env)
            self._scan_expr(stmt.cause, env)
            return
        if isinstance(stmt, (ast.Assert,)):
            self._scan_expr(self._strip_guard_compares(stmt.test), env)
            self._scan_expr(stmt.msg, env)
            return
        if isinstance(stmt, ast.Delete):
            return
        # Fallback: scan any expressions hanging off the statement.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, env)

    def _apply_assign(
        self, target: ast.expr, value: ast.expr, env: dict[str, str]
    ) -> None:
        render = _render(target) if isinstance(target, ast.Attribute) else None
        if render is None or not render.endswith("._obs"):
            return
        if isinstance(value, ast.Constant) and value.value is None:
            env[render] = _NULL
        elif isinstance(value, ast.Constant):
            env[render] = _NONNULL
        else:
            env[render] = _UNKNOWN

    def _invalidate_assigned(self, loop: ast.stmt, env: dict[str, str]) -> None:
        """Drop guard states the loop body may rewrite."""
        for node in ast.walk(loop):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        render = _render(target)
                        if render is not None and render in env:
                            del env[render]


def check_guards(program: Program) -> list[Finding]:
    """OBS001 findings for every registered function in the program."""
    results: dict[str, _FuncResult] = {}
    #: callee qname -> accumulated guard states across every caller.
    call_states: dict[str, list[bool]] = {}
    for module in program.modules.values():
        resolver = Resolver(program, module)
        funcs = list(module.functions.values())
        for cls in module.classes.values():
            funcs.extend(cls.methods.values())
        for func in funcs:
            result = _GuardWalker(func, resolver, program).run()
            results[func.qname] = result
            for callee, states in result.call_guard_states.items():
                call_states.setdefault(callee, []).extend(states)

    findings: list[Finding] = []
    for qname, result in results.items():
        if not result.unguarded:
            continue
        self_param = result.func.params[0].name if result.func.params else None
        callers = call_states.get(qname, [])
        caller_guarded = bool(callers) and all(callers)
        for use in result.unguarded:
            if use.anti:
                reason = (
                    f"'{use.guard}' is proven None on this branch; the obs "
                    "bundle cannot be attached here"
                )
            elif (
                caller_guarded
                and self_param is not None
                and use.base.split(".")[0] == self_param
            ):
                continue  # every resolved call site is inside a guard
            else:
                reason = (
                    f"not dominated by an '{use.guard} is None' guard; the "
                    "disabled path must pay exactly one identity check"
                )
            findings.append(
                Finding(
                    path=result.func.path,
                    line=use.node.lineno,
                    col=use.node.col_offset,
                    rule=RULE_OBS_GUARD,
                    message=f"obs use '{_render(use.node)}' {reason}",
                )
            )
    return findings

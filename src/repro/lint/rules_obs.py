"""OBS001: every obs use must sit behind the single ``is None`` guard.

The instrumentation contract is that the uninstrumented path pays
exactly one identity check: ``self._obs`` is either ``None`` or an
attached bundle, and every metrics/tracer touch (``self._obs``,
``self._obs_dispatched``, ...) happens only where that check has already
proven the bundle attached.  This rule machine-checks the contract with
a straight-line dominance walk over each module-level function and each
method of a module-level class:

* a ``Compare(X._obs, Is/IsNot, None)`` condition splits the state of
  the base expression into null / non-null branches (``and`` chains and
  ``not`` supported; a terminating null branch — ``return``/``raise`` —
  promotes the rest of the function to non-null);
* loads of ``X._obs`` members (``.tracer`` etc.) or of ``X._obs_*``
  attributes outside a non-null region are violations;
* uses inside the *null* branch are always violations (the guard proves
  the bundle absent there).

Assignments are tracked: ``X._obs = None`` forces null, a non-None
constant forces non-null, anything else resets to unknown.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.rules import LintRule, ModuleContext, register

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


def _obs_guard(node: ast.Attribute) -> str | None:
    """The ``X._obs`` guard render when ``node`` is an obs use.

    ``self._obs.tracer`` and ``self._obs_dispatched`` both guard on
    ``self._obs``.
    """
    if node.attr == "_obs" or node.attr.startswith("_obs_"):
        base = _render(node.value)
        if base is not None:
            return f"{base}._obs"
    return None


@dataclass
class _Use:
    node: ast.Attribute
    guard: str  # render of the X._obs expression that must be non-null
    anti: bool  # inside the proven-null branch


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

    def __init__(self) -> None:
        self.unguarded: list[_Use] = []

    def run(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[_Use]:
        self._walk_body(func.body, {})
        return self.unguarded

    # -- expression side ---------------------------------------------------

    def _scan_expr(self, node: ast.expr | None, env: dict[str, str]) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                guard = _obs_guard(sub)
                if guard is None:
                    continue
                state = env.get(guard, _UNKNOWN)
                # A bare `X._obs` load is only a use when dereferenced
                # (`X._obs.tracer`); the deref is the *parent* attribute,
                # which also matches `_obs_guard` via its `.value` — so a
                # lone `self._obs` comparison never lands here with
                # attr == "_obs" dereferenced.  Guard comparisons are
                # stripped by the caller before scanning.
                if state == _NULL:
                    self.unguarded.append(_Use(sub, guard, True))
                elif state != _NONNULL:
                    self.unguarded.append(_Use(sub, guard, False))

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
            return  # nested scopes are not walked
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


def _functions(
    tree: ast.Module,
) -> Iterable[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Module-level functions and the methods of module-level classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for stmt in tree.body:
        if isinstance(stmt, funcs):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from (node for node in stmt.body if isinstance(node, funcs))


@register
class ObsGuardRule(LintRule):
    rule_id = "OBS001"
    title = "obs use not dominated by the 'is None' guard"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if "_obs" not in ctx.source:
            return []  # most modules: every obs use names `_obs` literally
        findings: list[Finding] = []
        for func in _functions(ctx.tree):
            for use in _GuardWalker().run(func):
                if use.anti:
                    reason = (
                        f"'{use.guard}' is proven None on this branch; the obs "
                        "bundle cannot be attached here"
                    )
                else:
                    reason = (
                        f"not dominated by an '{use.guard} is None' guard; the "
                        "disabled path must pay exactly one identity check"
                    )
                findings.append(
                    ctx.finding(
                        use.node,
                        self.rule_id,
                        f"obs use '{_render(use.node)}' {reason}",
                    )
                )
        return findings

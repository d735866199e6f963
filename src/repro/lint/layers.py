"""Import-boundary rule (CON010).

The manifest (``lint.json``) declares a layer DAG: ``assign`` maps layer
names to module-name prefixes, ``allow`` maps each layer to the layers
it may import *at module scope*.  A module-level import from an assigned layer
into a layer outside its allow list is CON010 (error): it is exactly the
coupling that would make a second architecture model (ROADMAP item 4)
drag the bench/obs/lint stack along with it.

Deliberate escape hatches, matching the tree's established idiom:

* imports inside a function body are lazy and exempt — the documented
  way for a low layer to reach optional high-layer machinery;
* ``if TYPE_CHECKING:`` blocks are annotation-only and exempt;
* modules not matched by any ``assign`` prefix are unconstrained.

The check reads one module at a time, so the engine runs it beside
the registered rules; it takes the manifest, which a registered rule
does not.  Manifest-health findings ride under the same rule id: an
``allow`` graph cycle (the DAG must be a DAG) and an ``assign`` prefix
matching no linted module (a rename must not silently drop
enforcement).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.findings import Finding
from repro.lint.manifest import Manifest
from repro.lint.rules import ModuleContext

RULE_LAYER = "CON010"


def _imported_modules(
    stmt: ast.stmt, module_name: str, is_package: bool
) -> list[str]:
    """Dotted module names a single import statement binds."""
    if isinstance(stmt, ast.Import):
        return [alias.name for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        if stmt.level:
            # Relative import: "from . import x" (level 1) resolves
            # against the importing module's package, ".." one up, etc.
            # A package's own name *is* its package, so __init__ files
            # drop one level fewer.
            drop = stmt.level - (1 if is_package else 0)
            parts = module_name.split(".")
            parts = parts[: len(parts) - drop] if drop else parts
            prefix = ".".join(parts + ([stmt.module] if stmt.module else []))
            return [prefix] if prefix else []
        return [stmt.module] if stmt.module else []
    return []


def _is_type_checking_guard(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (
        isinstance(test, ast.Attribute)
        and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(
    tree: ast.Module, module_name: str, is_package: bool
) -> list[tuple[ast.stmt, str]]:
    """(statement, imported dotted name) pairs at module scope.

    Recurses into module-level ``if``/``try`` bodies (conditional imports
    are still imports at module scope) but skips ``if TYPE_CHECKING:``.
    """
    out: list[tuple[ast.stmt, str]] = []

    def walk(body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for name in _imported_modules(stmt, module_name, is_package):
                    out.append((stmt, name))
            elif isinstance(stmt, ast.If):
                if not _is_type_checking_guard(stmt.test):
                    walk(stmt.body)
                walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body)
                for handler in stmt.handlers:
                    walk(handler.body)
                walk(stmt.orelse)
                walk(stmt.finalbody)

    walk(tree.body)
    return out


def layer_findings(ctx: ModuleContext, manifest: Manifest) -> list[Finding]:
    """CON010 findings for one module's module-scope imports."""
    layers = manifest.layers
    src_layer = layers.layer_of(ctx.module)
    if src_layer is None:
        return []
    allowed = set(layers.allow.get(src_layer, ())) | {src_layer}
    is_package = ctx.path.replace("\\", "/").endswith("/__init__.py")
    findings: list[Finding] = []
    for stmt, target in _module_level_imports(ctx.tree, ctx.module, is_package):
        dst_layer = layers.layer_of(target)
        if dst_layer is None or dst_layer in allowed:
            continue
        findings.append(
            ctx.finding(
                stmt,
                RULE_LAYER,
                f"layer boundary violation: {ctx.module} (layer "
                f"'{src_layer}') imports {target} (layer "
                f"'{dst_layer}') at module scope; layer "
                f"'{src_layer}' may import only "
                f"{sorted(allowed - {src_layer}) or 'nothing'} — "
                "move the import inside the function that needs it "
                "or change the declared DAG",
            )
        )
    return findings


def manifest_findings(
    manifest: Manifest, module_names: Iterable[str]
) -> list[Finding]:
    """CON010 manifest health: an ``allow`` cycle, and every ``assign``
    prefix that matches none of ``module_names``."""
    layers = manifest.layers
    messages: list[str] = []
    cycle = layers.cycle()
    if cycle is not None:
        messages.append(
            "layer manifest health: allow graph has a cycle "
            f"({' -> '.join(cycle)}); the layer graph must be a DAG"
        )
    names = set(module_names)
    for layer, prefixes in sorted(layers.assign.items()):
        for prefix in prefixes:
            if not any(
                name == prefix or name.startswith(prefix + ".") for name in names
            ):
                messages.append(
                    f"layer manifest health: assign prefix {prefix!r} (layer "
                    f"'{layer}') matches no linted module; fix the prefix or "
                    "drop it"
                )
    return [
        Finding(path=manifest.label, line=1, col=1, rule=RULE_LAYER, message=m)
        for m in messages
    ]

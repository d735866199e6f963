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

Manifest-health findings ride under the same rule id: an ``allow``
graph cycle (the DAG must be a DAG) and an ``assign`` prefix matching
no analyzed module (a rename must not silently drop enforcement).
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.manifest import Manifest
from repro.lint.program import Program

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


def check_layers(program: Program, manifest: Manifest) -> list[Finding]:
    """CON010 findings over every analyzed module."""
    layers = manifest.layers
    if not layers.assign:
        return []
    findings: list[Finding] = []
    manifest_path = manifest.label

    cycle = layers.cycle()
    if cycle is not None:
        findings.append(
            Finding(
                path=manifest_path,
                line=1,
                col=0,
                rule=RULE_LAYER,
                message=(
                    "layer manifest health: allow graph has a cycle "
                    f"({' -> '.join(cycle)}); the layer graph must be a DAG"
                ),
            )
        )

    matched_prefixes: set[str] = set()
    for mod in program.modules.values():
        for prefixes in layers.assign.values():
            for prefix in prefixes:
                if mod.name == prefix or mod.name.startswith(prefix + "."):
                    matched_prefixes.add(prefix)

    for mod in sorted(program.modules.values(), key=lambda m: m.name):
        src_layer = layers.layer_of(mod.name)
        if src_layer is None or mod.parsed.ctx is None:
            continue
        allowed = set(layers.allow.get(src_layer, ())) | {src_layer}
        is_package = mod.parsed.path.replace("\\", "/").endswith("/__init__.py")
        imports = _module_level_imports(mod.parsed.ctx.tree, mod.name, is_package)
        for stmt, target in imports:
            dst_layer = layers.layer_of(target)
            if dst_layer is None or dst_layer in allowed:
                continue
            findings.append(
                Finding(
                    path=mod.parsed.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    rule=RULE_LAYER,
                    message=(
                        f"layer boundary violation: {mod.name} (layer "
                        f"'{src_layer}') imports {target} (layer "
                        f"'{dst_layer}') at module scope; layer "
                        f"'{src_layer}' may import only "
                        f"{sorted(allowed - {src_layer}) or 'nothing'} — "
                        "move the import inside the function that needs it "
                        "or change the declared DAG"
                    ),
                )
            )

    for layer, prefixes in sorted(layers.assign.items()):
        for prefix in prefixes:
            if prefix not in matched_prefixes:
                findings.append(
                    Finding(
                        path=manifest_path,
                        line=1,
                        col=0,
                        rule=RULE_LAYER,
                        message=(
                            f"layer manifest health: assign prefix "
                            f"{prefix!r} (layer '{layer}') matches no "
                            "analyzed module; fix the prefix or drop it"
                        ),
                    )
                )
    return findings

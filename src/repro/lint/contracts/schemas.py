"""Schema-registry rules (CON020/CON021).

The tree's JSON interchange formats are schema-versioned: every emitted
document carries ``"schema": "repro.X/Y"`` and ``"schema_version": N``,
and every family has a validator that rejects foreign or stale
documents.  This module extracts that registry *statically*:

* a **writer** is a dict display with a ``"schema"`` key whose value
  resolves (through constants and import bindings, including the
  function-local lazy-import idiom) to a schema id string; its emitted
  field set is the dict's top-level constant keys;
* a **validator** is a comparison whose one operand is literally
  ``doc.get("schema")`` or ``doc["schema"]`` and whose other operand
  resolves to a schema id string.  Indirect compares through a local
  variable (the ``validate_document`` dispatcher idiom) deliberately do
  not count — a dispatcher is routing, not validation.

CON020 (error) holds the extracted registry against the committed
snapshot, the ``schemas`` section of ``lint.json``:

* a schema id in the tree with no snapshot entry (or vice versa);
* more or fewer than exactly one writer / one validator per schema;
* a writer whose emitted field set changed while ``schema_version``
  did not — silent format drift, the exact failure mode the runtime
  validators cannot catch until a stale artifact is re-read;
* a version bump the snapshot has not caught up with (run
  ``--update-schema-registry``).

CON021 (warning): a validator no test file ever names — dead armor.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.lint.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.lint.flow.graph import MODULE_BODY, FuncInfo, ModuleInfo, Program
from repro.lint.manifest import Manifest

RULE_REGISTRY = "CON020"
RULE_DEAD_VALIDATOR = "CON021"

#: Shape a string constant must have to count as a schema id.
_SCHEMA_PREFIX = "repro."


def _is_schema_id(value: object) -> bool:
    return (
        isinstance(value, str)
        and value.startswith(_SCHEMA_PREFIX)
        and "/" in value
    )


@dataclass
class WriterSite:
    """One dict display emitting a schema-tagged document."""

    schema: str
    qname: str  # enclosing function (or module body)
    path: str
    line: int
    col: int
    fields: tuple[str, ...]
    version: int | None


@dataclass
class ValidatorSite:
    """One ``doc.get("schema") == <id>`` comparison."""

    schema: str
    qname: str
    name: str  # bare function name, for test-reachability grep
    path: str
    line: int
    col: int


@dataclass
class ExtractedRegistry:
    """Everything the pass learned about schema families in the tree."""

    writers: dict[str, list[WriterSite]] = field(default_factory=dict)
    validators: dict[str, list[ValidatorSite]] = field(default_factory=dict)

    def schemas(self) -> set[str]:
        return set(self.writers) | set(self.validators)


# --------------------------------------------------------------------------
# Constant / binding resolution


def _module_constants(module: ModuleInfo) -> dict[str, object]:
    """Module-level ``NAME = <str|int>`` constants, by bare name."""
    consts: dict[str, object] = {}
    if module.parsed.ctx is None:
        return consts
    for stmt in module.parsed.ctx.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if not (
            isinstance(value, ast.Constant)
            and isinstance(value.value, (str, int))
            and not isinstance(value.value, bool)
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                consts[target.id] = value.value
    return consts


def _local_import_bindings(func: FuncInfo) -> dict[str, str]:
    """name -> dotted target for imports inside the function body."""
    bindings: dict[str, str] = {}
    holder: ast.AST
    if func.node is not None:
        holder = func.node
    else:
        holder = ast.Module(body=func.body, type_ignores=[])
    for node in ast.walk(holder):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name] = alias.name
    return bindings


class _ConstResolver:
    """Resolve a Name/Attribute/Constant expression to a constant value."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._consts: dict[str, dict[str, object]] = {
            name: _module_constants(mod) for name, mod in program.modules.items()
        }

    def _by_qname(self, dotted: str) -> object | None:
        module, _, name = dotted.rpartition(".")
        return self._consts.get(module, {}).get(name)

    def resolve(
        self, expr: ast.expr, func: FuncInfo, local_bindings: dict[str, str]
    ) -> object | None:
        if isinstance(expr, ast.Constant):
            return expr.value
        module = func.module
        if isinstance(expr, ast.Name):
            target = local_bindings.get(expr.id) or module.bindings.get(expr.id)
            if target is not None:
                value = self._by_qname(target)
                if value is not None:
                    return value
            return self._consts.get(module.name, {}).get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            base = local_bindings.get(expr.value.id) or module.bindings.get(
                expr.value.id, expr.value.id
            )
            return self._by_qname(f"{base}.{expr.attr}")
        return None


# --------------------------------------------------------------------------
# Site extraction


def _dict_schema_entry(node: ast.Dict) -> tuple[ast.expr, tuple[str, ...]] | None:
    """(schema value expr, constant top-level keys) if the dict display
    carries a ``"schema"`` key."""
    schema_value: ast.expr | None = None
    keys: list[str] = []
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
            if key.value == "schema":
                schema_value = value
    if schema_value is None:
        return None
    return schema_value, tuple(sorted(keys))


def _is_schema_access(expr: ast.expr) -> bool:
    """Literally ``<x>.get("schema")`` or ``<x>["schema"]``."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr == "get"
        and expr.args
        and isinstance(expr.args[0], ast.Constant)
        and expr.args[0].value == "schema"
    ):
        return True
    return (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.slice, ast.Constant)
        and expr.slice.value == "schema"
    )


def _walk_function(
    func: FuncInfo,
    resolver: _ConstResolver,
    registry: ExtractedRegistry,
) -> None:
    local_bindings = _local_import_bindings(func)
    holder: ast.AST
    if func.node is not None:
        holder = func.node
    else:
        holder = ast.Module(body=func.body, type_ignores=[])
    for node in ast.walk(holder):
        if isinstance(node, ast.Dict):
            entry = _dict_schema_entry(node)
            if entry is None:
                continue
            schema_expr, fields = entry
            schema = resolver.resolve(schema_expr, func, local_bindings)
            if not _is_schema_id(schema):
                continue
            version: int | None = None
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "schema_version"
                ):
                    resolved = resolver.resolve(value, func, local_bindings)
                    if isinstance(resolved, int):
                        version = resolved
            registry.writers.setdefault(str(schema), []).append(
                WriterSite(
                    schema=str(schema),
                    qname=func.qname,
                    path=func.path,
                    line=node.lineno,
                    col=node.col_offset,
                    fields=fields,
                    version=version,
                )
            )
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if not any(_is_schema_access(op) for op in operands):
                continue
            for op in operands:
                if _is_schema_access(op):
                    continue
                schema = resolver.resolve(op, func, local_bindings)
                if _is_schema_id(schema):
                    registry.validators.setdefault(str(schema), []).append(
                        ValidatorSite(
                            schema=str(schema),
                            qname=func.qname,
                            name=func.qname.rsplit(".", 1)[-1],
                            path=func.path,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )


def extract_registry(program: Program) -> ExtractedRegistry:
    """Scan every function and module body for writer/validator sites."""
    registry = ExtractedRegistry()
    resolver = _ConstResolver(program)
    for qname in sorted(program.functions):
        _walk_function(program.functions[qname], resolver, registry)
    for name in sorted(program.modules):
        body = program.modules[name].body
        if body is not None:
            _walk_function(body, resolver, registry)
    return registry


# --------------------------------------------------------------------------
# Snapshot compare / update


def snapshot_schemas(registry: ExtractedRegistry) -> dict[str, dict]:
    """The manifest ``schemas`` section for ``--update-schema-registry``."""
    schemas: dict[str, dict] = {}
    for schema in sorted(registry.schemas()):
        writers = registry.writers.get(schema, [])
        validators = registry.validators.get(schema, [])
        schemas[schema] = {
            "version": writers[0].version if writers else None,
            "writer": writers[0].qname if writers else None,
            "validator": validators[0].qname if validators else None,
            "fields": sorted(writers[0].fields) if writers else [],
        }
    return schemas


def _site_finding(
    site: WriterSite | ValidatorSite, message: str, *, rule: str = RULE_REGISTRY
) -> Finding:
    return Finding(
        path=site.path,
        line=site.line,
        col=site.col,
        rule=rule,
        message=message,
        severity=SEVERITY_WARNING
        if rule == RULE_DEAD_VALIDATOR
        else SEVERITY_ERROR,
    )


def check_registry(
    program: Program, manifest: Manifest
) -> tuple[list[Finding], ExtractedRegistry]:
    """CON020/CON021 findings plus the extracted registry."""
    registry = extract_registry(program)
    findings: list[Finding] = []
    snapshot = manifest.schemas

    for schema in sorted(registry.schemas()):
        writers = registry.writers.get(schema, [])
        validators = registry.validators.get(schema, [])
        any_site: WriterSite | ValidatorSite = (writers or validators)[0]

        if schema not in snapshot:
            findings.append(
                _site_finding(
                    any_site,
                    f"schema {schema!r} is not in the committed registry "
                    f"({manifest.label} 'schemas'); run lint --deep "
                    "--update-schema-registry and review the diff",
                )
            )
            continue
        entry = snapshot[schema]

        if len(writers) != 1:
            if not writers:
                findings.append(
                    _site_finding(
                        validators[0],
                        f"schema {schema!r} has a validator but no writer "
                        "in the analyzed tree; every schema needs exactly "
                        "one emitting site",
                    )
                )
            else:
                for extra in writers[1:]:
                    findings.append(
                        _site_finding(
                            extra,
                            f"schema {schema!r} has {len(writers)} writer "
                            f"sites (first at {writers[0].path}:"
                            f"{writers[0].line}); collapse them into one "
                            "shared envelope builder",
                        )
                    )
        if len(validators) != 1:
            if not validators:
                findings.append(
                    _site_finding(
                        writers[0],
                        f"schema {schema!r} has a writer but no validator; "
                        "add a validate_* function that checks "
                        'doc.get("schema") against the id',
                    )
                )
            else:
                for extra in validators[1:]:
                    findings.append(
                        _site_finding(
                            extra,
                            f"schema {schema!r} has {len(validators)} "
                            "validator sites (first at "
                            f"{validators[0].path}:{validators[0].line}); "
                            "keep exactly one",
                        )
                    )

        if len(writers) == 1:
            writer = writers[0]
            snap_fields = sorted(map(str, entry.get("fields", [])))
            snap_version = entry.get("version")
            if writer.version == snap_version and sorted(
                writer.fields
            ) != snap_fields:
                added = sorted(set(writer.fields) - set(snap_fields))
                removed = sorted(set(snap_fields) - set(writer.fields))
                delta = "; ".join(
                    part
                    for part in (
                        f"added {added}" if added else "",
                        f"removed {removed}" if removed else "",
                    )
                    if part
                )
                findings.append(
                    _site_finding(
                        writer,
                        f"schema {schema!r} writer field set changed "
                        f"({delta}) without a schema_version bump (still "
                        f"v{writer.version}); bump the version constant and "
                        "run --update-schema-registry",
                    )
                )
            elif writer.version != snap_version:
                findings.append(
                    _site_finding(
                        writer,
                        f"schema {schema!r} is at v{writer.version} in code "
                        f"but the registry snapshot records "
                        f"v{snap_version}; run lint --deep "
                        "--update-schema-registry to record the bump",
                    )
                )

    for schema in sorted(set(snapshot) - registry.schemas()):
        findings.append(
            Finding(
                path=manifest.label,
                line=1,
                col=0,
                rule=RULE_REGISTRY,
                message=(
                    f"registry snapshot entry {schema!r} matches no writer "
                    "or validator in the analyzed tree; run lint --deep "
                    "--update-schema-registry to drop it"
                ),
            )
        )

    findings.extend(_check_dead_validators(registry, manifest))
    return findings, registry


# --------------------------------------------------------------------------
# CON021: test reachability


def _tests_corpus(tests_root: str) -> str:
    """Concatenated text of every test file under ``tests_root``."""
    chunks: list[str] = []
    for dirpath, dirnames, filenames in os.walk(tests_root):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                try:
                    with open(path, encoding="utf-8") as handle:
                        chunks.append(handle.read())
                except OSError:
                    continue
    return "\n".join(chunks)


def _check_dead_validators(
    registry: ExtractedRegistry, manifest: Manifest
) -> list[Finding]:
    tests_root = manifest.tests_root
    if tests_root is None or not os.path.isdir(tests_root):
        return []
    corpus = _tests_corpus(tests_root)
    findings: list[Finding] = []
    for schema in sorted(registry.validators):
        for site in registry.validators[schema]:
            if site.name == MODULE_BODY:
                continue
            if site.name not in corpus:
                findings.append(
                    _site_finding(
                        site,
                        f"validator {site.qname} for schema {schema!r} is "
                        f"referenced by no test under {tests_root}/; an "
                        "unexercised validator rots silently — add a test "
                        "that feeds it a good and a bad document",
                        rule=RULE_DEAD_VALIDATOR,
                    )
                )
    return findings

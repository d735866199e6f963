"""The lint manifest, ``lint.json``: every committed input of ``lint --deep``.

One reviewable JSON object with these sections:

* ``version`` — manifest format version (must be 1).
* ``layers`` — the import-boundary DAG for CON010: ``assign`` maps a
  layer name to module-name prefixes, ``allow`` maps a layer to the
  layers it may import at module scope.  Unassigned modules are
  unconstrained.
* ``tests_root`` — directory scanned for validator references by the
  CON021 reachability check; absent means CON021 is off.
* ``hot`` / ``cold`` — ``{"function": qname, "reason": text}`` entries
  declaring hot regions and cold boundaries for the effects rules
  (inline ``# lint: hot`` / ``# lint: cold`` markers add to them).
* ``schemas`` — the schema registry snapshot for CON020: schema id ->
  ``{"version", "writer", "validator", "fields"}``.
  ``--update-schema-registry`` rewrites this section and nothing else.

Unknown keys are rejected at every level, so a stale or misspelled
section fails closed instead of silently enforcing nothing.  Manifest
entries that match nothing in the analyzed tree are findings pointing at
the manifest file, so a rename cannot silently drop enforcement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import LintError

#: The manifest the CLI looks for in the working directory.
DEFAULT_MANIFEST = "lint.json"

MANIFEST_VERSION = 1

_TOP_KEYS = frozenset({"version", "layers", "tests_root", "hot", "cold", "schemas"})
_LAYER_KEYS = frozenset({"assign", "allow"})
_REGION_KEYS = frozenset({"function", "reason"})
_SCHEMA_KEYS = frozenset({"version", "writer", "validator", "fields"})


@dataclass
class LayerDecl:
    """The declared layer DAG."""

    #: layer name -> module-name prefixes assigned to it.
    assign: dict[str, list[str]] = field(default_factory=dict)
    #: layer name -> layer names it may import at module scope.
    allow: dict[str, list[str]] = field(default_factory=dict)

    def layer_of(self, module_name: str) -> str | None:
        """The layer ``module_name`` is assigned to, if any."""
        for layer, prefixes in self.assign.items():
            for prefix in prefixes:
                if module_name == prefix or module_name.startswith(prefix + "."):
                    return layer
        return None

    def cycle(self) -> list[str] | None:
        """A cycle in the ``allow`` graph, if one exists (it must not)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.assign}
        trail: list[str] = []

        def visit(name: str) -> list[str] | None:
            color[name] = GREY
            trail.append(name)
            for dep in self.allow.get(name, []):
                if dep not in color:
                    continue
                if color[dep] == GREY:
                    return trail[trail.index(dep) :] + [dep]
                if color[dep] == WHITE:
                    found = visit(dep)
                    if found is not None:
                        return found
            trail.pop()
            color[name] = BLACK
            return None

        for name in self.assign:
            if color[name] == WHITE:
                found = visit(name)
                if found is not None:
                    return found
        return None


@dataclass
class Manifest:
    """A parsed ``lint.json`` plus its source path (``None``: empty)."""

    path: str | None = None
    layers: LayerDecl = field(default_factory=LayerDecl)
    tests_root: str | None = None
    #: hot / cold qualified name -> declared reason.
    hot: dict[str, str] = field(default_factory=dict)
    cold: dict[str, str] = field(default_factory=dict)
    #: schema id -> registry snapshot entry.
    schemas: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The path manifest-health findings point at."""
        return self.path or DEFAULT_MANIFEST

    def canonical(self) -> str:
        """Canonical text of every section, plus the path manifest
        findings point at, for the result-cache key."""
        return json.dumps(
            {
                "path": self.path,
                "layers": [self.layers.assign, self.layers.allow],
                "tests_root": self.tests_root,
                "hot": self.hot,
                "cold": self.cold,
                "schemas": self.schemas,
            },
            sort_keys=True,
        )


def _check_keys(obj: dict, allowed: frozenset[str], where: str, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise LintError(
            f"manifest {path}: unknown key(s) {', '.join(map(repr, unknown))} "
            f"in {where}; allowed: {', '.join(sorted(allowed))}"
        )


def _object(value: object, where: str, path: str) -> dict:
    if not isinstance(value, dict):
        raise LintError(f"manifest {path}: {where} must be an object")
    return value


def _parse_layers(doc: object, path: str) -> LayerDecl:
    doc = _object(doc, "'layers'", path)
    _check_keys(doc, _LAYER_KEYS, "'layers'", path)
    assign_raw = _object(doc.get("assign", {}), "layers.assign", path)
    allow_raw = _object(doc.get("allow", {}), "layers.allow", path)
    assign = {
        str(layer): [str(p) for p in prefixes]
        for layer, prefixes in assign_raw.items()
    }
    allow = {
        str(layer): [str(d) for d in deps] for layer, deps in allow_raw.items()
    }
    for layer, deps in allow.items():
        if layer not in assign:
            raise LintError(
                f"manifest {path}: layers.allow names undeclared layer {layer!r}"
            )
        for dep in deps:
            if dep not in assign:
                raise LintError(
                    f"manifest {path}: layer {layer!r} allows undeclared "
                    f"layer {dep!r}"
                )
    return LayerDecl(assign=assign, allow=allow)


def _parse_regions(entries: object, key: str, path: str) -> dict[str, str]:
    if not isinstance(entries, list):
        raise LintError(f"manifest {path}: '{key}' must be a list")
    out: dict[str, str] = {}
    for entry in entries:
        if not isinstance(entry, dict) or "function" not in entry:
            raise LintError(
                f"manifest {path}: every '{key}' entry needs a 'function' "
                "qualified name"
            )
        _check_keys(entry, _REGION_KEYS, f"a '{key}' entry", path)
        out[str(entry["function"])] = str(entry.get("reason", ""))
    return out


def _parse_schemas(doc: object, path: str) -> dict[str, dict[str, Any]]:
    schemas = _object(doc, "'schemas'", path)
    for schema, entry in schemas.items():
        _check_keys(
            _object(entry, f"schemas[{schema!r}]", path),
            _SCHEMA_KEYS,
            f"schemas[{schema!r}]",
            path,
        )
    return schemas


def _read(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise LintError(f"cannot read manifest {path}: {err}") from err
    return _object(doc, "the top level", path)


def load_manifest(path: str | None) -> Manifest:
    """Parse ``path``; ``None`` is the empty manifest (nothing declared)."""
    if path is None:
        return Manifest()
    doc = _read(path)
    _check_keys(doc, _TOP_KEYS, "the top level", path)
    version = doc.get("version", MANIFEST_VERSION)
    if version != MANIFEST_VERSION:
        raise LintError(
            f"manifest {path}: version {version!r} is not {MANIFEST_VERSION}"
        )
    tests_root = doc.get("tests_root")
    if tests_root is not None and not isinstance(tests_root, str):
        raise LintError(f"manifest {path}: tests_root must be a string")
    return Manifest(
        path=path,
        layers=_parse_layers(doc.get("layers", {}), path),
        tests_root=tests_root,
        hot=_parse_regions(doc.get("hot", []), "hot", path),
        cold=_parse_regions(doc.get("cold", []), "cold", path),
        schemas=_parse_schemas(doc.get("schemas", {}), path),
    )


def write_schemas(path: str, schemas: dict[str, dict[str, Any]]) -> None:
    """Rewrite only the ``schemas`` section of the manifest at ``path``.

    The file is written in canonical form (``indent=2``, sorted keys),
    so an update that records nothing new leaves it byte-identical.
    """
    doc = _read(path)
    doc["schemas"] = schemas
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as err:
        raise LintError(f"cannot write manifest {path}: {err}") from err

"""The lint manifest, ``lint.json``: every committed input of ``lint --deep``.

One reviewable JSON object with two sections:

* ``version`` — manifest format version (must be 1).
* ``layers`` — the import-boundary DAG for CON010: ``assign`` maps a
  layer name to module-name prefixes, ``allow`` maps a layer to the
  layers it may import at module scope.  Unassigned modules are
  unconstrained.

Unknown keys are rejected at every level, so a stale or misspelled
section fails closed instead of silently enforcing nothing.  Manifest
entries that match nothing in the analyzed tree are findings pointing at
the manifest file, so a rename cannot silently drop enforcement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import LintError

#: The manifest the CLI looks for in the working directory.
DEFAULT_MANIFEST = "lint.json"

MANIFEST_VERSION = 1

_TOP_KEYS = frozenset({"version", "layers"})
_LAYER_KEYS = frozenset({"assign", "allow"})


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

    @property
    def label(self) -> str:
        """The path manifest-health findings point at."""
        return self.path or DEFAULT_MANIFEST

    def canonical(self) -> str:
        """Canonical text of the layers, plus the path manifest
        findings point at, for the result-cache key."""
        return json.dumps(
            {"path": self.path, "layers": [self.layers.assign, self.layers.allow]},
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


def load_manifest(path: str | None) -> Manifest:
    """Parse ``path``; ``None`` is the empty manifest (nothing declared)."""
    if path is None:
        return Manifest()
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError, RecursionError) as err:  # nesting too deep
        raise LintError(f"cannot read manifest {path}: {err}") from err
    doc = _object(doc, "the top level", path)
    _check_keys(doc, _TOP_KEYS, "the top level", path)
    version = doc.get("version", MANIFEST_VERSION)
    if version != MANIFEST_VERSION:
        raise LintError(
            f"manifest {path}: version {version!r} is not {MANIFEST_VERSION}"
        )
    return Manifest(path=path, layers=_parse_layers(doc.get("layers", {}), path))

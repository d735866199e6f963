"""The lint manifest, ``lint.json``: CON010's layer DAG.

One reviewable JSON object with two sections:

* ``version`` — manifest format version (must be the integer 1).
* ``layers`` — the import-boundary DAG for CON010: ``assign`` maps a
  layer name to a list of module-name prefixes, ``allow`` maps a layer
  to the list of layers it may import at module scope.  Unassigned
  modules are unconstrained.

Unknown keys and values of the wrong type are rejected at every level,
so a stale or misspelled section fails closed instead of silently
enforcing nothing.  Manifest entries that match nothing in the linted
tree are findings pointing at the manifest file, so a rename cannot
silently drop enforcement.
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


def _names(section: str, doc: dict, path: str) -> dict[str, list[str]]:
    """``layers.<section>``: an object mapping each layer to a list of
    strings (JSON object keys are always strings)."""
    raw = _object(doc.get(section, {}), f"layers.{section}", path)
    for layer, names in raw.items():
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise LintError(
                f"manifest {path}: layers.{section}[{layer!r}] must be a list "
                "of strings"
            )
    return raw


def _parse_layers(doc: object, path: str) -> LayerDecl:
    doc = _object(doc, "'layers'", path)
    _check_keys(doc, _LAYER_KEYS, "'layers'", path)
    assign = _names("assign", doc, path)
    allow = _names("allow", doc, path)
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
    # `True == 1` and `1.0 == 1`: only the integer itself is version 1.
    if type(version) is not int or version != MANIFEST_VERSION:
        raise LintError(
            f"manifest {path}: version {version!r} is not {MANIFEST_VERSION}"
        )
    return Manifest(path=path, layers=_parse_layers(doc.get("layers", {}), path))

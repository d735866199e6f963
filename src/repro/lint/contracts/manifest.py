"""The contracts manifest: the layer DAG and the CON021 test root.

``lint-contracts.pairs.json`` is the committed, reviewable declaration
of the codebase's structural contracts:

* ``layers`` — the import-boundary DAG: ``assign`` maps a layer name to
  module-name prefixes, ``allow`` maps a layer to the layers it may
  import at module scope.  Unassigned modules are unconstrained;
  imports inside functions (the tree's deliberate lazy-import idiom)
  and ``if TYPE_CHECKING:`` blocks are exempt.
* ``tests_root`` — directory scanned for validator references by the
  CON021 reachability check (default ``tests`` when it exists).

Like the effects region manifest, editing this file invalidates the
digest-keyed result cache, and entries that match nothing in the
analyzed tree are themselves findings — a rename cannot silently drop
enforcement.  Top-level keys other than ``version``, ``layers`` and
``tests_root`` are rejected, so a stale section fails closed instead of
silently enforcing nothing.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.errors import LintError

#: Default manifest filename, looked up in the working directory.
DEFAULT_MANIFEST = "lint-contracts.pairs.json"

#: Default registry-snapshot filename (see :mod:`.schemas`).
DEFAULT_REGISTRY = "lint-contracts.schemas.json"

MANIFEST_VERSION = 1

#: Every top-level key a manifest may carry.
_MANIFEST_KEYS = frozenset({"version", "layers", "tests_root"})


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
class ContractsManifest:
    """Parsed contracts manifest plus its source path."""

    path: str | None = None
    layers: LayerDecl = field(default_factory=LayerDecl)
    tests_root: str | None = None


def _parse_layers(doc: object, path: str) -> LayerDecl:
    if doc is None:
        return LayerDecl()
    if not isinstance(doc, dict):
        raise LintError(f"contracts manifest {path}: 'layers' must be an object")
    assign_raw = doc.get("assign", {})
    allow_raw = doc.get("allow", {})
    if not isinstance(assign_raw, dict) or not isinstance(allow_raw, dict):
        raise LintError(
            f"contracts manifest {path}: layers.assign and layers.allow "
            "must be objects"
        )
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
                f"contracts manifest {path}: layers.allow names "
                f"undeclared layer {layer!r}"
            )
        for dep in deps:
            if dep not in assign:
                raise LintError(
                    f"contracts manifest {path}: layer {layer!r} allows "
                    f"undeclared layer {dep!r}"
                )
    return LayerDecl(assign=assign, allow=allow)


def load_manifest(path: str | None) -> ContractsManifest:
    """Load the contracts manifest.

    ``path=None`` falls back to :data:`DEFAULT_MANIFEST` when present;
    an explicitly-named missing file is an error, a missing default is
    an empty manifest (nothing to enforce).
    """
    if path is None:
        if not os.path.exists(DEFAULT_MANIFEST):
            return ContractsManifest()
        path = DEFAULT_MANIFEST
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise LintError(f"cannot read contracts manifest {path}: {err}") from err
    if not isinstance(doc, dict):
        raise LintError(f"contracts manifest {path}: top level must be an object")
    unknown = sorted(set(doc) - _MANIFEST_KEYS)
    if unknown:
        raise LintError(
            f"contracts manifest {path}: unknown top-level key(s) "
            f"{', '.join(map(repr, unknown))}; allowed: "
            f"{', '.join(sorted(_MANIFEST_KEYS))}"
        )
    manifest = ContractsManifest(path=path)
    manifest.layers = _parse_layers(doc.get("layers"), path)
    tests_root = doc.get("tests_root")
    if tests_root is not None and not isinstance(tests_root, str):
        raise LintError(f"contracts manifest {path}: tests_root must be a string")
    if tests_root is None and os.path.isdir("tests"):
        tests_root = "tests"
    manifest.tests_root = tests_root
    return manifest


def manifest_digest_text(path: str | None) -> str:
    """Canonical manifest text for the result-cache key ("" when absent)."""
    manifest = load_manifest(path)
    return json.dumps(
        [
            sorted((k, sorted(v)) for k, v in manifest.layers.assign.items()),
            sorted((k, sorted(v)) for k, v in manifest.layers.allow.items()),
            manifest.tests_root,
        ]
    )

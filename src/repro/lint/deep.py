"""The whole-program driver behind ``lint --deep``.

One run takes the modules the engine already parsed, builds one
:class:`~repro.lint.program.Program`, and runs both whole-program
rules over it: the obs guard (OBS001) and the layer DAG (CON010).
The DAG comes from the manifest (:mod:`repro.lint.manifest`).

The raw findings are cached as one document under a key made of three
digests:

* the ``repro.lint`` package's own sources, so changing an analyzer
  invalidates every cached result without a hand-bumped version;
* the canonical manifest;
* every analyzed module's path and source.

Inline suppressions are filtered after the cache, on hits and misses
alike, so suppression usage (and with it LINT001) is exact either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Sequence, get_type_hints

from repro.errors import CacheError
from repro.lint.contracts import CONTRACTS_RULE_IDS
from repro.lint.contracts.layers import check_layers
from repro.lint.effects import EFFECTS_RULE_IDS
from repro.lint.effects.guards import check_guards
from repro.lint.engine import ParsedModule, iter_python_files, parse_module, read_source
from repro.lint.findings import Finding
from repro.lint.manifest import Manifest, load_manifest
from repro.lint.program import Program, build_program

#: Every rule the deep pass can emit.
DEEP_RULE_IDS = EFFECTS_RULE_IDS | CONTRACTS_RULE_IDS

#: The ``repro.lint`` sources, hashed into the cache key.
LINT_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

#: Field name -> type of one finding in the cached document.
_FINDING_TYPES = get_type_hints(Finding)


@dataclass
class DeepReport:
    """Outcome of one deep run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    #: Program and analyzer counts (modules, functions, layers),
    #: finding counts, cache status and wall time.
    stats: dict[str, Any] = field(default_factory=dict)


def _tree_digest(root: str) -> str:
    """Digest of every ``.py`` file (relative path and bytes) under ``root``."""
    entries: list[list[str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                entries.append([os.path.relpath(path, root), digest])
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def cache_key(modules: Sequence[ParsedModule], manifest: Manifest) -> str:
    """The one cache key: lint sources, manifest, modules."""
    sources = [
        [m.path, hashlib.sha256(m.source.encode("utf-8")).hexdigest()]
        for m in sorted(modules, key=lambda m: m.path)
    ]
    parts = [
        _tree_digest(LINT_PACKAGE_DIR),
        hashlib.sha256(manifest.canonical().encode()).hexdigest(),
        sources,
    ]
    return "lintdeep-" + hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _analyze(program: Program, manifest: Manifest) -> dict[str, Any]:
    """Run every analyzer; returns the cacheable document of raw findings."""
    raw = [*check_guards(program), *check_layers(program, manifest)]
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return {
        "findings": [f.to_dict() for f in raw],
        "counts": {
            "modules": len(program.modules),
            "functions": len(program.functions),
            "layers": len(manifest.layers.assign),
        },
    }


def _replayable(doc: dict[str, Any]) -> bool:
    """Whether a cached document has the shape :func:`_analyze` writes.

    Cache files come from outside the process, so a document of any
    other shape is a miss, not a crash.
    """
    findings, counts = doc.get("findings"), doc.get("counts")
    return (
        isinstance(findings, list)
        and isinstance(counts, dict)
        and all(
            isinstance(f, dict)
            and f.keys() == _FINDING_TYPES.keys()
            and all(type(f[name]) is t for name, t in _FINDING_TYPES.items())
            for f in findings
        )
    )


def _open_cache():
    from repro.cache.store import ResultCache

    try:
        return ResultCache()
    except CacheError:
        return None


def analyze_modules(
    modules: Sequence[ParsedModule], manifest: str | None = None
) -> DeepReport:
    """Whole-program analysis of parsed modules against ``manifest``
    (``None``: the empty manifest)."""
    started = time.perf_counter()  # lint: disable=DET001 (host-side analysis timing)
    analyzable = [m for m in modules if m.ctx is not None]
    loaded = load_manifest(manifest)

    cache = _open_cache()
    key = cache_key(analyzable, loaded)
    doc = None
    if cache is not None:
        try:
            doc = cache.get(key)
        except CacheError:
            doc = None
    cache_hit = doc is not None and _replayable(doc)
    if not cache_hit:
        doc = _analyze(build_program(analyzable), loaded)
        if cache is not None:
            try:
                cache.put(key, doc)
            except CacheError:
                pass

    suppressions = {m.path: m.suppressions for m in analyzable}
    report = DeepReport()
    for finding in (Finding(**f) for f in doc["findings"]):
        index = suppressions.get(finding.path)
        if index is not None and index.suppresses(finding):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.stats = {
        **doc["counts"],
        "findings": len(report.findings),
        "suppressed": report.suppressed,
        "cache_hit": cache_hit,
        "duration_s": round(time.perf_counter() - started, 3),  # lint: disable=DET001 (host-side analysis timing)
    }
    return report


def analyze_paths(paths: Sequence[str], manifest: str | None = None) -> DeepReport:
    """Parse every python file under ``paths`` and analyze them."""
    modules = [
        parse_module(read_source(path), path) for path in iter_python_files(paths)
    ]
    return analyze_modules(modules, manifest)

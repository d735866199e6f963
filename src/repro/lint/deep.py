"""The whole-program driver behind ``lint --deep``.

One run takes the modules the engine already parsed, builds one
:class:`~repro.lint.flow.graph.Program`, and runs every whole-program
analyzer over it: flow (DIM001-DIM003, DET002), effects (HOT001-HOT003,
OBS001, PAR001) and contracts (CON010, CON020, CON021).  Their inputs
come from one manifest (:mod:`repro.lint.manifest`).

The raw findings are cached as one document under a key made of four
digests:

* the ``repro.lint`` package's own sources, so changing an analyzer
  invalidates every cached result without a hand-bumped version;
* the canonical manifest;
* the CON021 tests corpus (the manifest's ``tests_root``);
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
from typing import Any, Sequence

from repro.errors import CacheError, LintError
from repro.lint.contracts import CONTRACTS_RULE_IDS
from repro.lint.contracts.layers import check_layers
from repro.lint.contracts.schemas import (
    check_registry,
    extract_registry,
    snapshot_schemas,
)
from repro.lint.effects import EFFECTS_RULE_IDS
from repro.lint.effects.guards import check_guards
from repro.lint.effects.hotpath import check_regions
from repro.lint.effects.parsafe import check_submissions
from repro.lint.effects.regions import collect_regions
from repro.lint.effects.summaries import summarize_program
from repro.lint.engine import ParsedModule, iter_python_files, parse_module, read_source
from repro.lint.findings import Finding
from repro.lint.flow import FLOW_RULE_IDS
from repro.lint.flow.analysis import analyze_program
from repro.lint.flow.graph import Program, build_program
from repro.lint.manifest import Manifest, load_manifest, write_schemas

#: Every rule the deep pass can emit.
DEEP_RULE_IDS = FLOW_RULE_IDS | EFFECTS_RULE_IDS | CONTRACTS_RULE_IDS

#: The ``repro.lint`` sources, hashed into the cache key.
LINT_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class DeepReport:
    """Outcome of one deep run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    #: Program and analyzer counts (modules, functions, rounds, regions,
    #: layers, schemas), finding counts, cache status and wall time.
    stats: dict[str, Any] = field(default_factory=dict)


def _tree_digest(root: str | None) -> str:
    """Digest of every ``.py`` file (relative path and bytes) under ``root``."""
    entries: list[list[str]] = []
    if root is not None and os.path.isdir(root):
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
    """The one cache key: lint sources, manifest, tests corpus, modules."""
    sources = [
        [m.path, hashlib.sha256(m.source.encode("utf-8")).hexdigest()]
        for m in sorted(modules, key=lambda m: m.path)
    ]
    parts = [
        _tree_digest(LINT_PACKAGE_DIR),
        hashlib.sha256(manifest.canonical().encode()).hexdigest(),
        _tree_digest(manifest.tests_root),
        sources,
    ]
    return "lintdeep-" + hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _analyze(program: Program, manifest: Manifest) -> dict[str, Any]:
    """Run every analyzer; returns the cacheable document of raw findings."""
    flow = analyze_program(program)
    regions = collect_regions(program, manifest)
    registry_findings, registry = check_registry(program, manifest)
    raw = [
        *flow.findings,
        *check_regions(program, summarize_program(program), regions),
        *check_guards(program),
        *check_submissions(program),
        *check_layers(program, manifest),
        *registry_findings,
    ]
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return {
        "findings": [f.to_dict() for f in raw],
        "counts": {
            "modules": len(program.modules),
            "functions": len(program.functions),
            "rounds": flow.rounds,
            "regions": len(regions.regions),
            "layers": len(manifest.layers.assign),
            "schemas": len(registry.schemas()),
        },
    }


def _open_cache():
    from repro.cache.store import ResultCache

    try:
        return ResultCache()
    except CacheError:
        return None


def analyze_modules(
    modules: Sequence[ParsedModule],
    manifest: str | None = None,
    *,
    update_schema_registry: bool = False,
) -> DeepReport:
    """Whole-program analysis of parsed modules against ``manifest``.

    ``manifest=None`` is the empty manifest.  ``update_schema_registry``
    rewrites the manifest's ``schemas`` section from the tree *before*
    checking, so the run that records a version bump comes back clean.
    """
    started = time.perf_counter()  # lint: disable=DET001 (host-side analysis timing)
    analyzable = [m for m in modules if m.ctx is not None]
    program: Program | None = None
    if update_schema_registry:
        if manifest is None:
            raise LintError("--update-schema-registry needs a manifest file")
        program = build_program(analyzable)
        write_schemas(manifest, snapshot_schemas(extract_registry(program)))
    loaded = load_manifest(manifest)

    cache = _open_cache()
    key = cache_key(analyzable, loaded)
    doc = None
    if cache is not None:
        try:
            doc = cache.get(key)
        except CacheError:
            doc = None
    cache_hit = doc is not None
    if doc is None:
        doc = _analyze(program or build_program(analyzable), loaded)
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


def analyze_paths(
    paths: Sequence[str], manifest: str | None = None, **kwargs: Any
) -> DeepReport:
    """Parse every python file under ``paths`` and analyze them."""
    modules = [
        parse_module(read_source(path), path) for path in iter_python_files(paths)
    ]
    return analyze_modules(modules, manifest, **kwargs)

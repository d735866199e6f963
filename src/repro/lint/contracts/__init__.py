"""Whole-program structural-contract analysis.

Third pass on the :mod:`repro.lint.flow` symbol/call graph, proving the
tree's structural contracts *before* any simulation runs:

* **layering** (CON010) — module-scope imports must respect the layer
  DAG declared in ``lint-contracts.pairs.json`` (``core``/``sim``/
  ``power``/``machine`` never pull in ``bench``/``obs``/``lint``/``cli``);
* **schema registry** (CON020/CON021) — every ``"schema"`` family has
  exactly one writer and one validator, field-set drift requires a
  version bump recorded in ``lint-contracts.schemas.json``, and every
  validator is exercised by some test.

Public surface mirrors :mod:`repro.lint.effects`: rule tables,
:func:`analyze_modules` (digest-keyed cache + fingerprinted baseline),
and :func:`analyze_paths` for tests and tooling.  The cache key hashes
every source, both manifests, and the test corpus (CON021 reads it), so
editing any input is as invalidating as editing code.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import CacheError
from repro.lint.engine import ParsedModule
from repro.lint.findings import Finding
from repro.lint.flow.baseline import load_baseline, split_baselined, write_baseline
from repro.lint.flow.graph import build_program
from repro.lint.contracts.layers import RULE_LAYER, check_layers
from repro.lint.contracts.manifest import (
    load_manifest,
    manifest_digest_text,
)
from repro.lint.contracts.schemas import (
    RULE_DEAD_VALIDATOR,
    RULE_REGISTRY,
    check_registry,
    extract_registry,
    load_snapshot,
    tests_digest_text,
    write_snapshot,
)

#: Bump to invalidate every cached analysis result.
CONTRACTS_VERSION = 2

CONTRACTS_RULE_TITLES: dict[str, str] = {
    RULE_LAYER: "module-scope import crosses a declared layer boundary",
    RULE_REGISTRY: "schema family violates the committed registry snapshot",
    RULE_DEAD_VALIDATOR: "schema validator referenced by no test",
}

CONTRACTS_RULE_IDS = set(CONTRACTS_RULE_TITLES)


@dataclass
class ContractsReport:
    """Outcome of one whole-program contracts analysis."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    modules: int = 0
    layers: int = 0
    schemas: int = 0
    cache_hit: bool = False
    duration_s: float = 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "modules": self.modules,
            "layers": self.layers,
            "schemas": self.schemas,
            "findings": len(self.findings),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "cache_hit": self.cache_hit,
            "duration_s": round(self.duration_s, 3),
        }


def contracts_cache_key(
    modules: Sequence[ParsedModule],
    manifest_path: str | None,
    registry_path: str | None,
) -> str:
    """Digest of analyzer version, every source, both manifests, and the
    CON021 test corpus."""
    manifest = load_manifest(manifest_path)
    loaded = load_snapshot(registry_path)
    hasher = hashlib.sha256()
    hasher.update(f"contracts-v{CONTRACTS_VERSION}".encode())
    hasher.update(manifest_digest_text(manifest_path).encode())
    hasher.update(
        json.dumps(loaded[1] if loaded else None, sort_keys=True).encode()
    )
    hasher.update(
        hashlib.sha256(
            tests_digest_text(manifest.tests_root).encode("utf-8")
        ).hexdigest().encode()
    )
    for parsed in sorted(modules, key=lambda m: m.path):
        digest = hashlib.sha256(parsed.source.encode("utf-8")).hexdigest()
        hasher.update(json.dumps([parsed.path, digest]).encode())
    return f"lintcontracts-{hasher.hexdigest()}"


def _open_cache():
    from repro.cache.store import ResultCache

    try:
        return ResultCache()
    except CacheError:
        return None


def _analyze(
    modules: list[ParsedModule],
    manifest_path: str | None,
    registry_path: str | None,
) -> tuple[ContractsReport, dict[str, Any]]:
    """Run the analyzer; returns the report and a cacheable document."""
    program = build_program(modules)
    manifest = load_manifest(manifest_path)

    raw: list[Finding] = []
    raw.extend(check_layers(program, manifest))
    registry_findings, registry = check_registry(
        program, manifest, registry_path
    )
    raw.extend(registry_findings)
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    by_path = {m.path: m for m in modules}
    kept: list[Finding] = []
    suppressed = 0
    uses: list[list] = []
    for finding in raw:
        parsed = by_path.get(finding.path)
        if parsed is not None:
            before = set(parsed.suppressions.used)
            if parsed.suppressions.suppresses(finding):
                suppressed += 1
                for line, rule in parsed.suppressions.used - before:
                    uses.append([finding.path, line, rule])
                continue
        kept.append(finding)
    report = ContractsReport(
        findings=kept,
        suppressed=suppressed,
        modules=len(program.modules),
        layers=len(manifest.layers.assign),
        schemas=len(registry.schemas()),
    )
    doc = {
        "version": CONTRACTS_VERSION,
        "findings": [f.to_dict() for f in kept],
        "suppressed": suppressed,
        "suppression_uses": uses,
        "modules": report.modules,
        "layers": report.layers,
        "schemas": report.schemas,
    }
    return report, doc


def _replay(doc: dict[str, Any], modules: list[ParsedModule]) -> ContractsReport:
    """Rebuild a report from a cached document, replaying suppressions."""
    by_path = {m.path: m for m in modules}
    for path, line, rule in doc.get("suppression_uses", []):
        parsed = by_path.get(path)
        if parsed is not None:
            parsed.suppressions.mark_used(line, rule)
    findings = [Finding(**f) for f in doc.get("findings", [])]
    return ContractsReport(
        findings=findings,
        suppressed=int(doc.get("suppressed", 0)),
        modules=int(doc.get("modules", 0)),
        layers=int(doc.get("layers", 0)),
        schemas=int(doc.get("schemas", 0)),
        cache_hit=True,
    )


def analyze_modules(
    modules: Sequence[ParsedModule],
    *,
    use_cache: bool = True,
    baseline_path: str | None = None,
    update_baseline: bool = False,
    manifest_path: str | None = None,
    registry_path: str | None = None,
    update_registry: bool = False,
) -> ContractsReport:
    """Whole-program contracts analysis over parsed modules.

    The baseline is applied *after* the cache, exactly like the flow and
    effects passes: cached documents store raw findings, so editing the
    baseline never forces a re-analysis.  ``update_registry`` rewrites
    the schema snapshot from the tree *before* checking, so the run that
    records a version bump comes back clean.
    """
    started = time.perf_counter()  # lint: disable=DET001 (host-side analysis timing)
    analyzable = [m for m in modules if m.ctx is not None]

    if update_registry:
        program = build_program(analyzable)
        write_snapshot(registry_path, extract_registry(program))

    cache = _open_cache() if use_cache else None
    key = (
        contracts_cache_key(analyzable, manifest_path, registry_path)
        if cache is not None
        else ""
    )
    report: ContractsReport | None = None
    if cache is not None:
        try:
            doc = cache.get(key)
        except CacheError:
            doc = None
        if doc is not None and doc.get("version") == CONTRACTS_VERSION:
            report = _replay(doc, analyzable)
    if report is None:
        report, doc = _analyze(analyzable, manifest_path, registry_path)
        if cache is not None:
            try:
                cache.put(key, doc)
            except CacheError:
                pass

    if baseline_path is not None:
        if update_baseline:
            write_baseline(baseline_path, report.findings)
        accepted = load_baseline(baseline_path)
        report.findings, report.baselined = split_baselined(
            report.findings, accepted
        )
    report.duration_s = time.perf_counter() - started  # lint: disable=DET001 (host-side analysis timing)
    return report


def analyze_paths(paths: Sequence[str], **kwargs: Any) -> ContractsReport:
    """Parse every python file under ``paths`` and analyze them."""
    from repro.lint.engine import iter_python_files, parse_module, read_source

    modules = [
        parse_module(read_source(path), path) for path in iter_python_files(paths)
    ]
    return analyze_modules(modules, **kwargs)

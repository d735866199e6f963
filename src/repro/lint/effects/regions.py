"""Hot-region declarations: the committed manifest plus inline markers.

A *hot region* is a function whose body must stay allocation-light and
effect-free — the dispatch loop, the event-queue pop path, the PowerModel
memo path, the per-event bench callbacks.  Two declaration mechanisms
feed the same set:

* the ``hot`` section of the manifest (``lint.json``), naming functions
  by qualified name — the reviewable source of truth for the production
  hot set;
* an inline ``# lint: hot`` comment on (or directly above) a ``def``
  line — the only way to mark *nested* functions (bench kernel
  callbacks), and handy in fixture corpora.

``# lint: cold`` (or a manifest ``cold`` entry) marks a *boundary*: a
function that is deliberately off the hot budget (a memo-miss slow path,
the obs-enabled dispatch loop).  Hot-path propagation stops there — a
hot region may call a cold function without a finding, because the
region's fast path never takes that call.

Both markers accept free-form text after the keyword, recorded as the
region's reason (``# lint: hot (per-event dispatch callback)``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.lint.findings import _comment_lines
from repro.lint.manifest import Manifest

_HOT_RE = re.compile(r"#\s*lint:\s*hot\b\s*(.*)")
_COLD_RE = re.compile(r"#\s*lint:\s*cold\b\s*(.*)")


@dataclass
class HotRegion:
    """One declared hot function: where it lives and why it is hot."""

    qname: str
    module_name: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    reason: str = ""
    source: str = "manifest"  # "manifest" | "marker"
    #: Qualified name of the owning class, when the region is a method.
    cls_qname: str | None = None


@dataclass
class RegionSet:
    """Every declared hot region and cold boundary in one analysis run."""

    regions: list[HotRegion] = field(default_factory=list)
    cold: set[str] = field(default_factory=set)
    #: Manifest entries that matched no function in the analyzed set —
    #: surfaced as findings so a rename cannot silently drop coverage.
    unmatched: list[str] = field(default_factory=list)
    #: Where those findings point.
    manifest_path: str = ""

    def is_cold(self, qname: str) -> bool:
        return qname in self.cold


def _marker_lines(source: str) -> tuple[dict[int, str], dict[int, str]]:
    """(hot line -> reason, cold line -> reason) for one module."""
    hot: dict[int, str] = {}
    cold: dict[int, str] = {}
    for lineno, text in _comment_lines(source):
        hot_match = _HOT_RE.search(text)
        if hot_match:
            hot[lineno] = hot_match.group(1).strip().strip("()")
        cold_match = _COLD_RE.search(text)
        if cold_match:
            cold[lineno] = cold_match.group(1).strip().strip("()")
    return hot, cold


def _marked(node: ast.AST, markers: dict[int, str]) -> str | None:
    """The marker reason if ``node``'s def line (or the line above, or a
    decorator line) carries a marker."""
    lines = {node.lineno, node.lineno - 1}
    lines.update(d.lineno for d in getattr(node, "decorator_list", []))
    for lineno in lines:
        if lineno in markers:
            return markers[lineno]
    return None


def _walk_functions(module):
    """Yield (qname, cls_qname, node) for every def in a module, nested
    included (nested defs get ``<qname>.<locals>.<name>`` names)."""

    def inner(node: ast.AST, prefix: str, cls_qname: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{child.name}"
                yield qname, cls_qname, child
                yield from inner(child, f"{qname}.<locals>", cls_qname)
            elif isinstance(child, ast.ClassDef):
                cq = f"{prefix}.{child.name}"
                yield from inner(child, cq, cq)

    yield from inner(module.parsed.ctx.tree, module.name, None)


def collect_regions(program, manifest: Manifest) -> RegionSet:
    """Resolve the manifest plus inline markers against ``program``."""
    hot_manifest = manifest.hot
    regions = RegionSet(cold=set(manifest.cold), manifest_path=manifest.label)
    matched: set[str] = set()
    for module in program.modules.values():
        hot_marks, cold_marks = _marker_lines(module.parsed.source)
        scan_markers = bool(hot_marks) or bool(cold_marks)
        if not scan_markers and not hot_manifest:
            continue
        for qname, cls_qname, node in _walk_functions(module):
            reason: str | None = None
            source = "manifest"
            if qname in hot_manifest:
                reason = hot_manifest[qname]
                matched.add(qname)
            elif scan_markers:
                reason = _marked(node, hot_marks)
                source = "marker"
            if reason is not None:
                regions.regions.append(
                    HotRegion(
                        qname=qname,
                        module_name=module.name,
                        path=module.parsed.path,
                        node=node,
                        reason=reason,
                        source=source,
                        cls_qname=cls_qname,
                    )
                )
            if scan_markers and _marked(node, cold_marks) is not None:
                regions.cold.add(qname)
    regions.unmatched = sorted(set(hot_manifest) - matched)
    regions.regions.sort(key=lambda r: (r.path, r.node.lineno))
    return regions

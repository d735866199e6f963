"""Hot-path budget rules: HOT001 (allocation), HOT002 (repeated dynamic
attribute lookup), HOT003 (exception-based control flow).

Each declared hot region (:mod:`repro.lint.effects.regions`) is checked
directly, then its resolved call graph is walked breadth-first; a callee
that allocates makes the *call site in the region* the finding location,
with the witness chain in the message.  Cold boundaries (``# lint:
cold`` / manifest ``cold`` entries) terminate the walk: a region may
call a cold slow path freely because the fast path never takes it.
"""

from __future__ import annotations

import ast

from repro.lint.findings import SEVERITY_WARNING, Finding
from repro.lint.effects.regions import HotRegion, RegionSet
from repro.lint.effects.summaries import (
    EffectSummary,
    Resolver,
    region_func_info,
    summarize_function,
)

RULE_HOT_ALLOC = "HOT001"
RULE_HOT_ATTR = "HOT002"
RULE_HOT_EXC = "HOT003"

#: Call-chain depth bound for the reachability walk (defensive only; the
#: real tree's hot chains are one or two deep).
_MAX_DEPTH = 12

#: Minimum repeated loads of the same loop-invariant attribute before
#: HOT002 suggests hoisting it to a local.
_HOT002_MIN_LOADS = 2


def _summary_for(
    qname: str,
    program,
    summaries: dict[str, EffectSummary],
    extra: dict[str, EffectSummary],
) -> EffectSummary | None:
    if qname in summaries:
        return summaries[qname]
    return extra.get(qname)


def _region_summary(
    region: HotRegion,
    program,
    summaries: dict[str, EffectSummary],
    extra: dict[str, EffectSummary],
) -> EffectSummary:
    """The region's own summary — computed on demand for nested functions
    the program graph does not register."""
    known = _summary_for(region.qname, program, summaries, extra)
    if known is not None:
        return known
    func = region_func_info(program, region)
    module = program.modules[region.module_name]
    summary = summarize_function(func, Resolver(program, module), program)
    extra[region.qname] = summary
    return summary


def check_regions(
    program,
    summaries: dict[str, EffectSummary],
    regions: RegionSet,
) -> list[Finding]:
    findings: list[Finding] = []
    extra: dict[str, EffectSummary] = {}
    for region in regions.regions:
        summary = _region_summary(region, program, summaries, extra)
        findings.extend(_check_direct_allocs(region, summary))
        findings.extend(
            _check_transitive_allocs(region, summary, summaries, regions)
        )
        findings.extend(_check_exception_flow(region))
        findings.extend(_check_attr_lookups(region, summary))
    for qname in regions.unmatched:
        findings.append(
            Finding(
                path=regions.manifest_path,
                line=1,
                col=0,
                rule=RULE_HOT_ALLOC,
                message=(
                    f"hot-region manifest entry '{qname}' matched no "
                    "function in the analyzed set; fix the qualified name "
                    "or drop the entry"
                ),
            )
        )
    return findings


def _label(region: HotRegion) -> str:
    suffix = f" ({region.reason})" if region.reason else ""
    return f"hot region {region.qname}{suffix}"


def _check_direct_allocs(
    region: HotRegion, summary: EffectSummary
) -> list[Finding]:
    return [
        Finding(
            path=region.path,
            line=site.line,
            col=site.col,
            rule=RULE_HOT_ALLOC,
            message=(
                f"per-event allocation ({site.kind}) inside {_label(region)}; "
                "hoist it out of the hot path or mark the slow path "
                "'# lint: cold'"
            ),
        )
        for site in summary.alloc_sites
    ]


def _check_transitive_allocs(
    region: HotRegion,
    summary: EffectSummary,
    summaries: dict[str, EffectSummary],
    regions: RegionSet,
) -> list[Finding]:
    """BFS over resolved call edges; report the region-level call site of
    the first chain reaching an allocating callee."""
    findings: list[Finding] = []
    seen: set[str] = {region.qname}
    # Queue entries: (callee qname, call site in the region, chain names).
    queue: list[tuple[str, tuple[int, int], list[str]]] = []
    for edge in summary.calls:
        if edge.callee not in regions.cold:
            queue.append((edge.callee, (edge.line, edge.col), [region.qname]))
    reported: set[tuple[int, int]] = set()
    depth = 0
    while queue and depth < _MAX_DEPTH:
        depth += 1
        next_queue: list[tuple[str, tuple[int, int], list[str]]] = []
        for callee, site, chain in queue:
            if callee in seen:
                continue
            seen.add(callee)
            callee_summary = summaries.get(callee)
            if callee_summary is None:
                continue  # unresolvable: stay silent
            if callee_summary.alloc_sites and site not in reported:
                reported.add(site)
                first = callee_summary.alloc_sites[0]
                witness = " -> ".join([*chain, callee])
                findings.append(
                    Finding(
                        path=region.path,
                        line=site[0],
                        col=site[1],
                        rule=RULE_HOT_ALLOC,
                        message=(
                            f"call chain {witness} allocates "
                            f"({first.kind} at line {first.line} of "
                            f"{callee_summary.func.path}) inside "
                            f"{_label(region)}; mark the callee "
                            "'# lint: cold' if the fast path never takes it"
                        ),
                    )
                )
                continue  # the chain is reported; don't descend further
            for edge in callee_summary.calls:
                if edge.callee not in regions.cold:
                    next_queue.append((edge.callee, site, [*chain, callee]))
        queue = next_queue
    return findings


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return len(handler.body) == 1 and isinstance(handler.body[0], ast.Raise)


def _check_exception_flow(region: HotRegion) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(region.node):
        if not isinstance(node, ast.Try):
            continue
        if not node.handlers:
            continue  # try/finally: cleanup, not control flow
        if all(_handler_reraises(h) for h in node.handlers):
            continue  # annotate-and-reraise is not control flow
        findings.append(
            Finding(
                path=region.path,
                line=node.lineno,
                col=node.col_offset,
                rule=RULE_HOT_EXC,
                message=(
                    f"exception-based control flow inside {_label(region)}; "
                    "CPython exception handling costs dozens of ns per "
                    "event — test the condition explicitly instead"
                ),
            )
        )
    return findings


def _loop_assigned_names(loop: ast.For | ast.While) -> set[str]:
    """Names rebound anywhere inside the loop (targets included)."""
    names: set[str] = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[0])
    return names


def _check_attr_lookups(
    region: HotRegion, summary: EffectSummary
) -> list[Finding]:
    """HOT002: the same ``invariant.attr`` looked up repeatedly in a loop."""
    findings: list[Finding] = []
    # Nested loops are both walked; report each (site, attribute) once.
    reported: set[tuple[int, int, str, str]] = set()
    for loop in ast.walk(region.node):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        rebound = _loop_assigned_names(loop)
        loads: dict[tuple[str, str], list[ast.Attribute]] = {}
        call_funcs = {
            id(node.func)
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(loop):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
            ):
                continue
            if id(node) in call_funcs:
                continue  # a.b(...) — bound-method call, idiomatic
            if node.value.id in rebound:
                continue  # base varies per iteration
            loads.setdefault((node.value.id, node.attr), []).append(node)
        for (base, attr), nodes in sorted(loads.items()):
            if len(nodes) < _HOT002_MIN_LOADS:
                continue
            first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
            key = (first.lineno, first.col_offset, base, attr)
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                Finding(
                    path=region.path,
                    line=first.lineno,
                    col=first.col_offset,
                    rule=RULE_HOT_ATTR,
                    message=(
                        f"attribute '{base}.{attr}' looked up {len(nodes)} "
                        f"times per iteration inside {_label(region)}; "
                        f"hoist it to a local before the loop"
                    ),
                    severity=SEVERITY_WARNING,
                )
            )
    return findings

"""Schema-versioned JSON document for benchmark results.

Every ``repro.bench`` run emits one document under
``benchmarks/results/`` (``BENCH_*.json``).  The document is versioned
(``schema`` / ``schema_version``) so downstream tooling — the CI smoke
job, trend plots, the golden-diff style comparisons — can reject files
it does not understand instead of misreading them.

The document carries the raw per-repetition ``samples`` next to the
derived median/p10/p90, so any consumer can re-derive (and
:func:`validate_document` re-checks) the statistics from first
principles.  No timestamps or hostnames are embedded: two runs on the
same interpreter differ only where the timings themselves differ.
"""

from __future__ import annotations

import platform
import sys

from repro.bench.harness import BenchContext, KernelResult, percentile

SCHEMA_ID = "repro.bench/result"
SCHEMA_VERSION = 1

#: Relative tolerance when re-checking derived statistics against the
#: raw samples (floating-point round-trip through JSON text).
_STAT_RTOL = 1e-9

_REQUIRED_KERNEL_FIELDS = {
    "name": str,
    "description": str,
    "unit": str,
    "better": str,
    "warmup": int,
    "reps": int,
    "ops_per_rep": int,
    "samples": list,
    "median": float,
    "p10": float,
    "p90": float,
}


def document_from_results(
    results: list[KernelResult],
    *,
    ctx: BenchContext,
    warmup: int,
    reps: int,
) -> dict:
    """Assemble the schema-versioned result document."""
    return {
        "schema": SCHEMA_ID,
        "schema_version": SCHEMA_VERSION,
        "seed": ctx.seed,
        "scale": ctx.scale,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "params": {"warmup": warmup, "reps": reps},
        "kernels": [
            {
                "name": r.name,
                "description": r.description,
                "unit": r.unit,
                "better": r.better,
                "warmup": r.warmup,
                "reps": r.reps,
                "ops_per_rep": r.ops_per_rep,
                "samples": list(r.samples),
                "median": r.median,
                "p10": r.p10,
                "p90": r.p90,
            }
            for r in results
        ],
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _STAT_RTOL * max(abs(a), abs(b), 1e-300)


def validate_document(doc: object) -> list[str]:
    """Validate a parsed result document; return a list of problems.

    An empty list means the document conforms.  Checks structure, types,
    and that the derived statistics match the embedded raw samples.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    if doc.get("schema") != SCHEMA_ID:
        errors.append(f"schema must be {SCHEMA_ID!r}, got {doc.get('schema')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    if not isinstance(doc.get("seed"), int):
        errors.append("seed must be an integer")
    if not isinstance(doc.get("scale"), (int, float)):
        errors.append("scale must be a number")
    if not isinstance(doc.get("python"), str):
        errors.append("python must be a version string")
    params = doc.get("params")
    if not isinstance(params, dict):
        errors.append("params must be an object")
    else:
        for key in ("warmup", "reps"):
            if not isinstance(params.get(key), int):
                errors.append(f"params.{key} must be an integer")
    kernels = doc.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        errors.append("kernels must be a non-empty list")
        return errors
    seen: set[str] = set()
    for i, entry in enumerate(kernels):
        where = f"kernels[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where} must be an object")
            continue
        for key, expected in _REQUIRED_KERNEL_FIELDS.items():
            value = entry.get(key)
            if expected is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif expected is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, expected)
            if not ok:
                errors.append(f"{where}.{key} must be {expected.__name__}")
        name = entry.get("name")
        if isinstance(name, str):
            if name in seen:
                errors.append(f"{where}: duplicate kernel name {name!r}")
            seen.add(name)
            where = f"kernels[{name}]"
        if entry.get("better") not in ("higher", "lower"):
            errors.append(f"{where}.better must be 'higher' or 'lower'")
        samples = entry.get("samples")
        if isinstance(samples, list):
            if not samples:
                errors.append(f"{where}.samples must be non-empty")
            elif not all(
                isinstance(s, (int, float)) and not isinstance(s, bool)
                for s in samples
            ):
                errors.append(f"{where}.samples must contain only numbers")
            else:
                if entry.get("reps") != len(samples):
                    errors.append(f"{where}.reps must equal len(samples)")
                for stat, q in (("median", 50.0), ("p10", 10.0), ("p90", 90.0)):
                    value = entry.get(stat)
                    if isinstance(value, (int, float)) and not _close(
                        float(value), percentile(list(samples), q)
                    ):
                        errors.append(
                            f"{where}.{stat} does not match its samples"
                        )
    return errors

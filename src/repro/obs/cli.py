"""``repro-zen2 obs`` — inspector for exported observability documents.

Subcommands:

* ``summarize FILE`` — per-track span/instant digest of a trace, or a
  family digest of a metrics snapshot (schema-sniffed);
* ``validate FILE [FILE ...]`` — run the bundled schema validators;
  exits 1 listing every problem found (CI runs this on the traced
  smoke-suite artifacts);
* ``merge OUT IN [IN ...]`` — merge trace documents into one
  Perfetto-loadable file, remapping process ids so runs stay distinct.
"""

from __future__ import annotations

import argparse
import sys

from repro.console import say
from repro.core.serialize import dump_json, load_json
from repro.obs.export import (
    merge_trace_documents,
    summarize_metrics,
    summarize_trace,
)
from repro.obs.schema import (
    METRICS_SCHEMA_ID,
    TRACE_SCHEMA_ID,
    sniff_schema,
    validate_document,
)


def _load(path: str) -> object:
    try:
        return load_json(path)
    except (OSError, ValueError, RecursionError) as exc:  # nesting too deep
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc  # EXC001: CLI boundary, exits with a message not a traceback


def _cmd_summarize(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    schema = sniff_schema(doc)
    if schema == TRACE_SCHEMA_ID:
        say(summarize_trace(doc))
    elif schema == METRICS_SCHEMA_ID:
        say(summarize_metrics(doc))
    else:
        print(f"error: {args.file}: unknown schema {schema!r}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        problems = validate_document(_load(path))
        if problems:
            status = 1
            say(f"{path}: INVALID")
            for problem in problems:
                say(f"  {problem}")
        else:
            say(f"{path}: ok ({sniff_schema(_load(path))})")
    return status


def _cmd_merge(args: argparse.Namespace) -> int:
    docs = []
    for path in args.inputs:
        doc = _load(path)
        if sniff_schema(doc) != TRACE_SCHEMA_ID:
            print(
                f"error: {path}: not a {TRACE_SCHEMA_ID} document",
                file=sys.stderr,
            )
            return 1
        docs.append(doc)
    merged = merge_trace_documents(docs)
    dump_json(merged, args.out)
    say(
        f"merged {len(docs)} traces "
        f"({merged['otherData']['records']} records) -> {args.out}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-zen2 obs",
        description="Inspect repro.obs trace/metrics documents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="digest a trace or metrics document")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("validate", help="run the bundled schema validators")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("merge", help="merge trace documents into one")
    p.add_argument("out")
    p.add_argument("inputs", nargs="+", metavar="IN")
    p.set_defaults(fn=_cmd_merge)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Whole-program dimensional-dataflow and determinism-taint analysis.

:func:`repro.lint.flow.analysis.analyze_program` runs the abstract
interpreter over the :mod:`repro.lint.flow.graph` program that
:mod:`repro.lint.deep` builds once for every whole-program pass.  This
package exports the rules it can emit (DIM001..DIM003, DET002).
"""

from repro.lint.flow.analysis import (
    RULE_BARE_LITERAL,
    RULE_DIM_MISMATCH,
    RULE_FLOAT_INTO_NS,
    RULE_TAINTED_STATE,
)

FLOW_RULE_TITLES: dict[str, str] = {
    RULE_DIM_MISMATCH: "dimension-mismatched arithmetic or cross-call flow",
    RULE_BARE_LITERAL: "bare numeric literal into a dimensioned parameter",
    RULE_FLOAT_INTO_NS: "float value reaching integer-nanosecond state",
    RULE_TAINTED_STATE: "nondeterminism taint reaching simulator state",
}

FLOW_RULE_IDS = set(FLOW_RULE_TITLES)

"""Whole-program effect and hot-path budget analysis.

Per-function effect summaries (:mod:`.summaries`) feed the hot-region
budget (:mod:`.hotpath`, regions from :mod:`.regions`), the obs guard
check (:mod:`.guards`) and the parallel-safety check (:mod:`.parsafe`);
:mod:`repro.lint.deep` runs them all over one shared program.  This
package exports the rules they can emit (HOT001-HOT003, OBS001, PAR001).
"""

from repro.lint.effects.guards import RULE_OBS_GUARD
from repro.lint.effects.hotpath import RULE_HOT_ALLOC, RULE_HOT_ATTR, RULE_HOT_EXC
from repro.lint.effects.parsafe import RULE_PAR_UNSAFE

EFFECTS_RULE_TITLES: dict[str, str] = {
    RULE_HOT_ALLOC: "per-event allocation inside a declared hot region",
    RULE_HOT_ATTR: "repeated dynamic attribute lookup in a hot loop",
    RULE_HOT_EXC: "exception-based control flow on the hot path",
    RULE_OBS_GUARD: "obs use not dominated by the 'is None' guard",
    RULE_PAR_UNSAFE: "un-picklable or fork-unsafe value into repro.parallel",
}

EFFECTS_RULE_IDS = set(EFFECTS_RULE_TITLES)

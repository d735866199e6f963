"""Whole-program effect rules.

The obs guard check (:mod:`.guards`) and the parallel-safety check
(:mod:`.parsafe`) share call resolution (:mod:`.resolver`);
:mod:`repro.lint.deep` runs both over one shared program.  This package
exports the rules they can emit (OBS001, PAR001).
"""

from repro.lint.effects.guards import RULE_OBS_GUARD
from repro.lint.effects.parsafe import RULE_PAR_UNSAFE

EFFECTS_RULE_TITLES: dict[str, str] = {
    RULE_OBS_GUARD: "obs use not dominated by the 'is None' guard",
    RULE_PAR_UNSAFE: "un-picklable or fork-unsafe value into repro.parallel",
}

EFFECTS_RULE_IDS = set(EFFECTS_RULE_TITLES)

"""Whole-program effect rules.

The obs guard check (:mod:`.guards`, OBS001) resolves call sites
through :mod:`.resolver`; :mod:`repro.lint.deep` runs it over the one
shared program.  This package exports the rule it can emit.
"""

from repro.lint.effects.guards import RULE_OBS_GUARD

EFFECTS_RULE_TITLES: dict[str, str] = {
    RULE_OBS_GUARD: "obs use not dominated by the 'is None' guard",
}

EFFECTS_RULE_IDS = set(EFFECTS_RULE_TITLES)

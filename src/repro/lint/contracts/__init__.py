"""Whole-program structural-contract analysis.

Proves the tree's layering *before* any simulation runs, against the
declarations in ``lint.json``: module-scope imports must respect the
declared layer DAG (CON010, :mod:`.layers`), so ``core``/``sim``/
``power``/``machine`` never pull in ``obs``/``lint``/``cli`` and
``repro.cli`` imports no other layer until a command needs it.

:mod:`repro.lint.deep` runs the check; this package exports the rule
it can emit.
"""

from repro.lint.contracts.layers import RULE_LAYER

CONTRACTS_RULE_TITLES: dict[str, str] = {
    RULE_LAYER: "module-scope import crosses a declared layer boundary",
}

CONTRACTS_RULE_IDS = set(CONTRACTS_RULE_TITLES)

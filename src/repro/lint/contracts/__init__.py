"""Whole-program structural-contract analysis.

Proves the tree's structural contracts *before* any simulation runs,
against the declarations in ``lint.json``:

* **layering** (CON010, :mod:`.layers`) — module-scope imports must
  respect the declared layer DAG (``core``/``sim``/``power``/``machine``
  never pull in ``bench``/``obs``/``lint``/``cli``);
* **schema registry** (CON020/CON021, :mod:`.schemas`) — every
  ``"schema"`` family has exactly one writer and one validator,
  field-set drift requires a version bump recorded in the manifest's
  ``schemas`` section, and every validator is exercised by some test.

:mod:`repro.lint.deep` runs both checks; this package exports the rules
they can emit.
"""

from repro.lint.contracts.layers import RULE_LAYER
from repro.lint.contracts.schemas import RULE_DEAD_VALIDATOR, RULE_REGISTRY

CONTRACTS_RULE_TITLES: dict[str, str] = {
    RULE_LAYER: "module-scope import crosses a declared layer boundary",
    RULE_REGISTRY: "schema family violates the committed registry snapshot",
    RULE_DEAD_VALIDATOR: "schema validator referenced by no test",
}

CONTRACTS_RULE_IDS = set(CONTRACTS_RULE_TITLES)

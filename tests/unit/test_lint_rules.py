"""Good/bad fixture pairs for every static lint rule.

Each rule gets at least one snippet that must trigger it and one
"correct idiom" snippet that must stay silent — the rules are only
useful if both directions hold.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import LintError
from repro.lint import lint_paths, lint_source
from repro.lint.formatters import format_human, format_json, format_sarif
from repro.lint.rules import all_rules, rules_by_id


def findings_for(source: str, rule_id: str | None = None):
    findings, _ = lint_source(source)
    if rule_id is None:
        return findings
    return [f for f in findings if f.rule == rule_id]


def rules_hit(source: str) -> set[str]:
    return {f.rule for f in findings_for(source)}


# ---------------------------------------------------------------------------
# DET001: nondeterminism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "import time\nt = time.time()\n",
        "import time as clock\nt = clock.monotonic()\n",
        "from time import perf_counter\nt = perf_counter()\n",
        "from datetime import datetime\nd = datetime.now()\n",
        "import datetime\nd = datetime.datetime.utcnow()\n",
        "import random\nx = random.random()\n",
        "from random import randint\nx = randint(0, 3)\n",
        "import numpy as np\nx = np.random.rand(4)\n",
        "import numpy as np\ng = np.random.default_rng()\n",  # unseeded
        "d = {}\nk, v = d.popitem()\n",
        "for x in {1, 2, 3}:\n    pass\n",
        "vals = [v for v in set(items)]\n",
    ],
)
def test_det001_flags_nondeterminism(source):
    assert rules_hit(source) == {"DET001"}


@pytest.mark.parametrize(
    "source",
    [
        "from repro.sim.rng import RngFactory\nrng = RngFactory(0)\n",
        "x = rng.child('noise').normal()\n",
        "import numpy as np\ng = np.random.default_rng(7)\n",  # seeded
        "import random\nr = random.Random(3)\n",  # seeded instance
        "from numpy.random import Generator, PCG64\ng = Generator(PCG64(1))\n",
        "for x in sorted({1, 2, 3}):\n    pass\n",
        "d = {}\nfor k in d:\n    pass\n",  # dicts are insertion-ordered
    ],
)
def test_det001_allows_seeded_idioms(source):
    assert "DET001" not in rules_hit(source)


# ---------------------------------------------------------------------------
# UNIT001: unit suffixes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "def f(delay_ns: float):\n    pass\n",
        "def g() -> float:\n    pass\n".replace("g", "wait_ns"),
        "t_ns: float = 0.0\n",
        "power_w: int = 3\n",
        "t_ns = 1.5\n",
        "t_ns = total_ns / 2\n",
        "t_ns = base_ns + 0.5\n",
        "t_ns += extra / count\n",
        "time_ns = delay_us\n",
        "self.period_ns = interval_ms\n",
        "freq_hz = power_w\n",  # cross-dimension
        "f(time_ns=delay_us)\n",
        "g(power_w=volts_v)\n",  # kwarg, cross-dimension
        "t_ns += delta_us\n",  # augmented, cross-scale
        "t_ns += base_ns / 4\n",  # augmented, float result
        "t_ns, f_hz = delay_us, clock_hz\n",  # tuple unpack, first pair
        "a_hz, b_ns = base_hz, 2.5\n",  # tuple unpack, float literal
        "(x_ns, y_ns) = [start_ns, stop_us]\n",  # list/tuple mix
    ],
)
def test_unit001_flags_suffix_misuse(source):
    assert rules_hit(source) == {"UNIT001"}


@pytest.mark.parametrize(
    "source",
    [
        "def f(delay_ns: int) -> int:\n    return delay_ns\n",
        "t_ns = round(raw * scale)\n",
        "t_ns = int(total / 2)\n",
        "from repro.units import us\nt_ns = us(5)\n",
        "power_w: float = 3.0\n",
        "time_ns = other_ns\n",  # same suffix
        "f(time_ns=start_ns)\n",
        "plain = 1.5\n",  # no recognized suffix
        "t_ns, f_hz = base_ns, clock_hz\n",  # tuple unpack, consistent
        "t_ns, *rest_us = values\n",  # starred: out of scope
        "t_ns, extra = unpack_me()\n",  # arity unknown: out of scope
        "t_ns += step_ns\n",  # augmented, same suffix
    ],
)
def test_unit001_allows_consistent_units(source):
    assert "UNIT001" not in rules_hit(source)


# ---------------------------------------------------------------------------
# EXC001: exception hierarchy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        'raise ValueError("bad")\n',
        'raise RuntimeError("boom")\n',
        'def f():\n    raise KeyError("missing")\n',
    ],
)
def test_exc001_flags_unjustified_builtins(source):
    assert rules_hit(source) == {"EXC001"}


@pytest.mark.parametrize(
    "source",
    [
        'raise ValueError("bad")  # EXC001: argument validation\n',
        '# EXC001: mapping facade\nraise KeyError("missing")\n',
        "from repro.errors import SimulationError\n"
        'raise SimulationError("clock")\n',
        "from repro.errors import ReproError\n"
        "class MyError(ReproError):\n    pass\n"
        'def f():\n    raise MyError("x")\n',
        "try:\n    pass\nexcept ValueError as err:\n    raise err\n",
        "def f():\n    raise\n",  # bare re-raise
    ],
)
def test_exc001_allows_hierarchy_and_justified(source):
    assert "EXC001" not in rules_hit(source)


# ---------------------------------------------------------------------------
# SIM001: simulator re-entry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "source",
    [
        "def cb():\n    sim.run_until(10)\nsim.schedule_after(5, cb)\n",
        "def cb():\n    machine.sim.run_for(100)\nsim.schedule_at(5, cb)\n",
        "sim.schedule_after(5, lambda: sim.step())\n",
        "def cb():\n    sim.run_quanta(2000, 10)\nsim.schedule_after(5, cb)\n",
        "sim.periodic(10, cb, phase_ns=3)\n"
        "def cb():\n    sim.run_until(99)\n",
        "sim._now_ns = 5\n",  # clock mutation anywhere
        "self.sim.now_ns = 0\n",
    ],
)
def test_sim001_flags_reentry(source):
    assert rules_hit(source) == {"SIM001"}


@pytest.mark.parametrize(
    "source",
    [
        # callbacks may schedule more events, just not drive the clock
        "def cb():\n    sim.schedule_after(10, cb)\nsim.schedule_after(5, cb)\n",
        "def elsewhere():\n    sim.run_until(10)\n",  # not a callback
        "now = sim.now_ns\n",  # reading the clock is fine
        "sim.periodic(10, tick, phase_ns=3)\ndef tick():\n    count.append(1)\n",
    ],
)
def test_sim001_allows_scheduling_from_callbacks(source):
    assert "SIM001" not in rules_hit(source)


# ---------------------------------------------------------------------------
# suppressions, selection, formatters
# ---------------------------------------------------------------------------


def test_inline_suppression_counts_but_hides():
    findings, suppressed = lint_source(
        "import time\nt = time.time()  # lint: disable=DET001\n"
    )
    assert findings == [] and suppressed == 1


def test_inline_suppression_is_rule_specific():
    findings, suppressed = lint_source(
        "import time\nt = time.time()  # lint: disable=UNIT001\n"
    )
    assert suppressed == 0
    # The mismatched suppression hides nothing (DET001 still fires) and
    # is itself reported as stale (LINT001).
    assert sorted(f.rule for f in findings) == ["DET001", "LINT001"]


def test_file_level_suppression():
    findings, suppressed = lint_source(
        "# lint: disable-file=DET001 — fixture\n"
        "import time\na = time.time()\nb = time.time()\n"
    )
    assert findings == [] and suppressed == 2


def test_stale_inline_suppression_is_lint001():
    findings, suppressed = lint_source("x = 1  # lint: disable=DET001\n")
    assert suppressed == 0
    assert [(f.rule, f.severity, f.line) for f in findings] == [
        ("LINT001", "warning", 1)
    ]
    assert "DET001" in findings[0].message


def test_stale_file_level_suppression_is_lint001():
    findings, _ = lint_source("# lint: disable-file=UNIT001\nx = 1\n")
    assert [(f.rule, f.line) for f in findings] == [("LINT001", 1)]


def test_used_suppression_is_not_stale():
    findings, suppressed = lint_source(
        "import time\nt = time.time()  # lint: disable=DET001\n"
    )
    assert findings == [] and suppressed == 1


def test_lint001_is_itself_suppressible():
    findings, suppressed = lint_source(
        "x = 1  # lint: disable=DET001,LINT001\n"
    )
    assert findings == [] and suppressed == 1


def test_suppression_inside_string_literal_is_inert():
    findings, suppressed = lint_source(
        's = "quoted  # lint: disable=DET001"\n'
    )
    assert findings == [] and suppressed == 0


def test_syntax_error_becomes_parse_finding():
    findings, _ = lint_source("def f(:\n")
    assert [f.rule for f in findings] == ["PARSE"]


def test_rule_selection_and_unknown_rule():
    assert {r.rule_id for r in all_rules()} == {
        "DET001",
        "UNIT001",
        "EXC001",
        "SIM001",
        "OBS001",
    }
    only = all_rules(select=["DET001"])
    assert [r.rule_id for r in only] == ["DET001"]
    with pytest.raises(LintError):
        all_rules(select=["NOPE999"])
    assert "UNIT001" in rules_by_id()


def test_lint_paths_and_formatters(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\nx_ns = 1.5\n")
    report = lint_paths([str(bad)])
    assert report.files_checked == 1
    assert not report.clean
    assert report.counts_by_rule() == {"DET001": 1, "UNIT001": 1}

    human = format_human(report)
    assert "bad.py:2" in human and "DET001" in human

    data = json.loads(format_json(report))
    assert data["files_checked"] == 1
    assert data["counts_by_rule"] == {"DET001": 1, "UNIT001": 1}
    assert {f["rule"] for f in data["findings"]} == {"DET001", "UNIT001"}


def test_lint_paths_missing_path():
    with pytest.raises(LintError):
        lint_paths(["/no/such/dir-xyz"])


#: (rule, module source, text at the position the finding names).
#: LINT002 names the whole line, so its position is the line start.
COLUMN_CASES = [
    ("DET001", "import time\n\n\ndef f():\n    x = time.time()\n", "time.time()"),
    ("OBS001", "class E:\n    def f(self):\n        self._obs_n.inc(1)\n", "self._obs_n"),
    ("CON010", "import os\n\nif os.sep:\n    import high\n", "import high"),
    ("PARSE", "def f(:\n", ":"),
    ("LINT002", "x = 1  # lint: disable=OBS001\n", "x = 1"),
]


@pytest.mark.parametrize(
    "rule, source, needle", COLUMN_CASES, ids=[case[0] for case in COLUMN_CASES]
)
def test_human_sarif_and_source_columns_agree(rule, source, needle, tmp_path):
    # `Finding.col` is 1-based; the human and SARIF outputs print it as is.
    path = tmp_path / "low.py"
    path.write_text(source)
    manifest = tmp_path / "lint.json"
    layers = {"assign": {"low": ["low"], "high": ["high"]}, "allow": {}}
    manifest.write_text(json.dumps({"version": 1, "layers": layers}))
    report = lint_paths([str(path)], manifest=str(manifest))
    report.findings = [
        f for f in report.findings if f.rule == rule and f.path == str(path)
    ]
    (finding,) = report.findings
    col = source.splitlines()[finding.line - 1].index(needle) + 1
    human = format_human(report).splitlines()[0]
    assert human.startswith(f"{path}:{finding.line}:{col}: {rule} ")
    (result,) = json.loads(format_sarif(report))["runs"][0]["results"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": finding.line, "startColumn": col}


# ---------------------------------------------------------------------------
# source reading: encodings
# ---------------------------------------------------------------------------


class TestReadSource:
    def test_pep263_cookie_is_honoured(self, tmp_path):
        from repro.lint.engine import read_source

        path = tmp_path / "legacy.py"
        path.write_bytes(
            b"# -*- coding: latin-1 -*-\n# caf\xe9\nx = 1\n"
        )
        source = read_source(str(path))
        assert "café" in source and "x = 1" in source

    def test_utf8_bom_is_stripped(self, tmp_path):
        from repro.lint.engine import read_source

        path = tmp_path / "bom.py"
        path.write_bytes(b"\xef\xbb\xbfx = 1\n")
        source = read_source(str(path))
        assert source.startswith("x = 1")

    def test_utf8_is_the_default(self, tmp_path):
        from repro.lint.engine import read_source

        path = tmp_path / "plain.py"
        path.write_bytes("t_ns = 0  # délai\n".encode("utf-8"))
        assert "délai" in read_source(str(path))

    def test_undecodable_bytes_raise_lint_error(self, tmp_path):
        from repro.lint.engine import read_source

        path = tmp_path / "broken.py"
        path.write_bytes(b"x = 1\n\xff\xfe\xff invalid utf-8\n")
        with pytest.raises(LintError, match="cannot decode"):
            read_source(str(path))

    def test_bogus_cookie_raises_lint_error(self, tmp_path):
        from repro.lint.engine import read_source

        path = tmp_path / "cookie.py"
        path.write_bytes(b"# -*- coding: no-such-codec -*-\nx = 1\n")
        with pytest.raises(LintError, match="cannot decode"):
            read_source(str(path))

    def test_lint_paths_reads_cookie_files(self, tmp_path):
        path = tmp_path / "legacy.py"
        path.write_bytes(b"# -*- coding: latin-1 -*-\nv_mv = 1.0  # \xb5V\n")
        report = lint_paths([str(path)])
        assert report.files_checked == 1

"""Unit tests for the repo-specific AST linter (repro.check.lint)."""

from pathlib import Path

import pytest

from repro.check.lint import (
    ALLOWLIST,
    RULES,
    lint_paths,
    lint_source,
    module_name_for,
    render_findings,
)

CAMPAIGN_PATH = "src/repro/campaign/planted.py"


def rules_of(findings):
    return [finding.rule for finding in findings]


def test_module_name_resolution():
    assert module_name_for("src/repro/campaign/store.py") == "repro.campaign.store"
    assert module_name_for("src/repro/check/__init__.py") == "repro.check"
    assert module_name_for("/tmp/scratch/notes.py") == "notes"


# --------------------------------------------------------------------- #
# R001 wall-clock
# --------------------------------------------------------------------- #
def test_r001_wall_clock_in_campaign_module():
    source = (
        "import time\n"
        "def stamp(record):\n"
        "    record['at'] = time.time()\n"
    )
    findings = lint_source(source, path=CAMPAIGN_PATH)
    assert rules_of(findings) == ["R001"]
    assert findings[0].line == 3
    assert "time.time" in findings[0].message


def test_r001_resolves_import_aliases():
    source = (
        "from time import time as now\n"
        "def stamp():\n"
        "    return now()\n"
    )
    findings = lint_source(source, path=CAMPAIGN_PATH)
    assert rules_of(findings) == ["R001"]


def test_r001_datetime_now():
    source = (
        "import datetime\n"
        "def stamp():\n"
        "    return datetime.datetime.now()\n"
    )
    assert rules_of(lint_source(source, path=CAMPAIGN_PATH)) == ["R001"]


def test_r001_monotonic_clocks_allowed():
    source = (
        "import time\n"
        "def elapsed(t0):\n"
        "    return time.monotonic() - t0, time.perf_counter()\n"
    )
    assert lint_source(source, path=CAMPAIGN_PATH) == []


def test_r001_covers_the_bar_timers():
    # The acceptance bars time through repro.perf: its clock must stay
    # monotonic.  (A helper under benchmarks/ would be out of scope.)
    wall = "import time\ndef timed():\n    return time.time()\n"
    assert rules_of(lint_source(wall, path="src/repro/perf.py")) == ["R001"]
    assert lint_source(wall, path="benchmarks/bench_x.py") == []
    monotonic = "import time\ndef timed():\n    return time.perf_counter()\n"
    assert lint_source(monotonic, path="src/repro/perf.py") == []


@pytest.mark.parametrize("call", [
    "time.time()",
    "time.time_ns()",
    "datetime.datetime.now()",
    "datetime.datetime.utcnow()",
    "datetime.datetime.today()",
    "datetime.date.today()",
])
def test_r001_flags_every_wall_clock_in_the_bar_timers(call):
    source = f"import {call.split('.')[0]}\n\ndef timed():\n    return {call}\n"
    findings = lint_source(source, path="src/repro/perf.py")
    assert rules_of(findings) == ["R001"]
    assert findings[0].line == 4


def test_r001_outside_deterministic_scope_is_silent():
    source = "import time\nT = time.time()\n"
    assert lint_source(source, path="src/repro/sat/solver.py") == []


# --------------------------------------------------------------------- #
# R002 unseeded random
# --------------------------------------------------------------------- #
def test_r002_global_random_in_experiments_module():
    source = (
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n"
    )
    findings = lint_source(source, path="src/repro/experiments/planted.py")
    assert rules_of(findings) == ["R002"]


def test_r002_seeded_rng_instance_allowed():
    source = (
        "import random\n"
        "def pick(items, seed):\n"
        "    return random.Random(seed).choice(items)\n"
    )
    assert lint_source(source, path=CAMPAIGN_PATH) == []


# --------------------------------------------------------------------- #
# R003 raw json.loads loops
# --------------------------------------------------------------------- #
def test_r003_json_loads_in_loop():
    source = (
        "import json\n"
        "def read(path):\n"
        "    out = []\n"
        "    for line in open(path):\n"
        "        out.append(json.loads(line))\n"
        "    return out\n"
    )
    findings = lint_source(source, path="src/repro/tools/planted.py")
    assert rules_of(findings) == ["R003"]
    assert findings[0].line == 5


def test_r003_single_loads_outside_loop_allowed():
    source = "import json\ndef read(text):\n    return json.loads(text)\n"
    assert lint_source(source, path="src/repro/tools/planted.py") == []


def test_r003_exempts_jsonutil():
    source = (
        "import json\n"
        "def read(path):\n"
        "    for line in open(path):\n"
        "        yield json.loads(line)\n"
    )
    assert lint_source(source, path="src/repro/jsonutil.py") == []


# --------------------------------------------------------------------- #
# R004 hot-loop call discipline
# --------------------------------------------------------------------- #
def test_r004_trace_event_inside_marked_loop():
    source = (
        "def propagate(trail, trace_event):\n"
        "    i = 0\n"
        "    while i < len(trail):  # hot-loop\n"
        "        trace_event('step')\n"
        "        i += 1\n"
    )
    findings = lint_source(source, path="src/repro/sat/planted.py")
    assert rules_of(findings) == ["R004"]
    assert findings[0].line == 4


def test_r004_allocation_heavy_builtin_inside_marked_loop():
    source = (
        "def propagate(watches):\n"
        "    # hot-loop\n"
        "    for lst in watches:\n"
        "        snapshot = sorted(lst)\n"
    )
    assert rules_of(lint_source(source, path="src/repro/sat/planted.py")) == ["R004"]


def test_r004_emit_attribute_inside_marked_loop():
    source = (
        "def propagate(self):\n"
        "    for lit in self.trail:  # hot-loop\n"
        "        self.trace.emit('propagate')\n"
    )
    assert rules_of(lint_source(source, path="src/repro/sat/planted.py")) == ["R004"]


def test_r004_unmarked_loop_is_free():
    source = (
        "def report(rows, trace_event):\n"
        "    for row in rows:\n"
        "        trace_event(row)\n"
    )
    assert lint_source(source, path="src/repro/sat/planted.py") == []


def test_r004_cheap_calls_allowed_in_marked_loop():
    source = (
        "def propagate(trail):\n"
        "    total = 0\n"
        "    for lit in trail:  # hot-loop\n"
        "        total += abs(lit) + len(trail)\n"
        "    return total\n"
    )
    assert lint_source(source, path="src/repro/sat/planted.py") == []


# --------------------------------------------------------------------- #
# R005 to_dict / from_dict round trip
# --------------------------------------------------------------------- #
def test_r005_missing_from_dict():
    source = (
        "class Payload:\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a}\n"
    )
    findings = lint_source(source, path="src/repro/campaign/planted.py")
    assert rules_of(findings) == ["R005"]
    assert "from_dict" in findings[0].message


def test_r005_key_written_but_never_read():
    source = (
        "class Payload:\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a, 'b': self.b}\n"
        "    @classmethod\n"
        "    def from_dict(cls, data):\n"
        "        return cls(a=data['a'])\n"
    )
    findings = lint_source(source, path="src/repro/campaign/planted.py")
    assert rules_of(findings) == ["R005"]
    assert "'b'" in findings[0].message


def test_r005_complete_roundtrip_clean():
    source = (
        "class Payload:\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a, 'b': self.b}\n"
        "    @classmethod\n"
        "    def from_dict(cls, data):\n"
        "        return cls(a=data['a'], b=data.get('b', 0))\n"
    )
    assert lint_source(source, path="src/repro/campaign/planted.py") == []


def test_r005_dynamic_from_dict_tolerated():
    source = (
        "class Payload:\n"
        "    FIELDS = ('a', 'b')\n"
        "    def to_dict(self):\n"
        "        return {'a': self.a, 'b': self.b, 'kind': 'payload'}\n"
        "    @classmethod\n"
        "    def from_dict(cls, data):\n"
        "        return cls(**{name: data.get(name) for name in cls.FIELDS})\n"
    )
    assert lint_source(source, path="src/repro/campaign/planted.py") == []


# --------------------------------------------------------------------- #
# R006 except-swallow
# --------------------------------------------------------------------- #
def test_r006_bare_except():
    source = (
        "try:\n"
        "    work()\n"
        "except:\n"
        "    recover()\n"
    )
    findings = lint_source(source, path="anywhere.py")
    assert rules_of(findings) == ["R006"]
    assert "bare except" in findings[0].message
    assert findings[0].line == 3


def test_r006_broad_except_pass_body():
    source = (
        "try:\n"
        "    work()\n"
        "except Exception:\n"
        "    pass\n"
    )
    findings = lint_source(source, path="anywhere.py")
    assert rules_of(findings) == ["R006"]
    assert "swallows" in findings[0].message


def test_r006_base_exception_in_tuple():
    source = (
        "try:\n"
        "    work()\n"
        "except (ValueError, BaseException):\n"
        "    ...\n"
    )
    assert rules_of(lint_source(source, path="anywhere.py")) == ["R006"]


def test_r006_broad_except_with_handling_allowed():
    source = (
        "try:\n"
        "    work()\n"
        "except Exception as exc:\n"
        "    log(exc)\n"
        "    raise\n"
    )
    assert lint_source(source, path="anywhere.py") == []


def test_r006_narrow_except_pass_allowed():
    source = (
        "try:\n"
        "    work()\n"
        "except (OSError, KeyError):\n"
        "    pass\n"
    )
    assert lint_source(source, path="anywhere.py") == []


def test_r006_inline_suppression():
    source = (
        "try:\n"
        "    work()\n"
        "except Exception:  # repro-lint: disable=R006 (best-effort cleanup)\n"
        "    pass\n"
    )
    assert lint_source(source, path="anywhere.py") == []


# --------------------------------------------------------------------- #
# suppressions and the allowlist
# --------------------------------------------------------------------- #
def test_inline_suppression():
    source = (
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # repro-lint: disable=R001\n"
    )
    assert lint_source(source, path=CAMPAIGN_PATH) == []


def test_inline_suppression_wrong_rule_does_not_apply():
    source = (
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # repro-lint: disable=R002\n"
    )
    assert rules_of(lint_source(source, path=CAMPAIGN_PATH)) == ["R001"]


def test_file_level_suppression():
    source = (
        "# repro-lint: disable-file=R001\n"
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
        "def stamp2():\n"
        "    return time.time()\n"
    )
    assert lint_source(source, path=CAMPAIGN_PATH) == []


def test_allowlist_entry_matches_rule_module_and_qualname():
    source = (
        "import time\n"
        "class ResultStore:\n"
        "    def append(self, record):\n"
        "        record.setdefault('finished_at', time.time())\n"
    )
    # The shipped allowlist entry (R001, repro.campaign.store,
    # ResultStore.append) silences exactly this call...
    assert lint_source(source, path="src/repro/campaign/store.py") == []
    # ...but not the same call in another class or module.
    assert rules_of(
        lint_source(source.replace("ResultStore", "OtherStore"),
                    path="src/repro/campaign/store.py")
    ) == ["R001"]
    assert rules_of(
        lint_source(source, path="src/repro/campaign/spec.py")
    ) == ["R001"]


def test_shipped_allowlist_is_minimal_and_documented():
    assert set(ALLOWLIST) == {
        ("R001", "repro.campaign.store", "ResultStore.append"),
    }
    for reason in ALLOWLIST.values():
        assert reason.strip()


# --------------------------------------------------------------------- #
# R007 unused-import
# --------------------------------------------------------------------- #
def test_r007_unread_imports():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List\n"
        "from .sibling import helper\n"
        "def load(path) -> List[str]:\n"
        "    from json import loads, dumps\n"
        "    return loads(osp.join(path))\n"
    )
    findings = lint_source(source, path="anywhere.py")
    assert rules_of(findings) == ["R007"] * 4
    assert [(f.line, f.message.split()[0]) for f in findings] == [
        (1, "'os'"), (3, "'Dict'"), (4, "'helper'"), (6, "'dumps'"),
    ]


def test_r007_exempts_future_all_and_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "from repro.netlist.circuit import Circuit\n"
        "from repro.netlist.gates import Gate, GateType\n"
        "from repro.sat.cnf import *\n"
        "if TYPE_CHECKING:\n"
        "    from repro.sat.tseitin import TseitinEncoder\n"
        "__all__ = ['Circuit']\n"
        "__all__ += ('GateType',)\n"
        "def encode(gate: 'Optional[Gate]', encoder: 'TseitinEncoder') -> None:\n"
        "    pass\n"
    )
    assert lint_source(source, path="anywhere.py") == []


def test_r007_inline_suppression():
    source = "import readline  # repro-lint: disable=R007 (imported for its side effect)\n"
    assert lint_source(source, path="anywhere.py") == []


# --------------------------------------------------------------------- #
# file plumbing
# --------------------------------------------------------------------- #
def test_lint_paths_walks_trees_and_orders_findings(tmp_path):
    package = tmp_path / "repro" / "campaign"
    package.mkdir(parents=True)
    (package / "b.py").write_text("import time\nT = time.time()\n")
    (package / "a.py").write_text(
        "import random\nV = random.random()\nW = random.randint(0, 1)\n"
    )
    findings = lint_paths([tmp_path])
    assert [Path(f.path).name for f in findings] == ["a.py", "a.py", "b.py"]
    assert rules_of(findings) == ["R002", "R002", "R001"]


def test_syntax_error_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = lint_paths([bad])
    assert rules_of(findings) == ["R000"]


def test_render_findings_format():
    findings = lint_source(
        "import time\nT = time.time()\n", path=CAMPAIGN_PATH
    )
    text = render_findings(findings)
    assert f"{CAMPAIGN_PATH}:2:" in text
    assert "R001" in text and "1 finding(s)" in text
    assert render_findings([]) == "repro check lint: clean"


def test_shipped_tree_is_lint_clean():
    assert render_findings(lint_paths(["src"])) == "repro check lint: clean"


def test_rule_catalogue_is_stable():
    assert sorted(RULES) == ["R001", "R002", "R003", "R004", "R005", "R006", "R007"]

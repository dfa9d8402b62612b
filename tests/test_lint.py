"""Tests for the ``repro lint`` determinism & shard-safety analyzer.

Every rule has a fixture pair under ``tests/lint_fixtures``: a
``*_flagged.py`` file it must fire on and a ``*_clean.py`` twin it must
stay quiet on.  The fixtures live outside the ``repro`` package, so the
package-scoped rule families (D101/D102, P401) are forced onto them
with the ``"*"`` wildcard module prefix, and R501's pair is linted as a
copy placed under ``src/repro``.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths
from repro.lint.baseline import (BaselineError, filter_baselined,
                                 load_baseline, write_baseline)
from repro.lint.cli import main
from repro.lint.config import module_name_for
from repro.lint.driver import lint_file
from repro.lint.registry import all_rules, rules_matching
from repro.lint.rules.invariants import INVARIANTS, tree_path

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent

RULE_IDS = ("D101", "D102", "D103", "D104",
            "S201", "S202", "S203", "K301", "K302", "P401", "R501")

#: Forces deterministic-module and hot-module rule families onto fixture
#: files, whose derived module names sit outside the repro package.
WILDCARD = ("--deterministic-modules", "*", "--hot-modules", "*")


def wildcard_config(rule_id=None):
    return LintConfig(deterministic_prefixes=("*",), hot_prefixes=("*",),
                      select=(rule_id,) if rule_id else ())


def lint_fixture(name, rule_id, tmp_path):
    path = FIXTURES / name
    if rule_id == "R501":
        # R501 scopes by tree path: its fixtures' rows do not cover
        # tests/, so the pair is linted as a copy under src/repro.
        path = tmp_path / "src" / "repro" / name
        path.parent.mkdir(parents=True)
        shutil.copyfile(FIXTURES / name, path)
    findings, files_checked = lint_paths([str(path)],
                                         wildcard_config(rule_id))
    assert files_checked == 1
    return findings


# ----------------------------------------------------------------------
# rule catalog + fixture pairs
# ----------------------------------------------------------------------
def test_catalog_covers_documented_rules():
    assert {r.id for r in all_rules()} >= set(RULE_IDS)


def test_every_rule_documents_itself():
    for r in all_rules():
        assert r.id and r.name and r.rationale, r


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_flagged_fixture(rule_id, tmp_path):
    findings = lint_fixture(f"{rule_id.lower()}_flagged.py", rule_id,
                            tmp_path)
    assert findings, f"{rule_id} stayed quiet on its flagged fixture"
    assert {f.rule for f in findings} == {rule_id}
    for finding in findings:
        assert finding.line >= 1 and finding.col >= 1
        assert finding.message


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_quiet_on_clean_fixture(rule_id, tmp_path):
    findings = lint_fixture(f"{rule_id.lower()}_clean.py", rule_id,
                            tmp_path)
    assert findings == [], f"{rule_id} fired on its clean fixture"


def test_unknown_selector_raises():
    with pytest.raises(ValueError, match="matches no rule"):
        rules_matching(("Z999",))


def test_prefix_selector_expands():
    assert [r.id for r in rules_matching(("D",))] == \
        ["D101", "D102", "D103", "D104"]


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def _lint_source(tmp_path, source, rule_id):
    path = tmp_path / "snippet.py"
    path.write_text(source)
    return lint_file(str(path), wildcard_config(rule_id))


def test_same_line_suppression(tmp_path):
    bare = "def earlier(a, b):\n    return id(a) < id(b)\n"
    assert _lint_source(tmp_path, bare, "D104")
    suppressed = ("def earlier(a, b):\n"
                  "    return id(a) < id(b)  # repro-lint: disable=D104\n")
    assert _lint_source(tmp_path, suppressed, "D104") == []


def test_own_line_suppression_covers_next_line(tmp_path):
    source = ("def earlier(a, b):\n"
              "    # repro-lint: disable=D104\n"
              "    return id(a) < id(b)\n")
    assert _lint_source(tmp_path, source, "D104") == []


def test_suppression_all_wildcard(tmp_path):
    source = ("def earlier(a, b):\n"
              "    return id(a) < id(b)  # repro-lint: disable=all\n")
    assert _lint_source(tmp_path, source, "D104") == []


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    source = ("def earlier(a, b):\n"
              "    return id(a) < id(b)  # repro-lint: disable=D101\n")
    assert _lint_source(tmp_path, source, "D104")


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    findings, _ = lint_paths(
        [str(FIXTURES / "d104_flagged.py")], wildcard_config("D104"))
    assert findings
    baseline_path = tmp_path / "baseline.json"
    entries = write_baseline(str(baseline_path), findings)
    assert entries >= 1
    allowed = load_baseline(str(baseline_path))
    assert filter_baselined(findings, allowed) == []


def test_baseline_counts_cap_duplicates(tmp_path):
    one = tmp_path / "one.py"
    one.write_text("def f(a, b):\n    return id(a) < id(b)\n")
    findings = lint_file(str(one), wildcard_config("D104"))
    assert len(findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(str(baseline_path), findings)
    # A second, textually identical violation exceeds the budget of 1.
    one.write_text("def f(a, b):\n"
                   "    return id(a) < id(b)\n"
                   "\n\n"
                   "def g(a, b):\n"
                   "    return id(a) < id(b)\n")
    doubled = lint_file(str(one), wildcard_config("D104"))
    assert len(doubled) == 2
    kept = filter_baselined(doubled, load_baseline(str(baseline_path)))
    assert len(kept) == 1


def test_malformed_baseline_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(BaselineError):
        load_baseline(str(bad))
    bad.write_text('{"version": 99, "entries": []}')
    with pytest.raises(BaselineError, match="version"):
        load_baseline(str(bad))


# ----------------------------------------------------------------------
# CLI surface (exit codes, formats, baseline flags)
# ----------------------------------------------------------------------
def test_cli_exit_one_on_findings(capsys):
    rc = main([str(FIXTURES / "d104_flagged.py"), "--select", "D104",
               *WILDCARD])
    assert rc == 1
    out = capsys.readouterr().out
    assert "D104" in out and "repro lint:" in out


def test_cli_exit_zero_on_clean(capsys):
    rc = main([str(FIXTURES / "d104_clean.py"), "--select", "D104",
               *WILDCARD])
    assert rc == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exit_two_on_usage_errors(tmp_path, capsys):
    assert main([str(FIXTURES), "--select", "Z999"]) == 2
    assert main([str(tmp_path / "missing-dir-or-file")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main([str(FIXTURES / "d104_clean.py"),
                 "--baseline", str(bad)]) == 2


def test_cli_json_report(capsys):
    rc = main([str(FIXTURES / "d104_flagged.py"), "--select", "D104",
               "--format", "json", *WILDCARD])
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files_checked"] == 1
    assert report["total"] == len(report["findings"]) > 0
    assert set(report["counts_by_rule"]) == {"D104"}
    first = report["findings"][0]
    assert {"rule", "path", "line", "col", "message", "text"} <= set(first)


def test_cli_baseline_flags_round_trip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    flagged = str(FIXTURES / "d104_flagged.py")
    assert main([flagged, "--select", "D104", *WILDCARD,
                 "--write-baseline", str(baseline)]) == 0
    assert main([flagged, "--select", "D104", *WILDCARD,
                 "--baseline", str(baseline)]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


def test_syntax_error_becomes_e999(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    findings = lint_file(str(broken))
    assert [f.rule for f in findings] == ["E999"]


# ----------------------------------------------------------------------
# self-test: seeding a violation into a copy of the real engine
# ----------------------------------------------------------------------
def test_wall_clock_seeded_into_engine_copy_is_caught(tmp_path):
    """Copy sim/engine.py under a repro/sim/ directory (so the default
    module scoping applies), confirm it lints clean, then inject a
    wall-clock read and confirm D101 catches exactly that line."""
    engine = REPO_ROOT / "src" / "repro" / "sim" / "engine.py"
    target_dir = tmp_path / "repro" / "sim"
    target_dir.mkdir(parents=True)
    copy = target_dir / "engine.py"
    shutil.copyfile(engine, copy)
    assert module_name_for(str(copy)) == "repro.sim.engine"

    findings, files_checked = lint_paths([str(copy)])
    assert files_checked == 1
    assert findings == [], "pristine engine.py must lint clean"

    copy.write_text(copy.read_text()
                    + "\n\nimport time\n\n\n"
                      "def _leaked_wall_clock():\n"
                      "    return time.time()\n")
    findings, _ = lint_paths([str(copy)])
    assert [f.rule for f in findings] == ["D101"]
    assert findings[0].text == "return time.time()"


def test_supervisor_target_is_a_process_boundary_sink(tmp_path):
    """``Process(target=...)`` is built only inside faults/supervise.py,
    so S201 must see what enters through ``Supervisor(target=...)``."""
    flagged = ("from repro.faults.supervise import Supervisor\n"
               "def start(ctx):\n"
               "    return Supervisor(ctx, target=lambda conn: None,\n"
               "                      name='w')\n")
    findings = _lint_source(tmp_path, flagged, "S201")
    assert [f.rule for f in findings] == ["S201"]
    assert "Supervisor(target=...)" in findings[0].message
    clean = flagged.replace("lambda conn: None", "module_level_worker")
    assert _lint_source(tmp_path, clean, "S201") == []


# ----------------------------------------------------------------------
# R501: every row of the invariant table, in and out of its scope
# ----------------------------------------------------------------------
_TREE_ROOTS = ("src/repro", "benchmarks", "examples", "ledger", "tests")


def _lint_at(tmp_path, tree, source):
    path = tmp_path / tree
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source + "\n")
    return lint_file(str(path), LintConfig(select=("R501",)))


def _covered(scope, tree):
    return any(tree == s or tree.startswith(s + "/") for s in scope)


@pytest.mark.parametrize("row", INVARIANTS, ids=lambda row: row.pattern)
def test_invariant_row_example_fires_in_scope_only(tmp_path, row):
    for scope in row.scope:
        tree = scope if scope.endswith(".py") else scope + "/probe.py"
        assert [f.rule for f in _lint_at(tmp_path, tree, row.example)] \
            == ["R501"], tree
        # No escape hatch: suppression comments do not silence R501.
        for source in (row.example + "  # repro-lint: disable=R501",
                       "# repro-lint: disable=all\n" + row.example):
            assert _lint_at(tmp_path, tree, source), (tree, source)
    for home in row.homes:
        assert _lint_at(tmp_path, home, row.example) == [], home
    for root in _TREE_ROOTS:
        tree = root + "/probe.py"
        if not _covered(row.scope, tree):
            assert _lint_at(tmp_path, tree, row.example) == [], tree


def test_tree_path_starts_at_the_innermost_anchor():
    assert tree_path("/a/tests/copy/src/repro/sim/rng.py") == \
        "src/repro/sim/rng.py"
    assert tree_path("benchmarks/smoke_throughput.py") == \
        "benchmarks/smoke_throughput.py"
    assert tree_path("tests/lint_fixtures/r501_flagged.py") == \
        "tests/lint_fixtures/r501_flagged.py"
    assert tree_path("/tmp/elsewhere/repro/sim/rng.py") is None


def test_module_name_prefers_src_repro():
    assert module_name_for("src/repro/net/message.py") == \
        "repro.net.message"
    assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"
    assert module_name_for("tests/lint_fixtures/d101_flagged.py") == \
        "d101_flagged"


# ----------------------------------------------------------------------
# the gate itself: the shipped tree must be clean with no baseline
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    """The CI gate's two calls: every rule over the shipped tree, and
    R501 over tests/ (the SplitMix64 row covers it)."""
    findings, files_checked = lint_paths(
        [str(REPO_ROOT / root) for root in
         ("src/repro", "benchmarks", "examples", "ledger")])
    assert files_checked > 50
    assert findings == [], "\n".join(f.render() for f in findings)
    findings, files_checked = lint_paths([str(REPO_ROOT / "tests")],
                                         LintConfig(select=("R501",)))
    assert files_checked > 50
    assert findings == [], "\n".join(f.render() for f in findings)

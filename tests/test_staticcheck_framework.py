"""repro.staticcheck framework: module model, suppressions, baselines,
reporters and the runner entry points."""

import json
import pathlib

import pytest

from repro.errors import DataError
from repro.staticcheck import (
    Baseline,
    ImportGraph,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)
from repro.staticcheck.baselines import fingerprint, fingerprint_findings, partition
from repro.staticcheck.framework import Finding, ModuleInfo, check_modules
from repro.staticcheck.graph import collect_modules, module_name_for
from repro.staticcheck.runner import default_target, lint_modules

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def make_module(source, name="repro.analysis.fixture"):
    known = frozenset({name, "repro.failures.hazards", "repro.failures",
                       "repro.rng"})
    return ModuleInfo(
        source=source, name=name,
        path=pathlib.Path(name.replace(".", "/") + ".py"),
        known_modules=known,
    )


class TestModuleInfo:
    def test_package_extraction(self):
        assert make_module("x = 1").package == "analysis"
        assert make_module("x = 1", name="repro.config").package == ""

    def test_bindings_resolve_aliases(self):
        module = make_module("import numpy as np\nfrom datetime import datetime\n")
        assert module.bindings["np"] == "numpy"
        assert module.bindings["datetime"] == "datetime.datetime"

    def test_resolve_expands_dotted_calls(self):
        import ast

        module = make_module("import numpy as np\nx = np.random.rand(3)\n")
        call = module.tree.body[1].value
        assert module.resolve(call.func) == "numpy.random.rand"

    def test_relative_import_resolution(self):
        module = make_module("from ..failures import hazards\n")
        targets = [target for target, _ in module.import_edges]
        assert "repro.failures.hazards" in targets

    def test_syntax_error_is_data_error(self):
        with pytest.raises(DataError, match="cannot parse"):
            make_module("def f(:\n")

    def test_line_suppression_covers_only_its_line(self):
        module = make_module(
            "a = 1 == 1.0  # repro: noqa[float-eq]\nb = 2 == 2.0\n"
        )
        on_line = Finding(rule="float-eq", path=module.relpath, line=1, col=0,
                          message="m")
        off_line = Finding(rule="float-eq", path=module.relpath, line=2, col=0,
                           message="m")
        assert module.is_suppressed(on_line)
        assert not module.is_suppressed(off_line)

    def test_file_suppression_covers_every_line(self):
        module = make_module("# repro: noqa-file[float-eq]\nb = 2 == 2.0\n")
        anywhere = Finding(rule="float-eq", path=module.relpath, line=2, col=0,
                           message="m")
        other_rule = Finding(rule="wallclock", path=module.relpath, line=2,
                             col=0, message="m")
        assert module.is_suppressed(anywhere)
        assert not module.is_suppressed(other_rule)

    def test_multi_rule_suppression(self):
        module = make_module("x = 1  # repro: noqa[float-eq, wallclock]\n")
        for rule in ("float-eq", "wallclock"):
            assert module.is_suppressed(
                Finding(rule=rule, path=module.relpath, line=1, col=0,
                        message="m")
            )


class TestRegistry:
    def test_shipped_rules_registered(self):
        assert {rule.id for rule in all_rules()} == {
            "GT-leak", "RNG-discipline", "wallclock", "float-eq",
            "schema-fields", "layering",
        }

    def test_get_rule_unknown_id(self):
        with pytest.raises(DataError, match="unknown rule"):
            get_rule("no-such-rule")


class TestGraph:
    def test_module_name_for(self):
        assert module_name_for(SRC / "config.py", SRC) == "repro.config"
        assert module_name_for(SRC / "__init__.py", SRC) == "repro"
        assert (module_name_for(SRC / "telemetry" / "stats.py", SRC)
                == "repro.telemetry.stats")

    def test_collect_modules_covers_package(self):
        modules = collect_modules(SRC)
        names = {module.name for module in modules}
        assert "repro.config" in names
        assert "repro.staticcheck.framework" in names

    def test_import_graph_edges(self):
        graph = ImportGraph(collect_modules(SRC))
        assert any(target.startswith("repro.failures")
                   for target in graph.imports_of("repro.config"))


class TestBaseline:
    def finding(self, line=5, source="if q == 0.0:"):
        return Finding(rule="float-eq", path="repro/telemetry/stats.py",
                       line=line, col=11, message="m", source_line=source)

    def test_fingerprint_survives_line_drift(self):
        assert fingerprint(self.finding(line=5)) == fingerprint(self.finding(line=50))

    def test_fingerprint_changes_with_source(self):
        assert (fingerprint(self.finding())
                != fingerprint(self.finding(source="if q == 1.0:")))

    def test_identical_lines_get_distinct_fingerprints(self):
        twins = [self.finding(line=5), self.finding(line=9)]
        assert len(fingerprint_findings(twins)) == 2

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.finding()], rationale="legacy helper")
        loaded = load_baseline(path)
        assert len(loaded) == 1
        new, grandfathered = partition([self.finding(line=99)], loaded)
        assert not new and len(grandfathered) == 1

    def test_write_preserves_rationales(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.finding()], rationale="because reasons")
        write_baseline(path, [self.finding()], previous=load_baseline(path))
        assert json.loads(path.read_text())["entries"][0]["rationale"] == (
            "because reasons"
        )

    def test_new_entry_without_rationale_is_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        with pytest.raises(DataError, match="rationale"):
            write_baseline(path, [self.finding()])
        assert not path.exists()

    def test_rationale_applies_only_to_new_entries(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.finding()], rationale="the old reason")
        previous = load_baseline(path)
        fresh = self.finding(source="if q == 2.0:")
        write_baseline(path, [self.finding(), fresh], previous=previous,
                       rationale="the new reason")
        rationales = {e["source_line"]: e["rationale"]
                      for e in json.loads(path.read_text())["entries"]}
        assert rationales["if q == 0.0:"] == "the old reason"
        assert rationales["if q == 2.0:"] == "the new reason"

    def test_missing_explicit_baseline_is_error(self, tmp_path):
        with pytest.raises(DataError, match="no such baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_schema_mismatch_is_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(DataError, match="schema"):
            load_baseline(path)

    def test_edited_line_invalidates_entry(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self.finding()], rationale="legacy helper")
        edited = self.finding(source="if q == 0.0 or q == 1.0:")
        new, grandfathered = partition([edited], load_baseline(path))
        assert len(new) == 1 and not grandfathered


class TestRunner:
    def test_default_target_is_repro_package(self):
        assert default_target().name == "repro"
        assert (default_target() / "__init__.py").exists()

    def test_lint_source_places_snippet_in_module(self):
        findings = lint_source("def f(x):\n    return x == 0.5\n",
                               module="repro.analysis.fixture")
        assert [f.rule for f in findings] == ["float-eq"]
        assert not lint_source("def f(x):\n    return x == 0.5\n",
                               module="repro.failures.fixture")

    def test_lint_paths_single_file(self):
        report = lint_paths([SRC / "telemetry" / "stats.py"])
        assert report.n_modules == 1
        assert any(f.rule == "float-eq" for f in report.findings)

    def test_lint_paths_subpackage_restricts_modules(self, repo_lint_report):
        report = lint_paths([SRC / "stream"])
        full = repo_lint_report
        assert 0 < report.n_modules < full.n_modules
        assert report.n_modules == len(list((SRC / "stream").rglob("*.py")))

    def test_lint_paths_subpackage_still_resolves_package_imports(self):
        # Relative imports inside the subtree must resolve against the
        # whole package, not just the subtree's own modules.
        report = lint_paths([SRC / "stream"], rules=[get_rule("GT-leak")])
        assert report.ok, render_text(report)

    def test_lint_paths_missing_target(self, tmp_path):
        with pytest.raises(DataError, match="no such lint target"):
            lint_paths([tmp_path / "ghost"])

    def test_repo_lints_clean_with_committed_baseline(self, repo_lint_report):
        report = repo_lint_report
        assert report.ok, render_text(report)
        assert len(report.baselined) == 1

    def test_rule_filter(self):
        report = lint_paths(rules=[get_rule("wallclock")])
        assert list(report.rule_catalog) == ["wallclock"]
        assert report.ok


class TestReporters:
    def report(self):
        module = make_module("def f(x):\n    return x == 0.5\n")
        return lint_modules([module], rules=[get_rule("float-eq")])

    def test_text_report_names_finding_and_counts(self):
        text = render_text(self.report())
        assert "float-eq" in text
        assert "1 finding(s) in 1 module(s)" in text

    def test_json_report_contract(self):
        payload = json.loads(render_json(self.report()))
        assert payload["schema"] == 1
        assert payload["counts"]["new"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "float-eq"
        assert finding["fingerprint"]
        assert finding["baselined"] is False
        assert "float-eq" in payload["rules"]

    def test_clean_report_renders_zero_summary(self):
        clean = lint_modules([make_module("x = 1\n")],
                             rules=[get_rule("float-eq")])
        assert "0 finding(s)" in render_text(clean)
        assert json.loads(render_json(clean))["findings"] == []

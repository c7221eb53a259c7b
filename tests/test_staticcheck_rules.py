"""Per-rule fixtures: each rule has a triggering and a clean case.

Snippets are linted via :func:`repro.staticcheck.lint_source`, which
places them at a chosen virtual module path — so the same snippet can be
put inside or outside the packages a rule guards.
"""

from repro.staticcheck import lint_source
from repro.staticcheck.contract import ground_truth_attributes, telemetry_field_names
from repro.staticcheck.framework import get_rule


def rules_hit(source, module="repro.analysis.fixture", rule=None):
    rules = [get_rule(rule)] if rule else None
    return [f.rule for f in lint_source(source, module=module, rules=rules)]


class TestGtLeak:
    def test_absolute_hazard_import_flagged(self):
        assert rules_hit("from repro.failures import hazards\n",
                         rule="GT-leak") == ["GT-leak"]

    def test_relative_hazard_import_flagged(self):
        assert rules_hit("from ..failures import hazards\n",
                         rule="GT-leak") == ["GT-leak"]

    def test_plain_import_hazards_flagged(self):
        assert rules_hit("import repro.failures.hazards\n",
                         rule="GT-leak") == ["GT-leak"]

    def test_ground_truth_attribute_flagged(self):
        assert rules_hit("def f(arrays):\n    return arrays.sku_intrinsic\n",
                         rule="GT-leak") == ["GT-leak"]

    def test_getattr_string_flagged(self):
        assert rules_hit("def f(a):\n    return getattr(a, 'region_hazard')\n",
                         rule="GT-leak") == ["GT-leak"]

    def test_generation_side_may_touch_hazards(self):
        source = ("from repro.failures import hazards\n"
                  "def f(arrays):\n    return arrays.sku_intrinsic\n")
        assert not rules_hit(source, module="repro.failures.fixture",
                             rule="GT-leak")

    def test_clean_analysis_module(self):
        source = ("from repro.telemetry.aggregate import lambda_matrix\n"
                  "def f(arrays):\n    return arrays.n_servers\n")
        assert not rules_hit(source, rule="GT-leak")

    def test_forbidden_set_is_generated_not_empty(self):
        attributes = ground_truth_attributes()
        assert {"sku_intrinsic", "region_hazard", "stress_multiplier"} <= attributes

    def test_predict_package_is_guarded(self):
        # The online predictor scores against *planted* ground truth, so
        # its package must sit on the analysis side of the GT boundary.
        assert rules_hit("import repro.failures.hazards\n",
                         module="repro.predict.fixture",
                         rule="GT-leak") == ["GT-leak"]

    def test_predict_from_import_flagged(self):
        assert rules_hit("from repro.failures import hazards\n",
                         module="repro.predict.fixture",
                         rule="GT-leak") == ["GT-leak"]

    def test_predict_ground_truth_attribute_flagged(self):
        assert rules_hit("def f(arrays):\n    return arrays.region_hazard\n",
                         module="repro.predict.fixture",
                         rule="GT-leak") == ["GT-leak"]


class TestRngDiscipline:
    def test_global_numpy_random_flagged(self):
        assert rules_hit("import numpy as np\nx = np.random.rand(3)\n",
                         rule="RNG-discipline") == ["RNG-discipline"]

    def test_unseeded_default_rng_flagged(self):
        source = ("import numpy as np\n"
                  "def f():\n    return np.random.default_rng()\n")
        assert rules_hit(source, rule="RNG-discipline") == ["RNG-discipline"]

    def test_stdlib_random_flagged(self):
        assert rules_hit("import random\nx = random.random()\n",
                         rule="RNG-discipline") == ["RNG-discipline"]

    def test_from_import_stdlib_random_flagged(self):
        assert rules_hit("from random import shuffle\nshuffle([1, 2])\n",
                         rule="RNG-discipline") == ["RNG-discipline"]

    def test_module_global_generator_flagged(self):
        source = "import numpy as np\nRNG = np.random.default_rng(7)\n"
        assert "RNG-discipline" in rules_hit(source, rule="RNG-discipline")

    def test_seeded_local_default_rng_allowed(self):
        source = ("import numpy as np\n"
                  "def f(seed):\n    return np.random.default_rng(seed)\n")
        assert not rules_hit(source, rule="RNG-discipline")

    def test_generator_parameter_draws_allowed(self):
        source = "def f(rng):\n    return rng.normal(size=3)\n"
        assert not rules_hit(source, rule="RNG-discipline")

    def test_rng_helper_module_exempt(self):
        source = ("import numpy as np\n"
                  "def stream():\n    return np.random.default_rng()\n")
        assert not rules_hit(source, module="repro.rng",
                             rule="RNG-discipline")


class TestWallclock:
    def test_time_time_call_flagged(self):
        assert rules_hit("import time\ndef f():\n    return time.time()\n",
                         rule="wallclock") == ["wallclock"]

    def test_datetime_now_flagged(self):
        source = ("from datetime import datetime\n"
                  "def f():\n    return datetime.now()\n")
        assert rules_hit(source, rule="wallclock") == ["wallclock"]

    def test_clock_reference_as_default_allowed(self):
        source = ("import time\n"
                  "def f(clock=time.time):\n    return clock()\n")
        assert not rules_hit(source, rule="wallclock")

    def test_applies_outside_analysis_packages_too(self):
        assert rules_hit("import time\ndef f():\n    return time.time()\n",
                         module="repro.cachelike", rule="wallclock") == ["wallclock"]


class TestFloatEq:
    def test_float_literal_equality_flagged(self):
        assert rules_hit("def f(x):\n    return x == 0.5\n",
                         rule="float-eq") == ["float-eq"]

    def test_float_call_equality_flagged(self):
        assert rules_hit("def f(x, y):\n    return float(x) != y\n",
                         rule="float-eq") == ["float-eq"]

    def test_arithmetic_operand_flagged(self):
        assert rules_hit("def f(x, y):\n    return x == y * 2.0\n",
                         rule="float-eq") == ["float-eq"]

    def test_int_equality_allowed(self):
        assert not rules_hit("def f(x):\n    return x == 3\n", rule="float-eq")

    def test_ordered_float_comparison_allowed(self):
        assert not rules_hit("def f(x):\n    return x <= 78.0\n",
                             rule="float-eq")

    def test_generation_side_not_in_scope(self):
        assert not rules_hit("def f(x):\n    return x == 0.5\n",
                             module="repro.failures.fixture", rule="float-eq")

    def test_noqa_with_rationale_suppresses(self):
        source = ("def f(severity):\n"
                  "    return severity == 0.0  # repro: noqa[float-eq]\n")
        assert not rules_hit(source, rule="float-eq")


class TestSchemaFields:
    def test_subscript_key_flagged(self):
        assert rules_hit("def f(c):\n    return c['day_index']\n",
                         rule="schema-fields") == ["schema-fields"]

    def test_dict_literal_key_flagged(self):
        assert rules_hit("d = {'rack_id': 1}\n",
                         module="repro.fielddata.fixture",
                         rule="schema-fields") == ["schema-fields"]

    def test_constant_spelled_key_allowed(self):
        source = ("from repro.telemetry.schema import TICKET_LOG\n"
                  "def f(c):\n    return c[TICKET_LOG.day_index]\n")
        assert not rules_hit(source, rule="schema-fields")

    def test_non_field_string_key_allowed(self):
        assert not rules_hit("def f(c):\n    return c['alerts']\n",
                             rule="schema-fields")

    def test_generation_side_not_in_scope(self):
        assert not rules_hit("def f(c):\n    return c['day_index']\n",
                             module="repro.failures.fixture",
                             rule="schema-fields")

    def test_declaring_module_exempt(self):
        assert not rules_hit("day_index = 'day_index'\nd = {'day_index': 1}\n",
                             module="repro.telemetry.schema",
                             rule="schema-fields")

    def test_key_set_is_generated_from_schema(self):
        fields = telemetry_field_names()
        assert {"day_index", "rack_id", "n_servers",
                "decommission_day"} <= fields
        assert "alerts" not in fields


class TestLayering:
    def test_upward_import_flagged(self):
        assert rules_hit("from repro.reporting import tables\n",
                         module="repro.failures.fixture",
                         rule="layering") == ["layering"]

    def test_function_level_upward_import_flagged(self):
        source = ("def f():\n"
                  "    from repro.stream.experiment import streaming_experiment\n"
                  "    return streaming_experiment\n")
        assert rules_hit(source, module="repro.telemetry.fixture",
                         rule="layering") == ["layering"]

    def test_downward_import_allowed(self):
        assert not rules_hit("from repro.failures import engine\n",
                             module="repro.reporting.fixture",
                             rule="layering")

    def test_same_package_import_allowed(self):
        assert not rules_hit("from repro.failures import tickets\n",
                             module="repro.failures.fixture",
                             rule="layering")

    def test_top_level_module_exempt(self):
        # cli, config, parallel… orchestrate across layers by design.
        assert not rules_hit("from repro.reporting import tables\n",
                             module="repro.parallel",
                             rule="layering")

    def test_top_level_import_target_not_ranked(self):
        assert not rules_hit("from repro import parallel\n",
                             module="repro.reporting.fixture",
                             rule="layering")

    def test_baselined_exception_allowed(self):
        source = ("def f():\n"
                  "    from repro.fielddata.robustness import fielddata_experiment\n"
                  "    return fielddata_experiment\n")
        assert not rules_hit(source, module="repro.reporting.experiments",
                             rule="layering")

    def test_exception_is_module_specific(self):
        """The fielddata exception covers experiments, not all of reporting."""
        source = "from repro.fielddata import robustness\n"
        assert rules_hit(source, module="repro.reporting.fixture",
                         rule="layering") == ["layering"]

    def test_serve_may_import_every_layer(self):
        # serve is the topmost layer: the API edge composes everything.
        for target in ("from repro.pipeline import stages\n",
                       "from repro.stream import blocks\n",
                       "from repro.decisions import spares\n"):
            assert not rules_hit(target, module="repro.serve.fixture",
                                 rule="layering")

    def test_nothing_may_import_serve(self):
        # ...and nothing sits above it: any import of serve reaches up.
        source = "from repro.serve import ports\n"
        for module in ("repro.pipeline.fixture", "repro.reporting.fixture",
                       "repro.staticcheck.fixture", "repro.failures.fixture"):
            assert rules_hit(source, module=module,
                             rule="layering") == ["layering"]

    def test_layer_order_covers_every_package(self):
        import pathlib

        import repro
        from repro.staticcheck.contract import PACKAGE_LAYER_ORDER

        src = pathlib.Path(repro.__file__).parent
        packages = {p.name for p in src.iterdir()
                    if p.is_dir() and (p / "__init__.py").exists()}
        # Dotted entries rank single modules inside a package; the set
        # of first segments must still cover exactly the real packages.
        assert packages == {entry.split(".")[0]
                           for entry in PACKAGE_LAYER_ORDER}
        # Every dotted entry must name a module that actually exists.
        for entry in PACKAGE_LAYER_ORDER:
            if "." in entry:
                assert (src / (entry.replace(".", "/") + ".py")).exists()

    def test_repo_is_clean_under_layering(self, repo_lint_report):
        """The shipped tree has no upward imports, baselined or not."""
        layering = [f for f in repo_lint_report.all_findings
                    if f.rule == "layering"]
        assert [f.render() for f in layering] == []

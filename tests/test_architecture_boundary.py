"""The field-data boundary, enforced.

docs/architecture.md promises that the analysis side (`analysis/`,
`decisions/`, `reporting/`, `stream/`, `telemetry/`) never touches
simulator ground truth: neither the hazard modules nor the attributes
that carry planted SKU/region hazards.  Since the ``GT-leak`` rule in
:mod:`repro.staticcheck` enforces exactly this contract — with a
generated forbidden set and a real import graph — these tests are thin
wrappers over the rule rather than a second hand-rolled walker.
"""

import pathlib

from repro.staticcheck.contract import (
    ANALYSIS_PACKAGES,
    FORBIDDEN_GROUND_TRUTH_MODULES,
    ground_truth_attributes,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

# The historical hand-maintained forbidden set; the generated one must
# keep covering it so the contract can only get stricter.
FORBIDDEN_ATTRIBUTES = (
    "sku_intrinsic", "batch_rate", "batch_mean_size", "region_hazard",
    "region_thermal_offset", "region_humidity_offset", "intrinsic_hazard",
    "batch_failure_rate", "stress_multiplier", "thermal_coupling",
)


def gt_leak_findings(report):
    return [f for f in report.all_findings if f.rule == "GT-leak"]


class TestFieldDataBoundary:
    def test_no_hazard_imports(self, repo_lint_report):
        offenders = [
            finding.location() for finding in gt_leak_findings(repo_lint_report)
            if "import" in finding.message
        ]
        assert not offenders, (
            f"analysis-side modules import the hazard ground truth: {offenders}"
        )

    def test_no_ground_truth_attribute_reads(self, repo_lint_report):
        offenders = [
            f"{finding.location()}: {finding.message}"
            for finding in gt_leak_findings(repo_lint_report)
            if "import" not in finding.message
        ]
        assert not offenders, (
            f"analysis-side modules read planted ground truth: {offenders}"
        )

    def test_generation_side_owns_the_hazards(self):
        """Sanity: the forbidden surfaces do exist on the generation side."""
        failures_src = (SRC / "failures" / "faultmodel.py").read_text()
        assert "sku_intrinsic" in failures_src
        assert "hazards" in failures_src
        assert "repro.failures.hazards" in FORBIDDEN_GROUND_TRUTH_MODULES

    def test_environment_truth_not_used_by_default(self):
        """Analyses default to BMS observations, not simulator truth."""
        aggregate = (SRC / "telemetry" / "aggregate.py").read_text()
        assert "use_observed_environment: bool = True" in aggregate

    def test_generated_forbidden_set_covers_historical_list(self):
        """The metadata-derived set must keep covering the old tuple."""
        generated = ground_truth_attributes()
        missing = set(FORBIDDEN_ATTRIBUTES) - generated
        assert not missing, (
            f"ground-truth marks lost attributes the boundary used to "
            f"protect: {sorted(missing)}"
        )

    def test_analysis_packages_unchanged(self):
        """The rule guards at least the packages this test always did."""
        assert {"analysis", "decisions", "reporting", "stream",
                "telemetry"} <= set(ANALYSIS_PACKAGES)

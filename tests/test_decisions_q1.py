"""Q1 decision tests: availability math, server and component spares."""

import numpy as np
import pytest

from repro.decisions.availability import (
    AvailabilitySla,
    required_spares,
    uniform_fraction_for_pool,
)
from repro.decisions.component_spares import ComponentProvisioner
from repro.decisions.spares import SpareProvisioner
from repro.errors import ConfigError, DataError


class TestAvailabilityMath:
    def test_full_sla_needs_max_mu(self):
        sla = AvailabilitySla(1.0)
        assert required_spares(np.array([0, 1, 3, 2]), sla, capacity=20) == 3.0

    def test_shortfall_reduces_requirement(self):
        sla = AvailabilitySla(0.90)
        assert required_spares(np.array([0, 5]), sla, capacity=20) == pytest.approx(3.0)

    def test_requirement_floors_at_zero(self):
        sla = AvailabilitySla(0.90)
        assert required_spares(np.array([0, 1]), sla, capacity=20) == 0.0

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigError):
            AvailabilitySla(0.0)
        with pytest.raises(ConfigError):
            AvailabilitySla(1.5)

    def test_percent_label(self):
        assert AvailabilitySla(0.95).percent_label == "95%"

    def test_empty_samples_rejected(self):
        with pytest.raises(DataError):
            required_spares(np.array([]), AvailabilitySla(1.0), 10)

    def test_negative_mu_rejected(self):
        with pytest.raises(DataError):
            required_spares(np.array([-1.0]), AvailabilitySla(1.0), 10)

    def test_uniform_pool_fraction(self):
        fractions = np.array([0.0, 0.1, 0.4])
        assert uniform_fraction_for_pool(fractions, AvailabilitySla(1.0)) == 0.4
        assert uniform_fraction_for_pool(
            fractions, AvailabilitySla(0.9)
        ) == pytest.approx(0.3)


@pytest.fixture(scope="module")
def provisioner(small_run):
    return SpareProvisioner(small_run, window_hours=24.0)


class TestSpareProvisioner:
    def test_unknown_workload_rejected(self, provisioner):
        with pytest.raises(Exception):
            provisioner.workload_racks("W99")

    def test_eligible_racks_are_in_service(self, provisioner):
        racks = provisioner.workload_racks("W1")
        assert len(racks) > 0

    def test_ordering_lb_mf_sf_at_full_sla(self, provisioner):
        for workload in ("W1", "W6"):
            plans = provisioner.compare(workload, AvailabilitySla(1.0))
            assert (plans["LB"].overprovision
                    <= plans["MF"].overprovision + 1e-9)
            assert (plans["MF"].overprovision
                    <= plans["SF"].overprovision + 1e-9)

    def test_ordering_holds_at_lower_slas(self, provisioner):
        for level in (0.90, 0.95):
            plans = provisioner.compare("W6", AvailabilitySla(level))
            assert plans["LB"].overprovision <= plans["MF"].overprovision + 1e-9
            assert plans["MF"].overprovision <= plans["SF"].overprovision + 1e-9

    def test_requirement_grows_with_sla(self, provisioner):
        lax = provisioner.lower_bound("W6", AvailabilitySla(0.90)).overprovision
        strict = provisioner.lower_bound("W6", AvailabilitySla(1.0)).overprovision
        assert strict >= lax

    def test_sf_plan_is_uniform(self, provisioner):
        plan = provisioner.single_factor("W1", AvailabilitySla(1.0))
        assert len(np.unique(plan.per_rack_fraction)) == 1

    def test_mf_clusters_partition_racks(self, provisioner):
        plan = provisioner.multi_factor("W6", AvailabilitySla(1.0))
        assert plan.clusters is not None
        member_total = sum(cluster.n_racks for cluster in plan.clusters)
        assert member_total == len(plan.rack_indices)
        all_members = np.concatenate([c.rack_indices for c in plan.clusters])
        assert sorted(all_members.tolist()) == sorted(plan.rack_indices.tolist())

    def test_mf_covers_every_member_racks_requirement(self, provisioner):
        """Each cluster's fraction covers its members' pooled worst case."""
        sla = AvailabilitySla(1.0)
        plan = provisioner.multi_factor("W6", sla)
        assert plan.clusters is not None
        for cluster in plan.clusters:
            worst = cluster.requirement_samples.max()
            assert cluster.fraction >= worst - sla.shortfall - 1e-9

    def test_storage_needs_more_than_compute(self, provisioner):
        w1 = provisioner.multi_factor("W1", AvailabilitySla(1.0)).overprovision
        w6 = provisioner.multi_factor("W6", AvailabilitySla(1.0)).overprovision
        assert w6 > 2 * w1

    def test_hourly_multiplexing_reduces_mf(self, small_run, provisioner):
        hourly = SpareProvisioner(small_run, window_hours=1.0)
        daily_plan = provisioner.multi_factor("W6", AvailabilitySla(1.0))
        hourly_plan = hourly.multi_factor("W6", AvailabilitySla(1.0))
        assert hourly_plan.overprovision < daily_plan.overprovision

    def test_invalid_min_service_days(self, small_run):
        with pytest.raises(DataError):
            SpareProvisioner(small_run, min_service_days=0)


@pytest.fixture(scope="module")
def component_provisioner(small_run):
    return ComponentProvisioner(small_run, window_hours=24.0)


class TestComponentProvisioner:
    def test_plan_fields(self, component_provisioner):
        plan = component_provisioner.plan("W6", AvailabilitySla(1.0), "MF")
        assert plan.component_cost > 0
        assert plan.server_cost > 0
        resources = {r.resource for r in plan.resources}
        assert resources == {"disk", "dimm", "server"}

    def test_unknown_approach_rejected(self, component_provisioner):
        with pytest.raises(DataError):
            component_provisioner.plan("W6", AvailabilitySla(1.0), "XX")

    def test_mf_component_cheaper_for_compute(self, component_provisioner):
        plan = component_provisioner.plan("W1", AvailabilitySla(1.0), "MF")
        assert plan.component_vs_server < 0.95

    def test_mf_gains_more_from_components_than_sf(self, component_provisioner):
        """Fig 13's W1 contrast: SF cannot exploit component spares the
        way MF can (in the paper SF's component plan even exceeds its
        server plan; how far depends on whether a rack-scale outage
        dominates the workload's worst window)."""
        mf = component_provisioner.plan("W1", AvailabilitySla(1.0), "MF")
        sf = component_provisioner.plan("W1", AvailabilitySla(1.0), "SF")
        assert mf.component_vs_server < sf.component_vs_server + 0.05

    def test_lb_cheapest_overall(self, component_provisioner):
        plans = component_provisioner.compare("W6", AvailabilitySla(1.0))
        assert plans["LB"].component_cost <= plans["MF"].component_cost + 1e-9
        assert plans["MF"].component_cost <= plans["SF"].component_cost + 1e-9

    def test_storage_disk_fraction_dominates(self, component_provisioner):
        plan = component_provisioner.plan("W6", AvailabilitySla(1.0), "MF")
        fractions = {r.resource: r.fraction for r in plan.resources}
        assert fractions["disk"] > fractions["dimm"]


class TestIntegralProvisioning:
    @pytest.fixture(scope="class")
    def integral_provisioner(self, small_run):
        return SpareProvisioner(small_run, window_hours=24.0, integral=True)

    def test_spare_counts_are_whole_servers(self, integral_provisioner):
        sla = AvailabilitySla(0.95)
        for approach in ("LB", "SF", "MF"):
            plans = integral_provisioner.compare("W6", sla)
            plan = plans[approach]
            capacity = integral_provisioner.arrays.n_servers[plan.rack_indices]
            spares = plan.per_rack_fraction * capacity
            assert np.allclose(spares, np.round(spares), atol=1e-9), approach

    def test_integral_never_cheaper_than_continuous(self, small_run,
                                                    integral_provisioner):
        continuous = SpareProvisioner(small_run, window_hours=24.0)
        sla = AvailabilitySla(0.95)
        for approach in ("LB", "SF", "MF"):
            c = getattr(continuous, {"LB": "lower_bound",
                                     "SF": "single_factor",
                                     "MF": "multi_factor"}[approach])("W1", sla)
            d = getattr(integral_provisioner,
                        {"LB": "lower_bound", "SF": "single_factor",
                         "MF": "multi_factor"}[approach])("W1", sla)
            assert d.overprovision >= c.overprovision - 1e-9

    def test_ordering_survives_rounding(self, integral_provisioner):
        plans = integral_provisioner.compare("W6", AvailabilitySla(1.0))
        assert plans["LB"].overprovision <= plans["MF"].overprovision + 1e-9
        assert plans["MF"].overprovision <= plans["SF"].overprovision + 1e-9

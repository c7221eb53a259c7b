"""The Q1 spare-sizing kernel against its per-rack loop references.

:class:`~repro.decisions.availability.SpareSizer` sizes Q1-A server
spares, Q1-B's disk, DIMM and server-component pools (plus the
all-server alternative) and spare pooling.  Every fraction it returns
is compared, as ``float.hex``, with the loops in ``spares_oracle``:
on ``small_run`` for every workload, paper SLA, approach and pool, and
under Hypothesis for LB, SF and the shared pool on random μ matrices,
in-service masks and units.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.decisions import (
    PAPER_SLAS,
    AvailabilitySla,
    ComponentProvisioner,
    SpareProvisioner,
    SpareSizer,
)
from spares_oracle import (
    reference_in_service,
    reference_lb,
    reference_mf,
    reference_sf,
    reference_shared_pool,
    reference_workload_racks,
)


def hexes(values) -> list[str]:
    return [float(value).hex() for value in np.asarray(values).tolist()]


def kernel_fractions(sizer, mu, units, racks, sla, approach):
    """Per-rack fractions of one pool, aligned with ``racks``."""
    if approach == "LB":
        return sizer.lower_bound(mu, units, racks, sla) / units[racks]
    if approach == "SF":
        return np.full(len(racks), sizer.single_factor(mu, units, racks, sla))
    groups = sizer.clusters(mu, units, racks, sla)
    return sizer.multi_factor(mu, units, racks, sla, groups)[0]


def reference_fractions(result, mu, in_service, racks, units, sla, approach):
    if approach == "LB":
        return reference_lb(mu, in_service, racks, units, sla)
    if approach == "SF":
        return np.full(len(racks), reference_sf(mu, in_service, racks, units, sla))
    return reference_mf(result, mu, in_service, racks, units, sla)


@pytest.fixture(scope="module")
def pools(small_run):
    """``(window, pool) -> (sizer, μ, units)``: every Q1 pool at 24 h,
    and the server pool at 1 h."""
    daily = ComponentProvisioner(small_run, window_hours=24.0)
    hourly = SpareProvisioner(small_run, window_hours=1.0)
    found = {(24.0, name): (daily.sizer, *pool)
             for name, pool in daily.pools.items()}
    found[24.0, "all-server"] = (daily.sizer, *daily.all_servers)
    found[1.0, "all-server"] = (hourly.sizer, hourly.mu, hourly.capacity)
    return found


@pytest.mark.parametrize("window_hours, pool", [
    (24.0, "disk"), (24.0, "dimm"), (24.0, "server"), (24.0, "all-server"),
    (1.0, "all-server"),
])
def test_kernel_matches_reference_loops(small_run, pools, window_hours, pool):
    sizer, mu, units = pools[window_hours, pool]
    in_service = reference_in_service(small_run, mu, window_hours)
    assert np.array_equal(sizer.in_service, in_service)
    for workload in small_run.fleet.arrays().workload_names:
        racks = sizer.workload_racks(workload)
        assert np.array_equal(racks, reference_workload_racks(
            small_run, in_service, window_hours, workload))
        for level in PAPER_SLAS:
            sla = AvailabilitySla(level)
            for approach in ("LB", "SF", "MF"):
                kernel = kernel_fractions(sizer, mu, units, racks, sla,
                                          approach)
                reference = reference_fractions(
                    small_run, mu, in_service, racks, units[racks], sla,
                    approach)
                assert hexes(kernel) == hexes(reference), (
                    workload, level, approach)


@pytest.fixture(scope="module")
def base_sizer(tiny_run):
    return SpareSizer(tiny_run, 24.0)


@st.composite
def mu_pools(draw):
    """``(μ, in-service mask, units, racks)``; every rack keeps at least
    one in-service window."""
    n_racks = draw(st.integers(1, 5))
    n_windows = draw(st.integers(1, 10))
    cells = n_racks * n_windows
    mu = np.array(draw(st.lists(st.integers(0, 30), min_size=cells,
                                max_size=cells))).reshape(n_racks, n_windows)
    in_service = np.array(draw(st.lists(st.booleans(), min_size=cells,
                                        max_size=cells)))
    in_service = in_service.reshape(n_racks, n_windows)
    kept = draw(st.lists(st.integers(0, n_windows - 1), min_size=n_racks,
                         max_size=n_racks))
    in_service[np.arange(n_racks), kept] = True
    units = np.array(draw(st.lists(st.integers(1, 64), min_size=n_racks,
                                   max_size=n_racks)), dtype=float)
    racks = np.array(draw(st.lists(st.integers(0, n_racks - 1), min_size=1,
                                   max_size=n_racks, unique=True)),
                     dtype=np.int64)
    return mu, in_service, units, racks


ALL_ZERO = (np.zeros((2, 4), dtype=np.int64), np.ones((2, 4), dtype=bool),
            np.array([8.0, 12.0]), np.array([1, 0]))
ONE_WINDOW = (np.array([[5, 7, 9], [1, 0, 2]]),
              np.array([[False, True, False], [True, True, True]]),
              np.array([10.0, 3.0]), np.array([0, 1]))
levels = st.sampled_from(PAPER_SLAS) | st.floats(0.01, 1.0)


@settings(max_examples=150, deadline=None)
@given(case=mu_pools(), level=levels)
@example(case=ALL_ZERO, level=0.95)
@example(case=ALL_ZERO, level=1.0)
@example(case=ONE_WINDOW, level=0.9)
@example(case=ONE_WINDOW, level=1.0)
def test_lb_sf_and_shared_pool_match_reference(base_sizer, case, level):
    mu, in_service, units, racks = case
    sla = AvailabilitySla(level)
    sizer = copy.copy(base_sizer)
    sizer.in_service = in_service
    assert hexes(sizer.lower_bound(mu, units, racks, sla) / units[racks]) \
        == hexes(reference_lb(mu, in_service, racks, units[racks], sla))
    assert sizer.single_factor(mu, units, racks, sla).hex() \
        == reference_sf(mu, in_service, racks, units[racks], sla).hex()
    assert sizer.shared_pool(mu, units, racks, sla).hex() \
        == reference_shared_pool(mu, in_service, racks,
                                 float(units[racks].sum()), sla).hex()

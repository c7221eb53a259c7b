"""Telemetry substrate: schemas, columnar tables, windows, λ/μ aggregation."""

from .aggregate import (
    build_rack_day_table,
    commissioned_mask_matrix,
    day_feature_arrays,
    fleet_schema,
    lambda_matrix,
    mean_rate_by,
    mu_matrix,
    rack_static_table,
    ticket_mask,
)
from .io import (
    export_inventory_csv,
    export_tickets_csv,
    read_csv_table,
)
from .reliability import (
    BurstinessSummary,
    burstiness_by_sku,
    fano_factor,
    inter_arrival_hours,
    mtbf_hours,
)
from .schema import (
    DAY_CATEGORIES,
    MONTH_CATEGORIES,
    FeatureKind,
    FeatureSpec,
    Schema,
    table_iii_schema,
)
from .stats import (
    BinSpec,
    Ecdf,
    binned_mean_sd,
    ecdf,
    make_range_bins,
    weighted_mean,
)
from .table import Table
from .windows import (
    add_window_intervals,
    event_day_counts,
    merge_sorted_intervals,
    n_windows,
    per_group_window_counts,
)

__all__ = [
    "DAY_CATEGORIES",
    "MONTH_CATEGORIES",
    "BinSpec",
    "BurstinessSummary",
    "Ecdf",
    "FeatureKind",
    "FeatureSpec",
    "Schema",
    "Table",
    "add_window_intervals",
    "binned_mean_sd",
    "build_rack_day_table",
    "burstiness_by_sku",
    "commissioned_mask_matrix",
    "day_feature_arrays",
    "ecdf",
    "export_inventory_csv",
    "export_tickets_csv",
    "event_day_counts",
    "fano_factor",
    "fleet_schema",
    "inter_arrival_hours",
    "lambda_matrix",
    "make_range_bins",
    "mean_rate_by",
    "merge_sorted_intervals",
    "mtbf_hours",
    "mu_matrix",
    "n_windows",
    "per_group_window_counts",
    "rack_static_table",
    "read_csv_table",
    "table_iii_schema",
    "ticket_mask",
    "weighted_mean",
]

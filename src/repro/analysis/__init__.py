"""Analysis: PNR, distributions, spatial and temporal patterns, reporting.

Implements every measurement the paper's evaluation uses: the poor-network
thresholds and PNR (§2.2), CDFs and percentile improvements (Fig 2, 12b),
binned PCR curves and metric correlations (Fig 1, 3), spatial dissection
(Fig 4, 5, 13, 14), and temporal persistence/prevalence/option-duration
(Fig 6, 9).
"""

from repro.analysis.thresholds import (
    POOR_JITTER_MS,
    POOR_LOSS_RATE,
    POOR_RTT_MS,
    Thresholds,
    DEFAULT_THRESHOLDS,
)
from repro.analysis.pnr import (
    at_least_one_bad,
    is_poor,
    pnr,
    pnr_breakdown,
    pnr_with_sem,
    relative_improvement,
)
from repro.analysis.stats import (
    binned_curve,
    cdf_points,
    pearson_correlation,
    percentile_improvement,
    percentile_summary,
)
from repro.analysis.spatial import (
    by_country_pnr,
    pair_contribution_curve,
    split_international,
)
from repro.analysis.temporal import (
    best_option_durations,
    daily_pair_pnr,
    persistence_and_prevalence,
)
from repro.reporting import format_series, format_table
from repro.analysis.summary import experiment_report

__all__ = [
    "POOR_RTT_MS",
    "POOR_LOSS_RATE",
    "POOR_JITTER_MS",
    "Thresholds",
    "DEFAULT_THRESHOLDS",
    "is_poor",
    "at_least_one_bad",
    "pnr",
    "pnr_with_sem",
    "pnr_breakdown",
    "relative_improvement",
    "cdf_points",
    "binned_curve",
    "pearson_correlation",
    "percentile_improvement",
    "percentile_summary",
    "split_international",
    "by_country_pnr",
    "pair_contribution_curve",
    "daily_pair_pnr",
    "persistence_and_prevalence",
    "best_option_durations",
    "format_table",
    "format_series",
    "experiment_report",
]

"""Level-shift testing and dating for univariate time series.

Three dating algorithms (least-squares dynamic programming with BIC,
wild binary segmentation, energy-divisive segmentation) plus
significance tests for a constant level based on residual fluctuation
processes and their Brownian limits.
"""

from .series import (
    AlignmentError,
    DataError,
    DateIndex,
    ParseError,
    PeriodIndex,
    Segmentation,
    TimeSeries,
    UnsupportedError,
    deflate,
    fit_ar1,
    log_transform,
    returns,
    segmentation_from_breaks,
)
from .fluctuation import (
    FluctuationProcess,
    TestResult,
    VarianceEstimate,
    build_process,
    brownian_bridge_sup_pvalue,
    brownian_bridge_sup_quantile,
    brownian_motion_crossing_probability,
    long_run_variance,
    mosum_process,
    ols_residuals,
    plain_variance,
    recursive_residuals,
    sup_abs_test,
)
from .dating import (
    RssTriangle,
    bic_value,
    build_rss_triangle,
    fitted_step,
    optimal_breaks,
    select_breaks_bic,
)
from .wbs import WbsConfig, wbs_segment
from .edivisive import (
    EdivConfig,
    best_split,
    e_divisive,
    permutation_test,
)
from .seriesio import monthly_to_quarterly, read_csv, write_csv
from .synth import make_step_signal

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "DataError",
    "DateIndex",
    "ParseError",
    "PeriodIndex",
    "Segmentation",
    "TimeSeries",
    "UnsupportedError",
    "deflate",
    "fit_ar1",
    "log_transform",
    "returns",
    "segmentation_from_breaks",
    "FluctuationProcess",
    "TestResult",
    "VarianceEstimate",
    "build_process",
    "brownian_bridge_sup_pvalue",
    "brownian_bridge_sup_quantile",
    "brownian_motion_crossing_probability",
    "long_run_variance",
    "mosum_process",
    "ols_residuals",
    "plain_variance",
    "recursive_residuals",
    "sup_abs_test",
    "RssTriangle",
    "bic_value",
    "build_rss_triangle",
    "fitted_step",
    "optimal_breaks",
    "select_breaks_bic",
    "WbsConfig",
    "wbs_segment",
    "EdivConfig",
    "best_split",
    "e_divisive",
    "permutation_test",
    "monthly_to_quarterly",
    "read_csv",
    "write_csv",
    "make_step_signal",
    "__version__",
]

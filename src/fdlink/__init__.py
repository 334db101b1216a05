"""Bidirectional antenna-link selection for full-duplex MIMO point-to-point
systems: selection policies, Monte Carlo estimation, and closed-form
average weighted sum rate / sum SER analysis."""

from .analytic import (
    AnalyticValue,
    MixtureWeights,
    asymptotic_ser_generic,
    asymptotic_ser_perfect_cancellation,
    avg_rate_ab,
    avg_rate_ba,
    avg_ser_ab,
    avg_ser_ba,
    avg_weighted_sum_rate,
    avg_weighted_sum_ser,
    cdf_gamma_ab,
    cdf_gamma_ba,
    mixture_weights,
    mu_coefficient,
    order_statistic_cdf,
    quadrature_avg_rate,
    quadrature_avg_ser,
    rate_ceiling,
    ser_floor,
)
from .channel import (
    RngStream,
    TrialDraw,
    draw_residual_inr,
    draw_snr_matrix,
    draw_trial,
    instantaneous_sinr,
    to_obtainable_sinr,
)
from .config import (
    BPSK,
    DerivedParams,
    ModulationParams,
    SystemConfig,
    db_to_linear,
    derived_params,
    linear_to_db,
    load_config,
    validate_config,
    with_lambda_s,
)
from .montecarlo import (
    EmpiricalCdf,
    MetricEstimate,
    mc_empirical_cdf,
    mc_p_not,
    mc_weighted_sum_rate,
    mc_weighted_sum_ser,
    rate_of,
    ser_of,
)
from .selection import (
    LinkSelection,
    SelectionOutcome,
    comparison_count,
    exhaustive_max_wsr,
    exhaustive_min_wser,
    p_not_upper_bound,
    second_link_rank,
    serial_max,
    weighted_combine_rate,
    weighted_combine_ser,
)
from .special import binom, e1, exp_e1_scaled, q_function

__version__ = "0.1.0"

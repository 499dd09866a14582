"""Continuous-time accelerated gradient flows with Lyapunov certification."""

from .bregman import (
    DistanceGenerator,
    Objective,
    bregman_div,
    check_symmetry,
    check_uniform_convexity,
    diagonal_quadratic,
    from_quadratic_matrix,
    negative_entropy,
    squared_euclidean,
    three_point_residual,
)
from .dynamics import (
    FlowState,
    IntegratorConfig,
    Trajectory,
    initial_state,
    integrate,
    rhs_general,
    rhs_l2,
)
from .lyapunov import (
    Diagnostics,
    DiagnosticsRecord,
    FittedRate,
    Smoothed,
    Standard,
    Symmetric,
    bound_check,
    fit_rate,
    integral_estimates,
    lyapunov_value,
    monotonicity_report,
    render_rate_table,
)
from .problems import flat_quadratic, l1_denoise, l1_subgradient_gap, quadratic, soft_threshold
from .schedules import (
    ConditionReport,
    ConstantDamping,
    CustomSchedule,
    Hyperbolic,
    PolynomialDamping,
    ScheduleFamily,
    ScheduleSample,
    check_general,
    check_general2,
    check_para,
    condition_slacks,
    from_beta_parameterization,
    time_grid,
    verify_alpha_ode_residual,
    with_modified_nu,
)
from .smoothing import (
    SmoothApproximation,
    SmoothingSchedule,
    certify_smooth_approx,
    constant_mu,
    huber_l1,
    l1_denoise_approximation,
    rate_preserving_mu,
    smoothed_flow,
    with_exact_smooth_objective,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

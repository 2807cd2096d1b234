"""Over-the-air aggregation from a hovering collector over backscatter sensors.

The package simulates a two-flyover protocol: a pilot pass measures the
summed channel gain at each hover stop, a data pass collects noisy
gain-weighted sums of the sensor readings, and a linear combiner turns
those sums into an estimate of a weighted power-sum target.  It provides
the geometry and channel models, the protocol itself, closed-form and
pilot-driven combining coefficients, exact and model-based MSE formulas,
and a seeded Monte Carlo engine with a CLI front end.
"""

from .channel import ChannelParams, GainMatrix, effective_gain_matrix, received_powers
from .estimator import (
    GainStatistics,
    MseBreakdown,
    QuadratureConvergenceError,
    SamplingRejectedError,
    beta_benchmark,
    beta_equal_optimal,
    beta_grid_oracle,
    beta_heuristic,
    beta_heuristic_equal,
    gain_statistics,
    mse_exact_conditional,
    mse_exact_marginal,
    mse_model,
)
from .evaluation import (
    POLICY_NAMES,
    TARGET_NAMES,
    EstimationError,
    ExperimentConfig,
    ExperimentResult,
    GapEstimate,
    GridOracleResult,
    PolicyEstimate,
    SweepRow,
    build_target,
    compare_policies,
    estimate_mse,
    fixed_deployment,
    grid_oracle,
    run_trial,
    sweep,
    target_reference,
    to_db,
)
from .geometry import (
    SensorField,
    Trajectory,
    deploy_sensors,
    distance,
    distance_matrix,
    max_distance_bound,
    plan_diameter_trajectory,
)
from .nomographic import (
    TargetSpec,
    gaussian_power_variance,
    gaussian_raw_moment,
    target_mean,
    target_second_moment,
    target_sum_cross_moment,
    target_value,
)
from .protocol import (
    AggregateSamples,
    BetaVector,
    SumGainSamples,
    computation_phase,
    draw_sensor_data,
    estimate,
    sampling_phase,
)
from .rng import make_rng, spawn_seeds

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "SensorField",
    "Trajectory",
    "deploy_sensors",
    "plan_diameter_trajectory",
    "distance",
    "distance_matrix",
    "max_distance_bound",
    # channel
    "ChannelParams",
    "GainMatrix",
    "effective_gain_matrix",
    "received_powers",
    # protocol
    "SumGainSamples",
    "AggregateSamples",
    "BetaVector",
    "sampling_phase",
    "computation_phase",
    "estimate",
    "draw_sensor_data",
    # targets
    "TargetSpec",
    "target_value",
    "target_mean",
    "target_second_moment",
    "target_sum_cross_moment",
    "gaussian_raw_moment",
    "gaussian_power_variance",
    # estimator
    "GainStatistics",
    "MseBreakdown",
    "gain_statistics",
    "mse_model",
    "mse_exact_conditional",
    "mse_exact_marginal",
    "beta_equal_optimal",
    "beta_heuristic",
    "beta_heuristic_equal",
    "beta_benchmark",
    "beta_grid_oracle",
    "QuadratureConvergenceError",
    "SamplingRejectedError",
    # evaluation
    "ExperimentConfig",
    "ExperimentResult",
    "PolicyEstimate",
    "GapEstimate",
    "SweepRow",
    "GridOracleResult",
    "EstimationError",
    "POLICY_NAMES",
    "TARGET_NAMES",
    "build_target",
    "target_reference",
    "to_db",
    "run_trial",
    "estimate_mse",
    "compare_policies",
    "sweep",
    "grid_oracle",
    "fixed_deployment",
    # rng
    "make_rng",
    "spawn_seeds",
]

"""Monte Carlo evaluation of combining policies.

A *trial* is one full protocol round: deploy (or reuse) a sensor layout,
fly the pilot and data flyovers, form the estimate under a policy, and
record the squared error against the realized target.  Cells of many
trials are simulated in vectorized chunks; every policy evaluated at the
same configuration sees the same deployments, readings, and noise
(common random numbers), which makes policy gaps directly comparable.
A chunk runs the array forms of the same protocol steps that
:func:`run_trial` takes one round at a time, and both resolve a policy
through one table.

Randomness is derived deterministically from ``(seed, n, k, chunk)`` via
``numpy.random.SeedSequence``, with separate child streams for
positions, pilot noise, readings, and data-flyover noise, so results are
reproducible bit-for-bit for a fixed configuration.

MSE values quoted in dB are normalized by the analytic second moment of
the target, ``10 * log10(mse / E[target**2])``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import ChannelParams, effective_gain_matrix, gain_amplitude
from .estimator import (
    beta_benchmark,
    beta_equal_optimal,
    beta_grid_oracle,
    beta_heuristic,
    beta_heuristic_equal,
    gain_statistics,
    pilot_accepted,
)
from .geometry import SensorField, deploy_sensors, plan_diameter_trajectory, scatter_on_disk, squared_ranges
from .nomographic import TargetSpec, target_second_moment, target_value, target_values
from .protocol import (
    BetaVector,
    combine,
    computation_phase,
    draw_sensor_data,
    estimate,
    pilot_sums,
    sampling_phase,
    sensor_readings,
    stop_aggregates,
)
from .rng import make_rng, spawn_seeds

POLICY_NAMES = ("heuristic", "heuristic-equal", "optimal-equal", "benchmark", "grid-oracle", "zero")
TARGET_NAMES = ("config-1", "config-2", "config-3")

# streams per chunk, in a fixed order
_S_POSITIONS, _S_PILOT, _S_DATA, _S_FLYOVER = range(4)


class EstimationError(RuntimeError):
    """Raised when a cell produces no usable trials (all rounds rejected)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated operating point.

    Defaults are the reference network: 20 sensors on a 10 m disk, a
    5-stop diameter flight at 50 m altitude, 1 W illumination (30 dBm),
    receiver noise variance 1e-10 (-70 dBm), reflection 0.99, and
    ``g0 = 0.0275`` (868 MHz).  ``data_mean``/``data_var`` describe the
    Gaussian sensor readings.  With ``redeploy_per_trial`` set, every
    trial scatters a fresh layout; otherwise one seeded layout is reused
    and the Monte Carlo MSE is conditional on it.
    """

    n: int = 20
    k: int = 5
    r_cov: float = 10.0
    h: float = 50.0
    p_watts: float = 1.0
    noise_var: float = 1e-10
    zeta: float = 0.99
    g0: float = 0.0275
    data_mean: float = 0.0
    data_var: float = 1.0
    target: str | TargetSpec = "config-1"
    policies: tuple[str, ...] = ("heuristic", "heuristic-equal", "benchmark")
    trials: int = 10000
    seed: int = 1
    redeploy_per_trial: bool = True

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be >= 1, got n={self.n}, k={self.k}")
        for name in ("r_cov", "h", "p_watts", "zeta", "g0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.zeta > 1.0:
            raise ValueError(f"zeta must lie in (0, 1], got {self.zeta}")
        if self.noise_var < 0.0 or self.data_var < 0.0:
            raise ValueError("noise_var and data_var must be non-negative")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if isinstance(self.target, str) and self.target not in TARGET_NAMES:
            raise ValueError(f"unknown target {self.target!r}; choose from {TARGET_NAMES}")
        object.__setattr__(self, "policies", tuple(self.policies))
        for p in self.policies:
            if isinstance(p, str) and p not in POLICY_NAMES:
                raise ValueError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")


@dataclass(frozen=True)
class PolicyEstimate:
    """Monte Carlo MSE estimate for one policy at one configuration."""

    policy: str
    mse: float
    std_err: float
    trials_used: int
    trials_rejected: int


@dataclass(frozen=True)
class GapEstimate:
    """Paired dB gap between two policies on common random numbers."""

    policy_a: str
    policy_b: str
    gap_db: float
    std_err_db: float
    trials_used: int


@dataclass(frozen=True)
class SweepRow:
    axis_value: int
    target: str
    policy: str
    mse: float
    std_err: float
    mse_db: float
    trials_used: int
    error: str = ""  # why the cell failed, "ExceptionClass: message"; empty if it ran


@dataclass(frozen=True)
class ExperimentResult:
    """Sweep output: one row per (axis value, target, policy)."""

    axis: str
    rows: tuple[SweepRow, ...]

    CSV_HEADER = "axis_value,target,policy,mse,std_err,mse_db,trials_used"

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.axis_value},{r.target},{r.policy},"
                f"{repr(float(r.mse))},{repr(float(r.std_err))},"
                f"{repr(float(r.mse_db))},{r.trials_used}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())


@dataclass(frozen=True)
class GridOracleResult:
    """Grid-search outcome plus the evaluated grid for inspection."""

    beta: float
    mse: float
    center: float
    grid: np.ndarray
    values: np.ndarray


def build_target(target, n: int) -> TargetSpec:
    """Materialize a named target configuration for ``n`` sensors.

    ``config-1``: plain sum; ``config-2``: sum of squares;
    ``config-3``: cubes with ramp weights ``w_i = i``.  A ready
    :class:`TargetSpec` passes through (its length must match ``n``).
    """
    if isinstance(target, TargetSpec):
        if target.n != n:
            raise ValueError(f"target spec is for {target.n} sensors, expected {n}")
        return target
    if target == "config-1":
        return TargetSpec(np.ones(n), np.ones(n, dtype=int))
    if target == "config-2":
        return TargetSpec(np.ones(n), np.full(n, 2))
    if target == "config-3":
        return TargetSpec(np.arange(1, n + 1, dtype=float), np.full(n, 3))
    raise ValueError(f"unknown target {target!r}; choose from {TARGET_NAMES}")


def target_reference(config: ExperimentConfig, tspec: TargetSpec | None = None) -> float:
    """dB reference for a configuration: ``E[target**2]`` under its data statistics."""
    if tspec is None:
        tspec = build_target(config.target, config.n)
    return target_second_moment(tspec, config.data_mean, config.data_var)


def to_db(mse: float, reference: float) -> float:
    """Normalized MSE in decibels, ``10 * log10(mse / reference)``."""
    if not reference > 0.0:
        raise ValueError(f"reference must be positive, got {reference}")
    if mse < 0.0:
        raise ValueError(f"mse must be non-negative, got {mse}")
    if mse == 0.0:
        return -math.inf
    return 10.0 * math.log10(mse / reference)


def fixed_deployment(config: ExperimentConfig) -> SensorField:
    """The seeded layout reused by every trial when ``redeploy_per_trial`` is off."""
    return deploy_sensors(
        config.n,
        config.r_cov,
        config.zeta,
        config.data_mean,
        config.data_var,
        seed=np.random.SeedSequence((config.seed, config.n, config.k)),
    )


def _chunk_size(n: int, k: int) -> int:
    # bounded working set: chunk * n * k floats stays near 32 MB
    return max(64, min(16384, int(4_000_000 // max(n * k, 1))))


def _policy_label(policy) -> str:
    return policy if isinstance(policy, str) else "fixed"


class _Cell:
    """The fixed inputs of one operating point, shared by its rounds and policy rules.

    Quantities only some policies need are computed on first use.
    """

    def __init__(self, config: ExperimentConfig, tspec: TargetSpec):
        self.config = config
        self.tspec = tspec
        self.params = ChannelParams(g0=config.g0, tx_power_w=config.p_watts)
        self.traj = plan_diameter_trajectory(config.k, config.r_cov, config.h)

    @cached_property
    def stats(self):
        return gain_statistics(self.traj, self.config.r_cov, self.params, self.config.zeta)

    @cached_property
    def fixed_gains(self) -> np.ndarray:
        return effective_gain_matrix(fixed_deployment(self.config), self.traj, self.params).g

    def gains(self, seed, size: int) -> np.ndarray:
        """Effective gains ``(size, n, k)`` of ``size`` rounds' deployments."""
        c = self.config
        if not c.redeploy_per_trial:
            return np.broadcast_to(self.fixed_gains, (size, c.n, c.k))
        x, y = scatter_on_disk(make_rng(seed), c.r_cov, (size, c.n))
        return gain_amplitude(c.zeta, self.params) / squared_ranges(x, y, self.traj)


@dataclass(frozen=True)
class _Rule:
    """A policy resolved for one cell.

    ``coefficients`` maps pilot sums ``(..., k)`` to per-stop
    coefficients ``(..., k)`` if ``per_stop`` is set, else to one equal
    coefficient per round.  It is ``None`` for the grid oracle, which
    needs the whole batch.  A ``pilot`` rule rejects rounds whose pilot
    sums are not all positive.
    """

    coefficients: Callable | None
    per_stop: bool = False
    pilot: bool = False

    def batch(self, alpha):
        """Coefficients and acceptance flags (``None``: all accepted) for pilot sums ``(S, k)``."""
        if not self.pilot:
            return self.coefficients(alpha), None
        ok = pilot_accepted(alpha)
        if ok.all():
            return self.coefficients(alpha), ok
        beta = np.zeros(alpha.shape if self.per_stop else alpha.shape[:-1])
        if ok.any():
            beta[ok] = self.coefficients(alpha[ok])
        return beta, ok


def _constant(beta: float) -> _Rule:
    return _Rule(lambda alpha: beta)


def _heuristic(cell: _Cell) -> _Rule:
    c = cell.config
    return _Rule(
        lambda alpha: beta_heuristic(alpha, cell.tspec, c.data_mean, c.data_var, c.noise_var, c.n).beta,
        per_stop=True,
        pilot=True,
    )


def _heuristic_equal(cell: _Cell) -> _Rule:
    c = cell.config
    return _Rule(
        lambda alpha: beta_heuristic_equal(alpha, cell.tspec, c.data_mean, c.data_var, c.noise_var, c.n),
        pilot=True,
    )


def _optimal_equal(cell: _Cell) -> _Rule:
    c = cell.config
    return _constant(beta_equal_optimal(cell.tspec, cell.stats, c.data_mean, c.data_var, c.noise_var))


def _benchmark(cell: _Cell) -> _Rule:
    return _constant(float(beta_benchmark(cell.traj, cell.params, cell.config.zeta, cell.config.n).beta[0]))


_POLICIES = {
    "heuristic": _heuristic,
    "heuristic-equal": _heuristic_equal,
    "optimal-equal": _optimal_equal,
    "benchmark": _benchmark,
    "grid-oracle": lambda cell: _Rule(None),
    "zero": lambda cell: _constant(0.0),
}


def _resolve(policy, cell: _Cell) -> _Rule:
    """Look a policy name up in the table, or wrap a fixed scalar or per-stop vector."""
    if isinstance(policy, str):
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")
        return _POLICIES[policy](cell)
    if isinstance(policy, (BetaVector, np.ndarray)):
        beta = policy.beta if isinstance(policy, BetaVector) else np.asarray(policy, float)
        if beta.shape != (cell.config.k,):
            raise ValueError(f"fixed beta must have {cell.config.k} entries, got shape {beta.shape}")
        if np.all(beta == beta[0]):
            return _constant(float(beta[0]))  # an equal vector is the scalar policy
        return _Rule(lambda alpha: beta, per_stop=True)
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        return _constant(float(policy))
    raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")


def _grid_search(agg_sum, agg_target, center: float, resolution: int, span: float):
    """Equal-coefficient grid search scored on one batch of rounds.

    ``agg_sum`` holds each round's aggregate sum and ``agg_target`` its
    target.  Returns the :class:`GridOracleResult` and the squared
    errors of its best coefficient.
    """

    def sqerr(b):
        return (b * agg_sum - agg_target) ** 2

    record = []

    def objective(b):
        val = float(np.mean(sqerr(b)))
        record.append((b, val))
        return val

    beta, mse = beta_grid_oracle(objective, center, resolution=resolution, span=span)
    grid, values = (np.array(column) for column in zip(*record))
    result = GridOracleResult(beta=beta, mse=mse, center=center, grid=grid, values=values)
    return result, sqerr(beta)


def _evaluate_cell(config: ExperimentConfig, tspec: TargetSpec, policies, grid=(64, 100.0)):
    """Simulate one cell and score every policy on the same trials.

    Returns squared errors and acceptance flags, one row per policy, and
    the grid search if a policy is ``grid-oracle`` (else ``None``).
    ``grid`` is that search's ``(resolution, span)``.
    """
    cell = _Cell(config, tspec)
    rules = [_resolve(p, cell) for p in policies]
    trials = config.trials
    sqerr = np.empty((len(rules), trials))
    accept = np.ones((len(rules), trials), dtype=bool)
    wants_oracle = any(rule.coefficients is None for rule in rules)
    if wants_oracle:
        agg_sum = np.empty(trials)
        agg_target = np.empty(trials)

    chunk = _chunk_size(config.n, config.k)
    for c, lo in enumerate(range(0, trials, chunk)):
        hi = min(trials, lo + chunk)
        # the steps of run_trial, on a chunk of rounds; g stays alive until
        # the next chunk's exists, so the allocator reuses its pages
        streams = spawn_seeds((config.seed, config.n, config.k, c), 4)
        g = cell.gains(streams[_S_POSITIONS], hi - lo)
        alpha = pilot_sums(g, config.noise_var, streams[_S_PILOT])
        data = sensor_readings(config.data_mean, config.data_var, streams[_S_DATA], (hi - lo, config.n))
        dbar = stop_aggregates(g, data, config.noise_var, streams[_S_FLYOVER])
        target = target_values(tspec, data)
        for i, rule in enumerate(rules):
            if rule.coefficients is None:
                continue
            beta, ok = rule.batch(alpha)
            if ok is not None:
                accept[i, lo:hi] = ok
            sqerr[i, lo:hi] = (combine(dbar, beta, rule.per_stop) - target) ** 2
        if wants_oracle:
            agg_sum[lo:hi] = dbar.sum(axis=1)
            agg_target[lo:hi] = target

    oracle = None
    if wants_oracle:
        center = beta_equal_optimal(tspec, cell.stats, config.data_mean, config.data_var, config.noise_var)
        oracle, oracle_sqerr = _grid_search(agg_sum, agg_target, center, *grid)
        for i, rule in enumerate(rules):
            if rule.coefficients is None:
                sqerr[i] = oracle_sqerr
    return sqerr, accept, oracle


def _summarize(sqerr: np.ndarray, accept: np.ndarray, policy) -> PolicyEstimate:
    used = int(accept.sum())
    rejected = accept.size - used
    if used == 0:
        raise EstimationError("every trial was rejected (non-positive pilot measurements)")
    vals = sqerr[accept]
    mean = float(vals.mean())
    std_err = float(vals.std(ddof=1) / math.sqrt(used)) if used > 1 else math.nan
    return PolicyEstimate(
        policy=_policy_label(policy),
        mse=mean,
        std_err=std_err,
        trials_used=used,
        trials_rejected=rejected,
    )


def run_trial(config: ExperimentConfig, policy, trial_seed) -> float:
    """One protocol round through the composable API; returns the squared error.

    Deterministic in ``(config, policy, trial_seed)``.  The round runs
    the engine's arithmetic, so on a cell's first-chunk streams,
    ``np.random.SeedSequence((seed, n, k, 0))``, it reproduces the cell
    with ``trials=1`` bit for bit.  Raises
    :class:`~aircomp.estimator.SamplingRejectedError` when a pilot-using
    policy sees a non-positive measurement.  The ``grid-oracle`` policy
    needs a batch of trials and is rejected here.
    """
    tspec = build_target(config.target, config.n)
    cell = _Cell(config, tspec)
    rule = _resolve(policy, cell)
    if rule.coefficients is None:
        raise ValueError("grid-oracle needs a trial batch; use estimate_mse or grid_oracle")
    streams = spawn_seeds(trial_seed, 4)

    if config.redeploy_per_trial:
        sensors = deploy_sensors(
            config.n, config.r_cov, config.zeta, config.data_mean, config.data_var,
            seed=streams[_S_POSITIONS],
        )
    else:
        sensors = fixed_deployment(config)
    gains = effective_gain_matrix(sensors, cell.traj, cell.params)
    pilots = sampling_phase(gains, config.noise_var, streams[_S_PILOT])
    data = draw_sensor_data(sensors, streams[_S_DATA])
    aggregates = computation_phase(gains, data, config.noise_var, streams[_S_FLYOVER])

    err = estimate(aggregates, rule.coefficients(pilots.alpha)) - target_value(tspec, data)
    return err * err


def estimate_mse(config: ExperimentConfig, policy) -> PolicyEstimate:
    """Monte Carlo MSE of one policy over ``config.trials`` rounds.

    Trials whose pilot flyover produced a non-positive measurement are
    excluded and counted for pilot-using policies.  Raises
    :class:`EstimationError` if nothing survives.
    """
    tspec = build_target(config.target, config.n)
    sqerr, accept, _ = _evaluate_cell(config, tspec, [policy])
    return _summarize(sqerr[0], accept[0], policy)


def compare_policies(config: ExperimentConfig, policy_a, policy_b) -> GapEstimate:
    """Paired dB gap ``10*log10(mse_a / mse_b)`` on common random numbers.

    Only trials accepted by both policies enter, and the standard error
    accounts for the covariance the shared randomness induces.
    """
    tspec = build_target(config.target, config.n)
    sqerr, accept, _ = _evaluate_cell(config, tspec, [policy_a, policy_b])
    joint = accept[0] & accept[1]
    used = int(joint.sum())
    if used < 2:
        raise EstimationError("not enough jointly accepted trials to compare")
    va = sqerr[0, joint]
    vb = sqerr[1, joint]
    ma, mb = float(va.mean()), float(vb.mean())
    if ma <= 0.0 or mb <= 0.0:
        raise EstimationError("degenerate comparison: a policy has zero Monte Carlo MSE")
    cov = np.cov(va, vb, ddof=1)
    var_log = (cov[0, 0] / ma**2 + cov[1, 1] / mb**2 - 2.0 * cov[0, 1] / (ma * mb)) / used
    gap_db = 10.0 * math.log10(ma / mb)
    std_err_db = (10.0 / math.log(10.0)) * math.sqrt(max(var_log, 0.0))
    return GapEstimate(
        policy_a=_policy_label(policy_a),
        policy_b=_policy_label(policy_b),
        gap_db=gap_db,
        std_err_db=std_err_db,
        trials_used=used,
    )


def sweep(config: ExperimentConfig, axis: str, values, targets=None) -> ExperimentResult:
    """Run every (axis value, target, policy) cell and tabulate the results.

    Args:
        config: base configuration; ``axis`` overrides one of its fields.
        axis: ``"k"`` (stop count) or ``"n"`` (sensor count).
        values: strictly ascending positive integers for the axis.
        targets: target selectors (defaults to ``[config.target]``).

    A failing cell is recorded with NaN statistics, zero trials and the
    exception in ``error`` instead of aborting the sweep.
    """
    axis = axis.lower()
    if axis not in ("k", "n"):
        raise ValueError(f"axis must be 'k' or 'n', got {axis!r}")
    vals = [int(v) for v in values]
    if not vals or any(v < 1 for v in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("axis values must be strictly ascending positive integers")
    if targets is None:
        targets = [config.target]

    rows: list[SweepRow] = []
    for value in vals:
        cell_cfg = replace(config, **{axis: value})
        for target in targets:
            label = target if isinstance(target, str) else "custom"
            try:
                tspec = build_target(target, cell_cfg.n)
                reference = target_second_moment(tspec, cell_cfg.data_mean, cell_cfg.data_var)
                sqerr, accept, _ = _evaluate_cell(cell_cfg, tspec, config.policies)
                for policy, cell_sqerr, cell_accept in zip(config.policies, sqerr, accept):
                    est = _summarize(cell_sqerr, cell_accept, policy)
                    rows.append(
                        SweepRow(
                            axis_value=value,
                            target=label,
                            policy=est.policy,
                            mse=est.mse,
                            std_err=est.std_err,
                            mse_db=to_db(est.mse, reference),
                            trials_used=est.trials_used,
                        )
                    )
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                for policy in config.policies:
                    rows.append(
                        SweepRow(
                            axis_value=value,
                            target=label,
                            policy=_policy_label(policy),
                            mse=math.nan,
                            std_err=math.nan,
                            mse_db=math.nan,
                            trials_used=0,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
    return ExperimentResult(axis=axis, rows=tuple(rows))


def grid_oracle(config: ExperimentConfig, resolution: int = 64, span: float = 100.0) -> GridOracleResult:
    """Equal-coefficient grid search on one simulated cell.

    The grid is centered on the closed-form coefficient and every grid
    point is scored on the same batch of trials, so the minimizer is
    directly comparable with the closed-form policies.
    """
    tspec = build_target(config.target, config.n)
    _, _, result = _evaluate_cell(config, tspec, ["grid-oracle"], grid=(resolution, span))
    return result

"""Combining-coefficient design rules and analytic MSE models.

Two analytic error models coexist deliberately and are never merged:

* :func:`mse_model` is the simplified design model — gains independent
  across stops, a variance-only quadratic term, and a per-sensor
  variance penalty weighted by ``w_i`` (not ``w_i**2``).  It is quadratic
  in an equal coefficient ``beta`` with coefficients ``A, B, C``, and
  :func:`beta_equal_optimal` returns its minimizer ``B / A``.
* :func:`mse_exact_conditional` / :func:`mse_exact_marginal` expand the
  squared error without approximation (the marginal form keeps the full
  cross-stop second-moment matrix of the gains).  These serve as the
  ground truth the Monte Carlo engine is checked against.

Coefficient rules that use pilot measurements (:func:`beta_heuristic`,
:func:`beta_heuristic_equal`) treat every sensor's gain at stop ``k`` as
the measured per-stop average ``alpha_k / n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, GainMatrix, gain_amplitude
from .geometry import Trajectory, squared_ranges
from .nomographic import (
    TargetSpec,
    gaussian_power_variance,
    gaussian_raw_moment,
    target_mean,
    target_sum_cross_moment,
)
from .protocol import BetaVector, SumGainSamples


class QuadratureConvergenceError(RuntimeError):
    """Raised when refining the disk quadrature still moves the result."""


class SamplingRejectedError(RuntimeError):
    """Raised when a pilot measurement is non-positive (noise-dominated)."""


@dataclass(frozen=True)
class GainStatistics:
    """Distributional gain statistics for one sensor uniform on the disk.

    Attributes:
        mean_g: ``(k,)`` per-stop means of the effective gain.
        var_g: ``(k,)`` per-stop variances.
        second_moment: ``(k, k)`` matrix ``E[g(k) * g(k')]`` for a shared
            sensor position; the diagonal equals ``var_g + mean_g**2``.
    """

    mean_g: np.ndarray
    var_g: np.ndarray
    second_moment: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean_g, dtype=np.float64).copy()
        var = np.asarray(self.var_g, dtype=np.float64).copy()
        m2 = np.asarray(self.second_moment, dtype=np.float64).copy()
        k = mean.size
        if mean.ndim != 1 or var.shape != (k,) or m2.shape != (k, k):
            raise ValueError("inconsistent statistics shapes")
        if np.any(mean <= 0.0) or np.any(var < 0.0):
            raise ValueError("mean gains must be positive, variances non-negative")
        for name, arr in (("mean_g", mean), ("var_g", var), ("second_moment", m2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.mean_g.size


@dataclass(frozen=True)
class MseBreakdown:
    """An MSE value plus the equal-coefficient quadratic it came from.

    ``mse`` is the model evaluated at the supplied coefficient vector;
    ``quadratic_a``, ``linear_b``, ``constant_c`` describe the equal-beta
    restriction ``A * beta**2 - 2 * B * beta + C`` of the same model.
    """

    quadratic_a: float
    linear_b: float
    constant_c: float
    mse: float

    def at_equal(self, beta: float) -> float:
        """Evaluate the equal-coefficient quadratic at a scalar ``beta``."""
        return self.quadratic_a * beta**2 - 2.0 * self.linear_b * beta + self.constant_c


def _disk_rule(r_cov: float, radial_nodes: int, angular_nodes: int):
    """Product quadrature for averaging over the uniform disk.

    Gauss-Legendre in radius (with the area weight ``2 r / r_cov**2``
    folded in) times a midpoint rule in angle, which is spectrally
    accurate for the periodic direction.  Weights sum to 1.
    """
    x, w = np.polynomial.legendre.leggauss(radial_nodes)
    r = 0.5 * r_cov * (x + 1.0)
    w_r = w * (0.5 * r_cov) * (2.0 * r / r_cov**2)
    theta = (np.arange(angular_nodes) + 0.5) * (2.0 * np.pi / angular_nodes)
    px = np.outer(r, np.cos(theta)).ravel()
    py = np.outer(r, np.sin(theta)).ravel()
    wgt = np.repeat(w_r, angular_nodes) / angular_nodes
    return px, py, wgt


def _gain_moments(traj, r_cov, params, zeta, radial_nodes, angular_nodes):
    px, py, wgt = _disk_rule(r_cov, radial_nodes, angular_nodes)
    g = gain_amplitude(zeta, params) / squared_ranges(px, py, traj)
    mean = wgt @ g
    second = g.T @ (g * wgt[:, None])
    return mean, second


def gain_statistics(
    traj: Trajectory,
    r_cov: float,
    params: ChannelParams,
    zeta: float,
    radial_nodes: int = 256,
    angular_nodes: int = 256,
) -> GainStatistics:
    """Per-stop gain statistics for a sensor uniform on the coverage disk.

    Deterministic polar product quadrature; the rule is re-evaluated at
    doubled resolution and the refinement must agree to 1e-6 relative,
    otherwise :class:`QuadratureConvergenceError` is raised.  The refined
    values are returned.

    Args:
        traj: stop plan (stops may lie anywhere, altitude sets the floor).
        r_cov: coverage-disk radius, ``> 0``.
        params: channel constants.
        zeta: common reflection coefficient in ``(0, 1]``.
        radial_nodes: base number of radial nodes (``>= 16``).
        angular_nodes: base number of angular nodes (``>= 16``).
    """
    if not r_cov > 0.0:
        raise ValueError(f"r_cov must be positive, got {r_cov}")
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if radial_nodes < 16 or angular_nodes < 16:
        raise ValueError("quadrature needs at least 16 nodes per direction")
    mean_a, second_a = _gain_moments(traj, r_cov, params, zeta, radial_nodes, angular_nodes)
    mean_b, second_b = _gain_moments(traj, r_cov, params, zeta, 2 * radial_nodes, 2 * angular_nodes)
    scale = max(float(np.max(np.abs(mean_b))), np.finfo(float).tiny)
    scale2 = max(float(np.max(np.abs(second_b))), np.finfo(float).tiny)
    err = max(
        float(np.max(np.abs(mean_b - mean_a))) / scale,
        float(np.max(np.abs(second_b - second_a))) / scale2,
    )
    if err > 1e-6:
        raise QuadratureConvergenceError(
            f"disk quadrature changed by {err:.3e} relative under refinement"
        )
    # rounding can push a near-zero variance slightly negative
    var = np.maximum(np.diag(second_b) - mean_b**2, 0.0)
    return GainStatistics(mean_g=mean_b, var_g=var, second_moment=second_b)


def _as_beta_array(beta, k: int) -> np.ndarray:
    if isinstance(beta, BetaVector):
        beta = beta.beta
    arr = np.asarray(beta, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(k, float(arr))
    if arr.shape != (k,):
        raise ValueError(f"beta must have {k} entries, got shape {arr.shape}")
    return arr


def _noise_array(noise_vars, k: int) -> np.ndarray:
    arr = np.asarray(noise_vars, dtype=np.float64)
    arr = np.broadcast_to(arr, (k,)).astype(np.float64)
    if np.any(arr < 0.0):
        raise ValueError("noise variances must be non-negative")
    return arr


def _data_arrays(spec: TargetSpec, data_mean, data_var):
    mu = np.broadcast_to(np.asarray(data_mean, dtype=np.float64), (spec.n,)).astype(float)
    var = np.broadcast_to(np.asarray(data_var, dtype=np.float64), (spec.n,)).astype(float)
    if np.any(var < 0.0):
        raise ValueError("data_var must be non-negative")
    return mu, var


def mse_model(
    spec: TargetSpec,
    stats: GainStatistics,
    data_mean,
    data_var,
    noise_vars,
    beta,
) -> MseBreakdown:
    """The simplified analytic MSE model evaluated at ``beta``.

    The model treats gains as independent across stops, keeps only the
    data-variance part in the quadratic term, and charges each sensor's
    power-variance penalty with weight ``w_i``:

    ``sum_i [ var_i * (beta . Eg)**2 + (var_i + mu_i**2) * sum_k beta_k**2 Vg_k
    - 2 * (w_i m_i(v_i+1) + mu_i * sum_{j!=i} w_j m_j(v_j)) * (beta . Eg)
    + w_i Var(d_i**v_i) ] + (sum_i w_i m_i(v_i))**2 + sum_k beta_k**2 nv_k``.

    Returns:
        :class:`MseBreakdown` with the value at ``beta`` and the
        equal-coefficient quadratic ``A, B, C`` of the same model.
    """
    k = stats.k
    beta_arr = _as_beta_array(beta, k)
    noise = _noise_array(noise_vars, k)
    mu, var = _data_arrays(spec, data_mean, data_var)
    w, v = spec.weights, spec.exponents

    sum_var = float(var.sum())
    sum_var_mu2 = float((var + mu**2).sum())
    cross = target_sum_cross_moment(spec, mu, var)
    constant_c = float(np.sum(w * gaussian_power_variance(mu, var, v))) + target_mean(spec, mu, var) ** 2

    dot = float(beta_arr @ stats.mean_g)
    b2v = float(beta_arr**2 @ stats.var_g)
    b2n = float(beta_arr**2 @ noise)
    mse = sum_var * dot**2 + sum_var_mu2 * b2v - 2.0 * cross * dot + constant_c + b2n

    s1 = float(stats.mean_g.sum())
    s2 = float(stats.var_g.sum())
    quadratic_a = sum_var * s1**2 + sum_var_mu2 * s2 + float(noise.sum())
    linear_b = cross * s1
    return MseBreakdown(quadratic_a=quadratic_a, linear_b=linear_b, constant_c=constant_c, mse=mse)


def beta_equal_optimal(
    spec: TargetSpec,
    stats: GainStatistics,
    data_mean,
    data_var,
    noise_vars,
) -> float:
    """Closed-form equal coefficient minimizing the simplified model: ``B / A``.

    Raises:
        ValueError: if the quadratic is degenerate (``A <= 0``, i.e. all
            data variances, gain variances, and noise variances vanish).
    """
    breakdown = mse_model(spec, stats, data_mean, data_var, noise_vars, np.zeros(stats.k))
    if not breakdown.quadratic_a > 0.0:
        raise ValueError("degenerate model: quadratic coefficient is not positive")
    return breakdown.linear_b / breakdown.quadratic_a


def _exact_mse(spec, t_mean, t_sq, data_mean, data_var, noise_term):
    """Shared exact expansion given per-sensor E[T_i] and E[T_i**2].

    ``T_i`` is the total combined gain applied to sensor ``i``; the error
    is ``sum_i (T_i d_i - w_i d_i**v_i) + combined noise`` with sensors
    independent, so only first and second moments of ``T_i`` enter.
    """
    mu, var = _data_arrays(spec, data_mean, data_var)
    w, v = spec.weights, spec.exponents
    m2 = mu**2 + var
    m_v = gaussian_raw_moment(mu, var, v)
    m_v1 = gaussian_raw_moment(mu, var, v + 1)
    m_2v = gaussian_raw_moment(mu, var, 2 * v)
    ex2 = t_sq * m2 - 2.0 * t_mean * w * m_v1 + w**2 * m_2v
    ex = t_mean * mu - w * m_v
    return float(ex2.sum() - np.sum(ex**2) + ex.sum() ** 2 + noise_term)


def mse_exact_conditional(
    spec: TargetSpec,
    gains: GainMatrix,
    data_mean,
    data_var,
    noise_vars,
    beta,
) -> float:
    """Exact MSE for one realized deployment (expectation over data and noise)."""
    if gains.n != spec.n:
        raise ValueError(f"gain matrix has {gains.n} sensors but spec has {spec.n}")
    beta_arr = _as_beta_array(beta, gains.k)
    noise = _noise_array(noise_vars, gains.k)
    t = gains.g @ beta_arr
    return _exact_mse(spec, t, t**2, data_mean, data_var, float(beta_arr**2 @ noise))


def mse_exact_marginal(
    spec: TargetSpec,
    stats: GainStatistics,
    data_mean,
    data_var,
    noise_vars,
    beta,
) -> float:
    """Exact MSE marginalized over sensor positions as well.

    Uses the full cross-stop second-moment matrix of the gains, so the
    correlation a shared sensor position induces between stops is kept.
    """
    beta_arr = _as_beta_array(beta, stats.k)
    noise = _noise_array(noise_vars, stats.k)
    t_mean = float(beta_arr @ stats.mean_g)
    t_sq = float(beta_arr @ stats.second_moment @ beta_arr)
    return _exact_mse(spec, t_mean, t_sq, data_mean, data_var, float(beta_arr**2 @ noise))


def pilot_accepted(alpha) -> np.ndarray:
    """Whether each round's pilot sums ``(..., k)`` are all positive.

    A round failing this is rejected by the pilot-driven rules.
    """
    return (alpha > 0.0).all(axis=-1)


def _pilot_inputs(alphas, spec: TargetSpec, data_mean, data_var, n_sensors: int):
    """Validated pilot sums plus the ``cross`` and ``sum_i var_i`` terms both pilot rules share."""
    alpha = alphas.alpha if isinstance(alphas, SumGainSamples) else np.asarray(alphas, float)
    if not pilot_accepted(alpha).all():
        raise SamplingRejectedError("non-positive pilot measurement; re-sample the round")
    if n_sensors < 1:
        raise ValueError(f"n_sensors must be >= 1, got {n_sensors}")
    mu, var = _data_arrays(spec, data_mean, data_var)
    return alpha, target_sum_cross_moment(spec, mu, var), float(var.sum())


def beta_heuristic(
    alphas: SumGainSamples,
    spec: TargetSpec,
    data_mean,
    data_var,
    noise_vars,
    n_sensors: int,
) -> BetaVector:
    """Per-stop coefficients from pilot measurements.

    Stop ``k`` receives
    ``cross / (K * (alpha_k / n) * sum_i var_i + n * nv_k / alpha_k)``
    where ``cross`` is the sum-target correlation term.  The noise part
    of the denominator shrinks the coefficient of stops whose pilot
    sample is weak relative to the receiver noise.  Pilot sums may carry
    leading round axes, ``(..., k)``; the coefficients then do too.

    Raises:
        SamplingRejectedError: if any pilot measurement is non-positive.
    """
    alpha, cross, sum_var = _pilot_inputs(alphas, spec, data_mean, data_var, n_sensors)
    k = alpha.shape[-1]
    noise = _noise_array(noise_vars, k)
    return BetaVector(cross / (k * (alpha / n_sensors) * sum_var + n_sensors * noise / alpha))


def beta_heuristic_equal(
    alphas: SumGainSamples,
    spec: TargetSpec,
    data_mean,
    data_var,
    noise_vars,
    n_sensors: int,
):
    """Single shared coefficient from pooled pilot measurements.

    ``cross / ((sum_k alpha_k / n) * sum_i var_i + n * sum_k nv_k / sum_k alpha_k)``,
    where a scalar noise variance counts ``k`` times.  Collapses to the
    per-stop rule when all pilot samples are equal.  Returns a float for
    one round's pilot sums ``(k,)`` and an array ``(...)`` for a batch
    ``(..., k)``.

    Raises:
        SamplingRejectedError: if any pilot measurement is non-positive.
    """
    alpha, cross, sum_var = _pilot_inputs(alphas, spec, data_mean, data_var, n_sensors)
    k = alpha.shape[-1]
    noise = _noise_array(noise_vars, k)
    noise_total = k * float(noise_vars) if np.ndim(noise_vars) == 0 else float(noise.sum())
    total = alpha.sum(axis=-1)
    beta = cross / ((total / n_sensors) * sum_var + n_sensors * noise_total / total)
    return float(beta) if beta.ndim == 0 else beta


def beta_benchmark(
    traj: Trajectory,
    params: ChannelParams,
    zeta: float,
    n_sensors: int,
) -> BetaVector:
    """Location-incognizant averaging benchmark.

    Every stop gets ``1 / (k * n * g_nom)`` where ``g_nom`` is the
    effective gain of a sensor directly beneath the UAV; no pilot or
    position information is used.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if n_sensors < 1:
        raise ValueError(f"n_sensors must be >= 1, got {n_sensors}")
    g_nom = gain_amplitude(zeta, params) / traj.altitude_h**2
    return BetaVector(np.full(traj.k, 1.0 / (traj.k * n_sensors * g_nom)))


def beta_grid_oracle(
    objective,
    center: float,
    resolution: int = 64,
    span: float = 100.0,
) -> tuple[float, float]:
    """Equal-coefficient grid search against a Monte Carlo objective.

    Evaluates ``objective`` (a callable mapping a scalar coefficient to
    an MSE estimate) on a log-spaced grid of ``resolution`` points
    covering ``[center / span, center * span]`` and returns the best
    ``(beta, value)`` pair.  The exact center is always inserted into
    the grid so the search never does worse than its starting point,
    even when the minimum is much sharper than the grid spacing.

    Raises:
        ValueError: if ``resolution < 16``, ``center <= 0``, ``span <= 1``,
            or the objective returns a non-finite value.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")
    if not center > 0.0:
        raise ValueError(f"center must be positive, got {center}")
    if not span > 1.0:
        raise ValueError(f"span must exceed 1, got {span}")
    grid = center * np.logspace(-np.log10(span), np.log10(span), resolution)
    if center not in grid:
        grid = np.sort(np.append(grid, center))
    values = np.array([float(objective(b)) for b in grid])
    if not np.all(np.isfinite(values)):
        raise ValueError("objective returned a non-finite value")
    best = int(np.argmin(values))
    return float(grid[best]), float(values[best])

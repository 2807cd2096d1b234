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
  ground truth the Monte Carlo engine is checked against.  Both are
  :class:`DataMoments` evaluated at total gains; the engine's default
  estimator applies the same algebra to every trial's realized gains.

Coefficient rules that use pilot measurements (:func:`beta_heuristic`,
:func:`beta_heuristic_equal`) treat every sensor's gain at stop ``k`` as
the measured per-stop average ``alpha_k / n``.

The gain statistics of a sensor uniform on the disk
(:func:`gain_statistics`) are exact in angle, through the Poisson kernel,
so only a one-dimensional Gauss-Legendre rule in radius is left.  The
same formulas serve every stop plan, on or off a diameter, and stay
accurate at low altitude where the gain under a stop is a narrow spike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import ChannelParams, GainMatrix, gain_amplitude
from .geometry import Trajectory, frozen_array
from .nomographic import DataMoments, TargetSpec, gaussian_power_variance
from .protocol import BetaVector, SumGainSamples


class QuadratureConvergenceError(RuntimeError):
    """Raised when refining the disk quadrature still moves the result."""


class SamplingRejectedError(RuntimeError):
    """Raised when a pilot measurement is non-positive (noise-dominated)."""


@dataclass(frozen=True)
class GainStatistics:
    """Distributional gain statistics for one sensor uniform on the disk.

    Every array is a finite, read-only float64 copy.

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
        for name, ndim in (("mean_g", 1), ("var_g", 1), ("second_moment", 2)):
            object.__setattr__(self, name, frozen_array(getattr(self, name), name, ndim))
        k = self.k
        if self.var_g.shape != (k,) or self.second_moment.shape != (k, k):
            raise ValueError("inconsistent statistics shapes")
        if not ((self.mean_g > 0.0).all() and (self.var_g >= 0.0).all()):
            raise ValueError("mean gains must be positive, variances non-negative")

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


_PAIR_BLOCK = 64  # stop pairs per block of the radial rule


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, computed once per node count."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _inverse_range_moments(traj: Trajectory, r_cov: float, nodes: int):
    """Disk averages ``E[1/d_j**2]`` ``(k,)`` and ``E[1/(d_j**2 d_k**2)]`` ``(k, k)``.

    With the sensor at radius ``r`` and stop ``j`` at distance ``rho_j``
    from the centre, ``d_j**2 = a_j - b_j cos(theta - psi_j)`` where
    ``a = h**2 + r**2 + rho**2`` and ``b = 2 r rho``.  The Poisson kernel
    ``1/(a - b cos theta) = (1/q) sum_n t**|n| e**(i n theta)``, with
    ``q = sqrt(a**2 - b**2)`` and ``t = b / (a + q)``, averages over the
    angle exactly: the mean is ``1/q`` and the cross moment of stops
    ``phi`` apart is ``(1 - u**2) / (q_j q_k (1 - 2 u cos phi + u**2))``
    with ``u = t_j t_k``.  Every factor that vanishes at low altitude is
    formed as a sum of non-negative terms, so nothing cancels:
    ``1 - t = (a - b + q) / (a + q)`` with ``a - b = h**2 + (r - rho)**2``,
    ``1 - u = (1 - t_j) + t_j (1 - t_k)``, and the denominator is
    ``(1 - u)**2 + 4 u sin(phi/2)**2``.  What is left is a Gauss-Legendre
    rule of ``nodes`` points on each radial segment between the stops'
    distances, where the integrand peaks.
    """
    x, y = traj.stops[:, 0], traj.stops[:, 1]
    j, k = np.triu_indices(traj.k)  # each pair of stops once
    # sin(phi/2)**2 for the angle phi between each pair, from their cross and dot products
    spread = np.sin(0.5 * np.arctan2(x[j] * y[k] - y[j] * x[k], x[j] * x[k] + y[j] * y[k])) ** 2
    rho = np.hypot(x, y)
    edges = np.unique(np.concatenate(([0.0, r_cov], rho[(rho > 0.0) & (rho < r_cov)])))
    rho = rho[:, None]
    z, w = _gauss_legendre(nodes)
    h2 = traj.altitude_h**2
    mean = np.zeros(traj.k)
    pairs = np.zeros(j.size)
    # (pairs, nodes) temporaries stay cache-sized however many stops there are
    blocks = [slice(s, s + _PAIR_BLOCK) for s in range(0, j.size, _PAIR_BLOCK)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        r = lo + half * (1.0 + z)
        # Gauss-Legendre weights times the area density 2 r / r_cov**2
        wr = half * w * (2.0 * r / r_cov**2)
        # (stop, node) arrays: each operation runs over contiguous radial nodes
        below = h2 + (r - rho) ** 2  # a - b
        q = np.sqrt(below * (h2 + (r + rho) ** 2))
        a_plus_q = h2 + r**2 + rho**2 + q
        t = 2.0 * r * rho / a_plus_q
        one_minus_t = (below + q) / a_plus_q
        mean += (1.0 / q) @ wr
        for b in blocks:
            jb, kb = j[b], k[b]
            u = t[jb] * t[kb]
            one_minus_u = one_minus_t[jb] + t[jb] * one_minus_t[kb]
            denom = q[jb] * q[kb] * (one_minus_u**2 + 4.0 * u * spread[b, None])
            pairs[b] += (one_minus_u * (1.0 + u) / denom) @ wr
    second = np.empty((traj.k, traj.k))
    second[j, k] = second[k, j] = pairs
    return mean, second


def gain_statistics(
    traj: Trajectory,
    r_cov: float,
    params: ChannelParams,
    zeta: float,
    radial_nodes: int = 256,
) -> GainStatistics:
    """Per-stop gain statistics for a sensor uniform on the coverage disk.

    Exact in angle and a Gauss-Legendre rule in radius, split at every
    stop's distance from the centre (see :func:`_inverse_range_moments`).
    The rule is re-evaluated with doubled radial nodes and the refinement
    must agree to 1e-6 relative, otherwise
    :class:`QuadratureConvergenceError` is raised.  The refined values
    are returned.

    Args:
        traj: stop plan (stops may lie anywhere, altitude sets the floor).
        r_cov: coverage-disk radius, positive and finite.
        params: channel constants.
        zeta: common reflection coefficient in ``(0, 1]``.
        radial_nodes: base number of radial nodes per segment (``>= 16``).
    """
    if not 0.0 < r_cov < np.inf:
        raise ValueError(f"r_cov must be positive and finite, got {r_cov}")
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must lie in (0, 1], got {zeta}")
    if radial_nodes < 16:
        raise ValueError(f"quadrature needs at least 16 radial nodes, got {radial_nodes}")
    mean_a, second_a = _inverse_range_moments(traj, r_cov, radial_nodes)
    mean_b, second_b = _inverse_range_moments(traj, r_cov, 2 * radial_nodes)
    scale = max(float(np.max(np.abs(mean_b))), np.finfo(float).tiny)
    scale2 = max(float(np.max(np.abs(second_b))), np.finfo(float).tiny)
    err = max(
        float(np.max(np.abs(mean_b - mean_a))) / scale,
        float(np.max(np.abs(second_b - second_a))) / scale2,
    )
    if not err <= 1e-6:  # a NaN error has not converged either
        raise QuadratureConvergenceError(
            f"disk quadrature changed by {err:.3e} relative under refinement"
        )
    amplitude = gain_amplitude(zeta, params)
    mean = amplitude * mean_b
    second = amplitude**2 * second_b
    # rounding can push a near-zero variance slightly negative
    var = np.maximum(np.diag(second) - mean**2, 0.0)
    return GainStatistics(mean_g=mean, var_g=var, second_moment=second)


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
    if not (arr >= 0.0).all():
        raise ValueError("noise variances must be non-negative")
    return arr


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
    moments = DataMoments.of(spec, data_mean, data_var)
    mu, var = moments.mu, moments.var

    sum_var = float(var.sum())
    sum_var_mu2 = float((var + mu**2).sum())
    cross = moments.cross
    penalty = float(np.sum(spec.weights * gaussian_power_variance(mu, var, spec.exponents)))
    constant_c = penalty + moments.target_mean**2

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
    moments = DataMoments.of(spec, data_mean, data_var)
    return float(moments.mse(np.einsum("k,kn->n", beta_arr, gains.g), float(beta_arr**2 @ noise)))


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
    Each sensor's total gain has mean ``beta . Eg`` and variance
    ``beta' M beta - (beta . Eg)**2``, independently across sensors, so
    the error is the one at the mean gains plus that variance times
    ``sum_i E[d_i**2]``.
    """
    beta_arr = _as_beta_array(beta, stats.k)
    noise = _noise_array(noise_vars, stats.k)
    moments = DataMoments.of(spec, data_mean, data_var)
    t_mean = float(beta_arr @ stats.mean_g)
    t_var = float(beta_arr @ stats.second_moment @ beta_arr) - t_mean**2
    spread = t_var * float(np.sum(moments.var + moments.mu**2))
    return float(moments.mse(np.full(spec.n, t_mean), float(beta_arr**2 @ noise))) + spread


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
    moments = DataMoments.of(spec, data_mean, data_var)
    return alpha, moments.cross, float(moments.var.sum())


def _pilot_rule(alpha, cross, power, noise, n: int):
    """``cross / (K * (alpha / n) * power + n * noise / alpha)`` for pilot sums ``(..., K)``.

    The per-stop rule; the pooled rule is this rule on one pooled stop.
    """
    return cross / (alpha.shape[-1] * (alpha / n) * power + n * noise / alpha)


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
    noise = _noise_array(noise_vars, alpha.shape[-1])
    return BetaVector(_pilot_rule(alpha, cross, sum_var, noise, n_sensors))


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
    where a scalar noise variance counts ``k`` times: the per-stop rule on
    one pooled stop, so it collapses to that rule when all pilot samples
    are equal.  Returns a float for one round's pilot sums ``(k,)`` and an
    array ``(...)`` for a batch ``(..., k)``.

    Raises:
        SamplingRejectedError: if any pilot measurement is non-positive.
        ValueError: if a coefficient is not finite (``0 / 0`` when the
            data variance and the receiver noise both vanish).
    """
    alpha, cross, sum_var = _pilot_inputs(alphas, spec, data_mean, data_var, n_sensors)
    k = alpha.shape[-1]
    noise = _noise_array(noise_vars, k)
    noise_total = k * float(noise_vars) if np.ndim(noise_vars) == 0 else float(noise.sum())
    pooled = alpha.sum(axis=-1, keepdims=True)
    beta = _pilot_rule(pooled, cross, sum_var, noise_total, n_sensors)[..., 0]
    if not np.isfinite(beta).all():
        raise ValueError("beta must be finite")
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

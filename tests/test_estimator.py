"""Tests for the coefficient design rules and analytic error models.

Oracle strategy, written before the assertions they feed:

* Disk gain moments are checked against scipy's adaptive 2-D quadrature
  in polar coordinates (an implementation independent of the library's
  angular closed form and radial rule), plus logarithmic and rational
  closed forms for a stop at the disk center.
* ``mse_model`` is checked against a 50-digit arbitrary-precision
  transcription of the same expression built with mpmath; the resulting
  value is frozen as a constant so later edits to either side must
  reproduce it.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from aircomp import estimator
from aircomp.channel import ChannelParams, GainMatrix, effective_gain_matrix
from aircomp.estimator import (
    DataMoments,
    GainStatistics,
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
from aircomp.geometry import Trajectory, deploy_sensors, plan_diameter_trajectory
from aircomp.nomographic import TargetSpec, gaussian_raw_moment
from aircomp.protocol import BetaVector, SumGainSamples


def disk_gain_moment_oracle(stops_xy, altitude, r_cov, amplitude):
    """Adaptive quadrature for ``E[prod_s g_s]`` over the uniform disk.

    ``g_s = amplitude / (altitude**2 + |p - s|**2)`` for each stop ``s``
    in ``stops_xy`` (repeat a stop for a power), with ``p`` uniform on
    the disk of radius ``r_cov``.  Integrates in polar coordinates with
    scipy's adaptive rule, which shares nothing with the library's
    angular closed form or its Gauss-Legendre radial rule.
    """

    def integrand(r, theta):
        px, py = r * math.cos(theta), r * math.sin(theta)
        value = r / (math.pi * r_cov**2)
        for sx, sy in stops_xy:
            value *= amplitude / (altitude**2 + (px - sx) ** 2 + (py - sy) ** 2)
        return value

    value, _ = integrate.dblquad(
        integrand, 0.0, 2.0 * math.pi, 0.0, r_cov, epsabs=1e-30, epsrel=1e-12
    )
    return value


# A two-stop, three-sensor configuration small enough to transcribe by
# hand.  All inputs are exact decimals so the model value is an exact
# decimal too; the constants below are that exact value as computed by
# the mpmath transcription in model_oracle_mpmath().
SMALL_MEAN_G = (0.8, 1.1)
SMALL_VAR_G = (0.04, 0.09)
SMALL_NOISE = (0.01, 0.02)
SMALL_BETA = (0.4, 0.6)
SMALL_WEIGHTS = (1.0, 2.0, 0.5)
SMALL_EXPONENTS = (1, 2, 3)
SMALL_MU = 0.7
SMALL_VAR = 1.3

FROZEN_SMALL_MSE = 43.27377925
FROZEN_SMALL_A = 14.8071
FROZEN_SMALL_B = 39.225785
FROZEN_SMALL_C = 79.77555725
FROZEN_SMALL_BETA_STAR = 2.6491200167487219
FROZEN_SMALL_MSE_AT_STAR = -24.138254966181764


def model_oracle_mpmath():
    """Recompute the small-configuration model at 50 decimal digits.

    Returns ``(mse_at_beta, a, b, c)`` as floats.  Raw Gaussian moments
    come from the recurrence ``m_v = mu * m_{v-1} + (v - 1) * var * m_{v-2}``.
    """
    mp.mp.dps = 50
    mu = mp.mpf(str(SMALL_MU))
    var = mp.mpf(str(SMALL_VAR))

    def raw_moment(order):
        m = [mp.mpf(1), mu]
        for j in range(2, order + 1):
            m.append(mu * m[j - 1] + (j - 1) * var * m[j - 2])
        return m[order]

    w = [mp.mpf(str(x)) for x in SMALL_WEIGHTS]
    v = list(SMALL_EXPONENTS)
    mean_g = [mp.mpf(str(x)) for x in SMALL_MEAN_G]
    var_g = [mp.mpf(str(x)) for x in SMALL_VAR_G]
    noise = [mp.mpf(str(x)) for x in SMALL_NOISE]
    beta = [mp.mpf(str(x)) for x in SMALL_BETA]

    target_mean = sum(wi * raw_moment(vi) for wi, vi in zip(w, v))
    dot = sum(b * g for b, g in zip(beta, mean_g))
    b2v = sum(b * b * s for b, s in zip(beta, var_g))
    b2n = sum(b * b * s for b, s in zip(beta, noise))

    total = mp.mpf(0)
    for wi, vi in zip(w, v):
        cross_i = wi * raw_moment(vi + 1) + mu * (target_mean - wi * raw_moment(vi))
        power_var_i = raw_moment(2 * vi) - raw_moment(vi) ** 2
        total += var * dot**2 + (var + mu**2) * b2v - 2 * cross_i * dot + wi * power_var_i
    total += target_mean**2 + b2n

    s1 = sum(mean_g)
    s2 = sum(var_g)
    a = len(w) * (var * s1**2 + (var + mu**2) * s2) + sum(noise)
    b = s1 * sum(
        wi * raw_moment(vi + 1) + mu * (target_mean - wi * raw_moment(vi))
        for wi, vi in zip(w, v)
    )
    c = (
        sum(wi * (raw_moment(2 * vi) - raw_moment(vi) ** 2) for wi, vi in zip(w, v))
        + target_mean**2
    )
    return float(total), float(a), float(b), float(c)


def small_config():
    spec = TargetSpec(
        weights=np.array(SMALL_WEIGHTS), exponents=np.array(SMALL_EXPONENTS, dtype=int)
    )
    stats = GainStatistics(
        mean_g=np.array(SMALL_MEAN_G),
        var_g=np.array(SMALL_VAR_G),
        second_moment=np.outer(SMALL_MEAN_G, SMALL_MEAN_G) + np.diag(SMALL_VAR_G),
    )
    return spec, stats


class TestGainStatistics:
    """Gain moments exact in angle, with a Gauss-Legendre rule in radius."""

    def test_center_stop_matches_log_closed_form(self):
        # For a stop above the disk center the mean gain integrates in
        # closed form to amplitude * log(1 + R**2 / H**2) / R**2.
        params = ChannelParams()
        h, r_cov, zeta = 50.0, 10.0, 0.99
        traj = Trajectory(altitude_h=h, stops=np.array([[0.0, 0.0]]))
        stats = gain_statistics(traj, r_cov, params, zeta)
        amplitude = math.sqrt(zeta) * params.g0**2
        closed = amplitude * math.log(1.0 + r_cov**2 / h**2) / r_cov**2
        assert stats.mean_g[0] == pytest.approx(closed, rel=1e-12)
        assert stats.mean_g[0] == pytest.approx(2.95119883767947e-07, rel=1e-12)

    def test_off_center_stop_matches_adaptive_quadrature(self):
        params = ChannelParams()
        h, r_cov, zeta = 50.0, 10.0, 0.99
        traj = Trajectory(altitude_h=h, stops=np.array([[5.0, 3.0]]))
        stats = gain_statistics(traj, r_cov, params, zeta)
        amplitude = math.sqrt(zeta) * params.g0**2
        mean_oracle = disk_gain_moment_oracle([(5.0, 3.0)], h, r_cov, amplitude)
        second_oracle = disk_gain_moment_oracle([(5.0, 3.0)] * 2, h, r_cov, amplitude)
        assert stats.mean_g[0] == pytest.approx(mean_oracle, rel=1e-10)
        assert stats.second_moment[0, 0] == pytest.approx(second_oracle, rel=1e-10)

    @pytest.mark.parametrize("h", [50.0, 5.0])
    def test_cross_moment_of_stops_off_one_line_matches_adaptive_quadrature(self, h):
        # two stops 75 degrees apart as seen from the centre, neither on
        # the other's line through it
        params = ChannelParams()
        r_cov, zeta = 10.0, 0.99
        stops = [(5.0, 3.0), (-2.0, 7.0)]
        stats = gain_statistics(Trajectory(altitude_h=h, stops=np.array(stops)), r_cov, params, zeta)
        amplitude = math.sqrt(zeta) * params.g0**2
        cross_oracle = disk_gain_moment_oracle(stops, h, r_cov, amplitude)
        assert stats.second_moment[0, 1] == pytest.approx(cross_oracle, rel=1e-10)
        assert stats.second_moment[1, 0] == pytest.approx(cross_oracle, rel=1e-10)
        for j, stop in enumerate(stops):
            mean_oracle = disk_gain_moment_oracle([stop], h, r_cov, amplitude)
            assert stats.mean_g[j] == pytest.approx(mean_oracle, rel=1e-10)

    def test_low_altitude_diameter_plan_center_stop_matches_closed_forms(self):
        # At altitude 0.5 the gain under each stop is a spike 0.5 m wide.
        # The centre stop's moments integrate in closed form:
        # E[g] = A log(1 + R**2 / H**2) / R**2 and E[g**2] = A**2 / (H**2 (H**2 + R**2)).
        params = ChannelParams()
        h, r_cov, zeta = 0.5, 10.0, 0.99
        stats = gain_statistics(plan_diameter_trajectory(5, r_cov, h), r_cov, params, zeta)
        amplitude = math.sqrt(zeta) * params.g0**2
        assert stats.mean_g[2] == pytest.approx(
            amplitude * math.log(1.0 + r_cov**2 / h**2) / r_cov**2, rel=1e-12
        )
        assert stats.second_moment[2, 2] == pytest.approx(
            amplitude**2 / (h**2 * (h**2 + r_cov**2)), rel=1e-12
        )

    def test_variance_consistent_with_moments(self):
        params = ChannelParams()
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        stats = gain_statistics(traj, 10.0, params, 0.99)
        assert_allclose(
            stats.var_g, np.diag(stats.second_moment) - stats.mean_g**2, rtol=1e-9
        )
        assert np.all(stats.var_g >= 0.0)

    def test_cross_stop_second_moment_structure(self):
        params = ChannelParams()
        traj = plan_diameter_trajectory(4, 10.0, 50.0)
        stats = gain_statistics(traj, 10.0, params, 0.99)
        assert_allclose(stats.second_moment, stats.second_moment.T, rtol=1e-12)
        # The matrix second_moment - outer(mean, mean) is a genuine
        # covariance matrix, hence positive semidefinite.
        covariance = stats.second_moment - np.outer(stats.mean_g, stats.mean_g)
        eigenvalues = np.linalg.eigvalsh(covariance)
        assert np.all(eigenvalues >= -1e-12 * np.max(np.abs(covariance)))
        # Nearby stops see positively correlated gains; stops across the
        # diameter see anti-correlated gains (a sensor near one end is
        # far from the other).
        assert covariance[0, 1] > 0.0
        assert covariance[0, 3] < 0.0

    def test_monte_carlo_position_sampling_agrees(self):
        params = ChannelParams()
        h, r_cov, zeta = 50.0, 10.0, 0.99
        traj = plan_diameter_trajectory(3, r_cov, h)
        stats = gain_statistics(traj, r_cov, params, zeta)
        rng = np.random.default_rng(42)
        samples = 400_000
        radius = r_cov * np.sqrt(rng.random(samples))
        angle = 2.0 * np.pi * rng.random(samples)
        px, py = radius * np.cos(angle), radius * np.sin(angle)
        d2 = (
            h**2
            + (px[:, None] - traj.stops[None, :, 0]) ** 2
            + (py[:, None] - traj.stops[None, :, 1]) ** 2
        )
        g = math.sqrt(zeta) * params.g0**2 / d2
        assert_allclose(g.mean(axis=0), stats.mean_g, rtol=2e-3)
        assert_allclose((g.T @ g) / samples, stats.second_moment, rtol=5e-3)

    def test_pair_moments_do_not_depend_on_the_other_stops(self):
        # E[g_j g_k] involves stops j and k only, so in a plan of 14 stops
        # (105 pairs) scattered off any line, every entry must equal the
        # two-stop plan's, which the adaptive-quadrature test above checks.
        params = ChannelParams()
        h, r_cov, zeta = 2.0, 10.0, 0.99
        stops = np.random.default_rng(3).uniform(-12.0, 12.0, size=(14, 2))
        stats = gain_statistics(Trajectory(altitude_h=h, stops=stops), r_cov, params, zeta)
        for j in range(len(stops)):
            for k in range(j + 1, len(stops)):
                pair = gain_statistics(Trajectory(altitude_h=h, stops=stops[[j, k]]), r_cov, params, zeta)
                assert stats.second_moment[j, k] == pytest.approx(pair.second_moment[0, 1], rel=1e-11)
                assert stats.second_moment[k, j] == stats.second_moment[j, k]
                assert stats.mean_g[[j, k]] == pytest.approx(pair.mean_g, rel=1e-11)

    def test_low_altitude_peak_fails_refinement(self):
        # At altitude 0.5 the gain is a sharp spike under the stop; 16
        # radial nodes per segment cannot resolve it and refinement moves
        # the answer, which must be reported rather than returned.
        params = ChannelParams()
        traj = Trajectory(altitude_h=0.5, stops=np.array([[8.0, 0.0]]))
        with pytest.raises(QuadratureConvergenceError):
            gain_statistics(traj, 10.0, params, 0.99, radial_nodes=16)

    def test_parameter_validation(self):
        params = ChannelParams()
        traj = plan_diameter_trajectory(2, 10.0, 50.0)
        with pytest.raises(ValueError):
            gain_statistics(traj, 0.0, params, 0.99)
        with pytest.raises(ValueError):
            gain_statistics(traj, 10.0, params, 0.0)
        with pytest.raises(ValueError):
            gain_statistics(traj, 10.0, params, 1.5)
        with pytest.raises(ValueError):
            gain_statistics(traj, 10.0, params, 0.99, radial_nodes=8)

    def test_an_infinite_radius_is_rejected_by_name(self):
        traj = Trajectory(altitude_h=50.0, stops=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="r_cov must be positive and finite, got inf"):
            gain_statistics(traj, np.inf, ChannelParams(), 0.99)

    def test_a_nan_refinement_error_has_not_converged(self, monkeypatch):
        def nan_moments(traj, r_cov, nodes):
            return np.full(traj.k, np.nan), np.full((traj.k, traj.k), np.nan)

        monkeypatch.setattr(estimator, "_inverse_range_moments", nan_moments)
        with pytest.raises(QuadratureConvergenceError, match="changed by nan"):
            gain_statistics(plan_diameter_trajectory(2, 10.0, 50.0), 10.0, ChannelParams(), 0.99)

    def test_statistics_shape_and_sign_validation(self):
        with pytest.raises(ValueError):
            GainStatistics(
                mean_g=np.array([1.0, 2.0]),
                var_g=np.array([0.1]),
                second_moment=np.eye(2),
            )
        with pytest.raises(ValueError):
            GainStatistics(
                mean_g=np.array([0.0]), var_g=np.array([0.1]), second_moment=np.eye(1)
            )
        with pytest.raises(ValueError):
            GainStatistics(
                mean_g=np.array([1.0]), var_g=np.array([-0.1]), second_moment=np.eye(1)
            )


class TestMseModel:
    """The simplified analytic model against its transcription oracle."""

    def test_matches_high_precision_transcription(self):
        oracle_mse, oracle_a, oracle_b, oracle_c = model_oracle_mpmath()
        assert oracle_mse == pytest.approx(FROZEN_SMALL_MSE, rel=1e-14)
        assert oracle_a == pytest.approx(FROZEN_SMALL_A, rel=1e-14)
        assert oracle_b == pytest.approx(FROZEN_SMALL_B, rel=1e-14)
        assert oracle_c == pytest.approx(FROZEN_SMALL_C, rel=1e-14)

        spec, stats = small_config()
        out = mse_model(
            spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE), np.array(SMALL_BETA)
        )
        assert out.mse == pytest.approx(FROZEN_SMALL_MSE, rel=1e-12)
        assert out.quadratic_a == pytest.approx(FROZEN_SMALL_A, rel=1e-12)
        assert out.linear_b == pytest.approx(FROZEN_SMALL_B, rel=1e-12)
        assert out.constant_c == pytest.approx(FROZEN_SMALL_C, rel=1e-12)

    def test_scalar_beta_equals_quadratic_evaluation(self):
        spec, stats = small_config()
        for beta in (0.1, 0.7, 2.0):
            out = mse_model(spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE), beta)
            assert out.mse == pytest.approx(out.at_equal(beta), rel=1e-12)

    def test_zero_beta_returns_constant_term(self):
        spec, stats = small_config()
        out = mse_model(spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE), 0.0)
        assert out.mse == pytest.approx(out.constant_c, rel=1e-14)

    def test_unweighted_sum_constant_equals_exact_second_moment(self):
        # For unit weights and first powers with zero data mean, the
        # model's constant term coincides with the exact target second
        # moment, so the model and the exact expansion agree at beta = 0.
        spec = TargetSpec(weights=np.ones(3), exponents=np.ones(3, dtype=int))
        stats = GainStatistics(
            mean_g=np.array([2e-7]), var_g=np.array([1e-15]), second_moment=np.array([[4.1e-14]])
        )
        out = mse_model(spec, stats, 0.0, 1.0, 0.0, 0.0)
        exact = mse_exact_marginal(spec, stats, 0.0, 1.0, 0.0, np.zeros(1))
        assert out.mse == pytest.approx(3.0, rel=1e-14)
        assert exact == pytest.approx(3.0, rel=1e-14)

    def test_weighted_constant_deviates_from_exact_second_moment(self):
        # The model charges each sensor's power-variance with weight w,
        # the exact expansion with w**2: for w = 2 they differ by design
        # (2 versus 4 here), which is why both models are kept.
        spec = TargetSpec(weights=np.array([2.0]), exponents=np.array([1]))
        stats = GainStatistics(
            mean_g=np.array([2e-7]), var_g=np.array([0.0]), second_moment=np.array([[4e-14]])
        )
        out = mse_model(spec, stats, 0.0, 1.0, 0.0, 0.0)
        exact = mse_exact_marginal(spec, stats, 0.0, 1.0, 0.0, np.zeros(1))
        assert out.mse == pytest.approx(2.0, rel=1e-14)
        assert exact == pytest.approx(4.0, rel=1e-14)

    def test_accepts_beta_vector_wrapper(self):
        spec, stats = small_config()
        raw = mse_model(
            spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE), np.array(SMALL_BETA)
        )
        wrapped = mse_model(
            spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE),
            BetaVector(np.array(SMALL_BETA)),
        )
        assert wrapped.mse == pytest.approx(raw.mse, rel=1e-15)

    def test_wrong_beta_length_raises(self):
        spec, stats = small_config()
        with pytest.raises(ValueError):
            mse_model(spec, stats, SMALL_MU, SMALL_VAR, 0.0, np.array([1.0, 2.0, 3.0]))


class TestBetaEqualOptimal:
    """Closed-form equal-coefficient minimizer of the simplified model."""

    def test_frozen_small_config_optimum(self):
        spec, stats = small_config()
        star = beta_equal_optimal(spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE))
        assert star == pytest.approx(FROZEN_SMALL_BETA_STAR, rel=1e-12)
        out = mse_model(spec, stats, SMALL_MU, SMALL_VAR, np.array(SMALL_NOISE), 0.0)
        assert out.at_equal(star) == pytest.approx(FROZEN_SMALL_MSE_AT_STAR, rel=1e-12)

    def test_single_link_reduction(self):
        # One sensor, one stop, deterministic gain, no noise: the
        # optimum reduces to (mu**2 + var) / (var * E[g]).
        spec = TargetSpec(weights=np.array([1.0]), exponents=np.array([1]))
        stats = GainStatistics(
            mean_g=np.array([2e-7]), var_g=np.array([0.0]), second_moment=np.array([[4e-14]])
        )
        star = beta_equal_optimal(spec, stats, 0.7, 1.3, 0.0)
        assert star == pytest.approx((0.7**2 + 1.3) / (1.3 * 2e-7), rel=1e-12)

    def test_stationarity_on_random_configurations(self):
        # The analytic gradient 2 A beta - 2 B vanishes at the returned
        # point, and so does a central finite difference of the model.
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            spec = TargetSpec(
                weights=rng.uniform(0.2, 3.0, n),
                exponents=rng.integers(1, 4, n),
            )
            mean_g = rng.uniform(0.5, 2.0, k)
            var_g = rng.uniform(0.0, 0.5, k)
            stats = GainStatistics(
                mean_g=mean_g,
                var_g=var_g,
                second_moment=np.outer(mean_g, mean_g) + np.diag(var_g),
            )
            mu = float(rng.normal(0.0, 1.0))
            var = float(rng.uniform(0.2, 2.0))
            noise = rng.uniform(0.0, 0.1, k)
            star = beta_equal_optimal(spec, stats, mu, var, noise)
            out = mse_model(spec, stats, mu, var, noise, 0.0)
            gradient = 2.0 * out.quadratic_a * star - 2.0 * out.linear_b
            assert abs(gradient) <= 1e-10 * max(abs(out.linear_b), 1.0)
            step = max(abs(star), 1.0) * 1e-6
            fd = (out.at_equal(star + step) - out.at_equal(star - step)) / (2.0 * step)
            assert abs(fd) <= 1e-6 * max(abs(out.linear_b), 1.0)

    def test_degenerate_quadratic_raises(self):
        spec = TargetSpec(weights=np.array([1.0]), exponents=np.array([1]))
        stats = GainStatistics(
            mean_g=np.array([2e-7]), var_g=np.array([0.0]), second_moment=np.array([[4e-14]])
        )
        with pytest.raises(ValueError):
            beta_equal_optimal(spec, stats, 0.7, 0.0, 0.0)


class TestPilotCoefficientRules:
    """Coefficient rules driven by summed pilot measurements."""

    def test_zero_noise_equal_pilots_hand_value(self):
        # cross = n * var = 20; denominator = k * (alpha / n) * 20.
        n, k, alpha_hat = 20, 5, 6e-6
        spec = TargetSpec(weights=np.ones(n), exponents=np.ones(n, dtype=int))
        alpha = np.full(k, alpha_hat)
        per_stop = beta_heuristic(alpha, spec, 0.0, 1.0, 0.0, n)
        expected = 20.0 / (k * (alpha_hat / n) * 20.0)
        assert_allclose(per_stop.beta, expected, rtol=1e-12)

    def test_pooled_rule_collapses_to_per_stop_rule(self):
        # With identical pilot sums the two rules are algebraically the
        # same expression, with or without noise.
        n, k = 20, 5
        spec = TargetSpec(weights=np.ones(n), exponents=np.ones(n, dtype=int))
        alpha = np.full(k, 6e-6)
        for noise in (0.0, 1e-10):
            per_stop = beta_heuristic(alpha, spec, 0.0, 1.0, noise, n)
            pooled = beta_heuristic_equal(alpha, spec, 0.0, 1.0, noise, n)
            assert_allclose(per_stop.beta, pooled, rtol=1e-12)

    def test_noise_term_shrinks_weak_and_saturated_stops(self):
        # The per-stop denominator k * (alpha / n) * var_sum + n * nv / alpha
        # is large both for tiny pilots (noise part) and for huge pilots
        # (gain part), so the coefficient peaks at a moderate pilot value.
        n, k = 20, 3
        spec = TargetSpec(weights=np.ones(n), exponents=np.ones(n, dtype=int))
        peak = math.sqrt(n**2 * 1e-10 / (k * 20.0 / n))
        alpha = np.array([peak / 100.0, peak, peak * 100.0])
        beta = beta_heuristic(alpha, spec, 0.0, 1.0, 1e-10, n).beta
        assert beta[0] < beta[1]
        assert beta[2] < beta[1]

    def test_non_positive_pilot_rejected(self):
        n = 20
        spec = TargetSpec(weights=np.ones(n), exponents=np.ones(n, dtype=int))
        bad = np.array([6e-6, 0.0, 6e-6])
        with pytest.raises(SamplingRejectedError):
            beta_heuristic(bad, spec, 0.0, 1.0, 1e-10, n)
        with pytest.raises(SamplingRejectedError):
            beta_heuristic_equal(np.array([-1e-7, 6e-6]), spec, 0.0, 1.0, 1e-10, n)

    def test_raw_array_and_wrapper_agree(self):
        n = 20
        spec = TargetSpec(weights=np.ones(n), exponents=np.ones(n, dtype=int))
        alpha = np.array([5e-6, 6e-6, 7e-6])
        from_array = beta_heuristic(alpha, spec, 0.0, 1.0, 1e-10, n)
        from_wrapper = beta_heuristic(SumGainSamples(alpha), spec, 0.0, 1.0, 1e-10, n)
        assert_allclose(from_array.beta, from_wrapper.beta, rtol=1e-15)

    def test_batch_rows_match_single_rounds(self):
        # The engine applies both rules to a batch of rounds at once; each
        # row must equal the rule applied to that round alone, bit for bit.
        n = 20
        spec = TargetSpec(weights=np.arange(1.0, n + 1.0), exponents=np.full(n, 3))
        alpha = np.random.default_rng(3).uniform(1e-6, 1e-5, size=(6, 4))
        per_stop = beta_heuristic(alpha, spec, 0.0, 1.0, 1e-12, n).beta
        pooled = beta_heuristic_equal(alpha, spec, 0.0, 1.0, 1e-12, n)
        assert per_stop.shape == (6, 4) and pooled.shape == (6,)
        for row in range(6):
            single = alpha[row]
            assert np.array_equal(per_stop[row], beta_heuristic(single, spec, 0.0, 1.0, 1e-12, n).beta)
            assert pooled[row] == beta_heuristic_equal(single, spec, 0.0, 1.0, 1e-12, n)

    def test_a_zero_over_zero_coefficient_is_rejected(self):
        # no data variance and no receiver noise: both rules divide 0 by 0
        n = 20
        spec = TargetSpec(weights=np.ones(n), exponents=np.ones(n, dtype=int))
        alpha = np.array([5e-6, 6e-6, 7e-6])
        with np.errstate(invalid="ignore"):
            for rule in (beta_heuristic, beta_heuristic_equal):
                with pytest.raises(ValueError, match="beta must be finite"):
                    rule(alpha, spec, 0.0, 0.0, 0.0, n)
                with pytest.raises(ValueError, match="beta must be finite"):
                    rule(np.tile(alpha, (4, 1)), spec, 0.0, 0.0, 0.0, n)

    def test_sensor_count_validation(self):
        spec = TargetSpec(weights=np.ones(2), exponents=np.ones(2, dtype=int))
        with pytest.raises(ValueError):
            beta_heuristic(np.array([6e-6]), spec, 0.0, 1.0, 0.0, 0)
        with pytest.raises(ValueError):
            beta_heuristic_equal(np.array([6e-6]), spec, 0.0, 1.0, 0.0, 0)


class TestBetaBenchmark:
    """Location-incognizant averaging coefficients."""

    def test_frozen_default_value(self):
        # 1 / (k * n * g_nom) with the straight-down effective gain
        # g_nom = sqrt(0.99) * 0.0275**2 / 50**2.
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        out = beta_benchmark(traj, ChannelParams(), 0.99, 20)
        assert out.beta.shape == (5,)
        assert np.all(out.beta == out.beta[0])
        assert out.beta[0] == pytest.approx(33224.39058708139, rel=1e-12)

    def test_ignores_stop_positions(self):
        params = ChannelParams()
        spread = plan_diameter_trajectory(4, 10.0, 50.0)
        stacked = Trajectory(altitude_h=50.0, stops=np.zeros((4, 2)))
        assert_allclose(
            beta_benchmark(spread, params, 0.99, 20).beta,
            beta_benchmark(stacked, params, 0.99, 20).beta,
            rtol=1e-15,
        )

    def test_validation(self):
        traj = plan_diameter_trajectory(2, 10.0, 50.0)
        with pytest.raises(ValueError):
            beta_benchmark(traj, ChannelParams(), 0.0, 20)
        with pytest.raises(ValueError):
            beta_benchmark(traj, ChannelParams(), 0.99, 0)


class TestExactMse:
    """Exact error expansions, conditional and marginal."""

    def test_single_link_closed_form(self):
        # One sensor, one stop: error = (beta g - 1) d + beta noise, so
        # the mean square is (beta g - 1)**2 (mu**2 + var) + beta**2 nv.
        spec = TargetSpec(weights=np.array([1.0]), exponents=np.array([1]))
        g = 3e-7
        gains = GainMatrix(g=np.array([[g]]))
        cases = [
            (1e6, 0.7, 1.3, 1e-10),
            (2e6, -0.5, 2.0, 3e-9),
            (0.0, 1.0, 0.5, 1e-12),
        ]
        for beta, mu, var, nv in cases:
            got = mse_exact_conditional(spec, gains, mu, var, nv, np.array([beta]))
            expected = (beta * g - 1.0) ** 2 * (mu**2 + var) + beta**2 * nv
            assert got == pytest.approx(expected, rel=1e-12)

    def test_perfect_inversion_is_exact(self):
        spec = TargetSpec(weights=np.array([1.0]), exponents=np.array([1]))
        g = 3e-7
        gains = GainMatrix(g=np.array([[g]]))
        for mu in (0.0, 0.7, -2.0):
            got = mse_exact_conditional(spec, gains, mu, 1.3, 0.0, np.array([1.0 / g]))
            assert got == pytest.approx(0.0, abs=1e-18)

    def test_marginal_reduces_to_conditional_without_position_spread(self):
        # Zero gain variance makes the marginal expansion identical to
        # the conditional one evaluated at the mean gains.
        n, k = 6, 3
        spec = TargetSpec(
            weights=np.linspace(0.5, 2.0, n), exponents=np.array([1, 2, 3, 1, 2, 3])
        )
        mean_g = np.array([2e-7, 3e-7, 2.5e-7])
        stats = GainStatistics(
            mean_g=mean_g, var_g=np.zeros(k), second_moment=np.outer(mean_g, mean_g)
        )
        gains = GainMatrix(g=np.tile(mean_g[:, None], (1, n)))
        beta = np.array([1e6, 2e6, 1.5e6])
        marginal = mse_exact_marginal(spec, stats, 0.3, 1.1, 1e-13, beta)
        conditional = mse_exact_conditional(spec, gains, 0.3, 1.1, 1e-13, beta)
        assert marginal == pytest.approx(conditional, rel=1e-12)

    def test_marginal_is_position_average_of_conditional(self):
        # Sensors are independent and the error expansion is linear in
        # each sensor's first two gain moments, so averaging the
        # conditional value over random deployments must converge to the
        # marginal value.
        params = ChannelParams()
        n, k, r_cov, h, zeta = 4, 2, 10.0, 50.0, 0.99
        traj = plan_diameter_trajectory(k, r_cov, h)
        spec = TargetSpec(
            weights=np.array([1.0, 2.0, 0.5, 1.5]), exponents=np.array([1, 2, 3, 1])
        )
        stats = gain_statistics(traj, r_cov, params, zeta)
        beta = np.array([2e6, 3e6])
        mu, var, nv = 0.3, 1.1, 1e-13
        marginal = mse_exact_marginal(spec, stats, mu, var, nv, beta)
        rng = np.random.default_rng(42)
        draws = np.empty(3000)
        for i in range(draws.size):
            field = deploy_sensors(
                n, r_cov, zeta, data_mean=mu, data_var=var, seed=int(rng.integers(2**32))
            )
            gains = effective_gain_matrix(field, traj, params)
            draws[i] = mse_exact_conditional(spec, gains, mu, var, nv, beta)
        std_err = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - marginal) <= 4.0 * std_err

    def test_data_moments_match_the_raw_moment_expansion(self):
        # With X_i = T_i d_i - w_i d_i**v_i and sensors independent, the mean
        # square is sum E[X_i**2] - sum E[X_i]**2 + (sum E[X_i])**2 + noise,
        # written out here from raw moments up to order 2v.
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            spec = TargetSpec(weights=rng.uniform(0.2, 3.0, n), exponents=rng.integers(1, 6, n))
            mu = rng.normal(0.0, 1.5, n) if rng.random() < 0.5 else float(rng.normal())
            var = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8) if rng.random() < 0.7 else 0.0
            t = rng.uniform(-1.0, 3.0, (4, n))  # a batch of four rounds
            noise = float(rng.uniform(0.0, 0.5))
            w, v = spec.weights, spec.exponents
            m1, m2, m_v, m_v1, m_2v = (gaussian_raw_moment(mu, var, order) for order in (1, 2, v, v + 1, 2 * v))
            ex2 = (t * t * m2 - 2.0 * t * w * m_v1 + w**2 * m_2v).sum(axis=1)
            ex = t * m1 - w * m_v
            expected = ex2 - (ex**2).sum(axis=1) + ex.sum(axis=1) ** 2 + noise
            moments = DataMoments.of(spec, mu, var)
            got = moments.mse(t.copy(), noise)
            assert_allclose(got, expected, rtol=1e-10, atol=1e-12 * np.max(np.abs(ex2)))
            assert np.all(got >= 0.0)
            target_mean = np.sum(w * m_v)
            second_moment = np.sum(w**2 * (m_2v - m_v**2)) + target_mean**2
            cross = np.sum(w * m_v1 + mu * (target_mean - w * m_v))
            assert moments.target_second_moment == pytest.approx(second_moment, rel=1e-12)
            assert moments.cross == pytest.approx(cross, rel=1e-12)
            # an equal coefficient b scales each round's stop sums: T = b * g_sum
            g_sum, b = t[0], float(rng.uniform(-1.0, 2.0))
            quad, lin = moments.equal_quadratic(g_sum, noise)
            at_b = moments.mse(b * g_sum, noise * b * b)
            assert quad * b * b - 2.0 * lin * b + moments.target_second_moment == pytest.approx(at_b, rel=1e-9, abs=1e-12)

    def test_sensor_count_mismatch_raises(self):
        spec = TargetSpec(weights=np.ones(2), exponents=np.ones(2, dtype=int))
        gains = GainMatrix(g=np.full((1, 3), 1e-7))
        with pytest.raises(ValueError):
            mse_exact_conditional(spec, gains, 0.0, 1.0, 0.0, np.array([1.0]))


class TestBetaGridOracle:
    """Log-grid search over a scalar coefficient."""

    def test_exact_center_always_evaluated(self):
        # A minimum thousands of times sharper than the grid spacing is
        # only found because the center itself is inserted into the grid.
        center = 2.5e5

        def objective(beta):
            return 1e-3 + 8600.0 * (beta / center - 1.0) ** 2

        best, value = beta_grid_oracle(objective, center, resolution=64, span=100.0)
        assert best == center
        assert value == pytest.approx(1e-3, rel=1e-12)

    def test_locates_smooth_minimum_within_one_step(self):
        true_min = 7.3e4
        center = 2.0e4

        def objective(beta):
            return (math.log(beta) - math.log(true_min)) ** 2

        best, value = beta_grid_oracle(objective, center, resolution=128, span=50.0)
        step = 2.0 * math.log(50.0) / 127
        assert abs(math.log(best) - math.log(true_min)) <= step
        assert value == pytest.approx(objective(best), rel=1e-15)

    def test_returns_value_of_best_point(self):
        calls = []

        def objective(beta):
            calls.append(beta)
            return (beta - 3.0) ** 2

        best, value = beta_grid_oracle(objective, 3.0, resolution=16, span=10.0)
        assert value == min((b - 3.0) ** 2 for b in calls)
        assert value == pytest.approx((best - 3.0) ** 2, rel=1e-15)

    def test_validation_errors(self):
        ok = lambda beta: beta**2
        with pytest.raises(ValueError):
            beta_grid_oracle(ok, 1.0, resolution=15)
        with pytest.raises(ValueError):
            beta_grid_oracle(ok, 0.0)
        with pytest.raises(ValueError):
            beta_grid_oracle(ok, -2.0)
        with pytest.raises(ValueError):
            beta_grid_oracle(ok, 1.0, span=1.0)
        with pytest.raises(ValueError):
            beta_grid_oracle(lambda beta: float("nan"), 1.0)

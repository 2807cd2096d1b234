"""Tests for the two-flyover sampling protocol and the linear combiner."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aircomp import (
    AggregateSamples,
    BetaVector,
    ChannelParams,
    SensorField,
    Trajectory,
    computation_phase,
    deploy_sensors,
    draw_sensor_data,
    effective_gain_matrix,
    estimate,
    plan_diameter_trajectory,
    sampling_phase,
)
from aircomp.geometry import distance_matrix, squared_ranges
from aircomp.protocol import pilot_sums, stop_aggregates


def small_setup(n=20, k=5, seed=1):
    field = deploy_sensors(n, 10.0, seed=seed)
    traj = plan_diameter_trajectory(k, 10.0, 50.0)
    gains = effective_gain_matrix(field, traj, ChannelParams())
    return field, traj, gains


class TestSamplingPhase:
    def test_noise_free_equals_column_sums(self):
        _, _, gains = small_setup()
        pilots = sampling_phase(gains, 0.0)
        assert_allclose(pilots.alpha, gains.g.sum(axis=1), rtol=1e-15)
        assert pilots.k == 5

    def test_two_sensors_at_center(self):
        field = SensorField(np.array([[0.0, 0.0], [0.0, 0.0]]), 1.0, 0.0, 1.0)
        traj = Trajectory(50.0, np.array([[0.0, 0.0]]))
        gains = effective_gain_matrix(field, traj, ChannelParams())
        pilots = sampling_phase(gains, 0.0)
        assert pilots.alpha[0] == pytest.approx(6.05e-7, rel=1e-3)

    def test_noise_statistics(self):
        _, _, gains = small_setup()
        noise_var = 1e-12
        base = gains.g.sum(axis=1)
        trials = 10_000
        acc = np.zeros(5)
        for s in range(trials):
            acc += sampling_phase(gains, noise_var, seed=s).alpha
        mean = acc / trials
        tol = 3.0 * math.sqrt(noise_var / trials)
        assert np.all(np.abs(mean - base) < tol)

    def test_deterministic_given_seed(self):
        _, _, gains = small_setup()
        a = sampling_phase(gains, 1e-10, seed=7)
        b = sampling_phase(gains, 1e-10, seed=7)
        assert_allclose(a.alpha, b.alpha)

    def test_rejects_negative_noise(self):
        _, _, gains = small_setup()
        with pytest.raises(ValueError):
            sampling_phase(gains, -1e-12)


class TestComputationPhase:
    def test_unit_data_reduces_to_sampling(self):
        # all-ones readings with zero noise reproduce the pilot flyover
        _, _, gains = small_setup()
        pilots = sampling_phase(gains, 0.0)
        aggregates = computation_phase(gains, np.ones(20), 0.0)
        assert_allclose(aggregates.dbar, pilots.alpha, rtol=1e-15)

    def test_zero_data_gives_zero(self):
        _, _, gains = small_setup()
        aggregates = computation_phase(gains, np.zeros(20), 0.0)
        assert_allclose(aggregates.dbar, np.zeros(5), atol=0.0)

    def test_single_sensor_scalar_case(self):
        field = SensorField(np.array([[0.0, 0.0]]), 1.0, 0.0, 1.0)
        traj = Trajectory(50.0, np.array([[0.0, 0.0]]))
        gains = effective_gain_matrix(field, traj, ChannelParams())
        aggregates = computation_phase(gains, np.array([3.0]), 0.0)
        assert aggregates.dbar[0] == pytest.approx(3.0 * gains.g[0, 0], rel=1e-15)

    def test_noise_independent_between_phases(self):
        _, _, gains = small_setup(n=5, k=1)
        trials = 10_000
        a = np.empty(trials)
        b = np.empty(trials)
        data = np.zeros(5)
        base = gains.g.sum(axis=1)[0]
        for s in range(trials):
            a[s] = sampling_phase(gains, 1e-10, seed=(s, 0)).alpha[0] - base
            b[s] = computation_phase(gains, data, 1e-10, seed=(s, 1)).dbar[0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_data_length_checked(self):
        _, _, gains = small_setup()
        with pytest.raises(ValueError):
            computation_phase(gains, np.ones(7), 0.0)


class TestStopMajorLayout:
    def test_one_round_api_is_the_array_steps(self):
        # GainMatrix.g and distance_matrix are stop-major (k, n), the array steps' own layout,
        # so a phase on a GainMatrix is its array step on .g with no transpose between them
        field, traj, gains = small_setup(n=7, k=3, seed=4)
        assert gains.g.shape == (3, 7)
        pilots = sampling_phase(gains, 1e-12, seed=5)
        assert np.array_equal(pilots.alpha, pilot_sums(gains.g, 1e-12, seed=5))
        data = draw_sensor_data(field, seed=6)
        aggregates = computation_phase(gains, data, 1e-12, seed=7)
        assert np.array_equal(aggregates.dbar, stop_aggregates(gains.g, data, 1e-12, seed=7))
        x, y = field.positions[:, 0], field.positions[:, 1]
        assert np.array_equal(distance_matrix(field, traj), np.sqrt(squared_ranges(x, y, traj)))


class TestBetaVector:
    def test_basic(self):
        beta = BetaVector(np.array([1.0, 2.0]))
        assert beta.k == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BetaVector(np.array([1.0, -0.5]))


class TestEstimate:
    def test_linear_combination(self):
        samples = AggregateSamples(np.array([1.0, 2.0, 3.0]))
        beta = BetaVector(np.array([1.0, 0.5, 2.0]))
        assert estimate(samples, beta) == pytest.approx(8.0)
        assert estimate(samples, 2.0) == pytest.approx(12.0)  # one equal coefficient

    def test_length_mismatch(self):
        samples = AggregateSamples(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            estimate(samples, BetaVector(np.array([1.0])))

    def test_perfect_inversion_single_sensor(self):
        # one sensor, one stop, zero noise: beta = 1/g recovers the reading
        field = SensorField(np.array([[0.0, 0.0]]), 1.0, 0.0, 1.0)
        traj = Trajectory(50.0, np.array([[0.0, 0.0]]))
        gains = effective_gain_matrix(field, traj, ChannelParams())
        aggregates = computation_phase(gains, np.array([1.7]), 0.0)
        beta = BetaVector(np.array([1.0 / gains.g[0, 0]]))
        assert estimate(aggregates, beta) == pytest.approx(1.7, rel=1e-12)


class TestDrawSensorData:
    def test_statistics(self):
        field = deploy_sensors(10, 10.0, data_mean=2.0, data_var=4.0, seed=1)
        rng_draws = np.array([draw_sensor_data(field, seed=s) for s in range(20_000)])
        assert rng_draws.shape == (20_000, 10)
        assert rng_draws.mean() == pytest.approx(2.0, abs=3 * 2.0 / math.sqrt(200_000))
        assert rng_draws.var() == pytest.approx(4.0, rel=0.05)

    def test_zero_variance_is_constant(self):
        field = deploy_sensors(5, 10.0, data_mean=1.5, data_var=0.0, seed=1)
        assert_allclose(draw_sensor_data(field, seed=0), np.full(5, 1.5))

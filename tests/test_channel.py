"""Tests for the free-space backscatter channel model."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aircomp import (
    ChannelParams,
    GainMatrix,
    SensorField,
    Trajectory,
    deploy_sensors,
    effective_gain_matrix,
    plan_diameter_trajectory,
    received_powers,
)


class TestChannelParams:
    def test_defaults(self):
        params = ChannelParams()
        assert params.g0 == 0.0275
        assert params.tx_power_w == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(g0=0.0)
        with pytest.raises(ValueError):
            ChannelParams(tx_power_w=-1.0)


class TestEffectiveGainMatrix:
    def test_effective_gain_scaling(self):
        # g = sqrt(zeta P) times the power gain g0**2 / d**2, entrywise
        field = SensorField(np.array([[0.0, 0.0]]), 0.99, 0.0, 1.0)
        traj = Trajectory(50.0, np.array([[0.0, 0.0]]))
        gains = effective_gain_matrix(field, traj, ChannelParams())
        power_gain = 0.0275**2 / 2500.0
        assert gains.g[0, 0] == pytest.approx(math.sqrt(0.99) * power_gain, rel=1e-12)
        assert gains.g[0, 0] == pytest.approx(3.00984e-7, rel=1e-4)

    def test_shape_and_positivity(self):
        field = deploy_sensors(20, 10.0, seed=1)
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        gains = effective_gain_matrix(field, traj, ChannelParams())
        assert gains.g.shape == (5, 20)
        assert np.all(gains.g > 0)
        assert gains.n == 20 and gains.k == 5

    def test_column_sums_bounded_by_geometry(self):
        # every stop's sum over sensors lies between n*g_min and n*g_max from the distance bound
        field = deploy_sensors(20, 10.0, seed=1)
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        gains = effective_gain_matrix(field, traj, ChannelParams())
        amp = math.sqrt(0.99)
        g_max = amp * 0.0275**2 / 50.0**2
        g_min = amp * 0.0275**2 / (50.0**2 + 20.0**2)
        sums = gains.g.sum(axis=1)
        assert sums.shape == (5,)
        assert np.all(sums <= 20 * g_max)
        assert np.all(sums >= 20 * g_min)

    def test_per_sensor_reflection(self):
        field = SensorField(
            np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.25]), 0.0, 1.0
        )
        traj = Trajectory(50.0, np.array([[0.0, 0.0]]))
        gains = effective_gain_matrix(field, traj, ChannelParams())
        # same position, reflection 0.25 halves the amplitude gain
        assert gains.g[0, 1] == pytest.approx(0.5 * gains.g[0, 0], rel=1e-12)

    def test_gain_matrix_read_only(self):
        field = deploy_sensors(3, 10.0, seed=1)
        traj = plan_diameter_trajectory(2, 10.0, 50.0)
        gains = effective_gain_matrix(field, traj, ChannelParams())
        with pytest.raises(ValueError):
            gains.g[0, 0] = 1.0

    def test_gain_matrix_stores_rows_contiguous(self):
        # a stop's sum over sensors rounds by memory order, so any input order is stored row-major
        field = deploy_sensors(2000, 10.0, seed=1)
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        g = effective_gain_matrix(field, traj, ChannelParams()).g
        fortran = GainMatrix(np.asfortranarray(g))
        assert fortran.g.flags["C_CONTIGUOUS"]
        assert np.array_equal(fortran.g.sum(axis=1), g.sum(axis=1))


class TestReceivedPowers:
    def test_forward_and_backscatter(self):
        # forward: g0^2 P / D^2; backscatter round trip: zeta P g0^4 / D^4
        fwd, back = received_powers(ChannelParams(), 0.99, 50.0)
        assert fwd == pytest.approx(0.0275**2 / 2500.0, rel=1e-12)
        assert back == pytest.approx(0.99 * 0.0275**4 / 2500.0**2, rel=1e-12)
        assert back == pytest.approx(9.150625e-14 * 0.99, rel=1e-6)

    def test_backscatter_is_square_of_effective_gain(self):
        fwd, back = received_powers(ChannelParams(), 0.5, 60.0)
        g = math.sqrt(0.5) * 0.0275**2 / 3600.0
        assert back == pytest.approx(g**2, rel=1e-12)

    def test_zero_reflection_allowed(self):
        fwd, back = received_powers(ChannelParams(), 0.0, 50.0)
        assert fwd > 0.0
        assert back == 0.0

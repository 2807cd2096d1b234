"""Tests for sensor deployment, trajectories, and distance geometry."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aircomp import (
    SensorField,
    Trajectory,
    deploy_sensors,
    distance_matrix,
    max_distance_bound,
    plan_diameter_trajectory,
)
from aircomp.geometry import scatter_on_disk
from aircomp.rng import make_rng


class TestDeploySensors:
    def test_shape_and_defaults(self):
        field = deploy_sensors(20, 10.0, seed=1)
        assert field.positions.shape == (20, 2)
        assert field.n == 20
        assert_allclose(field.reflection, np.full(20, 0.99))
        assert_allclose(field.data_mean, np.zeros(20))
        assert_allclose(field.data_var, np.ones(20))

    def test_all_inside_disk(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            r = rng.uniform(0.5, 50.0)
            field = deploy_sensors(100, r, seed=int(rng.integers(1 << 31)))
            radii = np.hypot(field.positions[:, 0], field.positions[:, 1])
            assert np.all(radii <= r + 1e-12)

    def test_uniform_area_density(self):
        # uniform on the disk: E[r^2] = R^2/2 and angles uniform
        field = deploy_sensors(200_000, 2.0, seed=3)
        r2 = field.positions[:, 0] ** 2 + field.positions[:, 1] ** 2
        assert r2.mean() == pytest.approx(2.0, rel=0.01)
        # quadrant counts should be balanced
        quad = (field.positions[:, 0] > 0) * 2 + (field.positions[:, 1] > 0)
        counts = np.bincount(quad, minlength=4)
        assert counts.min() > 0.24 * field.n

    def test_deterministic_given_seed(self):
        a = deploy_sensors(50, 10.0, seed=9)
        b = deploy_sensors(50, 10.0, seed=9)
        assert_allclose(a.positions, b.positions)
        c = deploy_sensors(50, 10.0, seed=10)
        assert not np.allclose(a.positions, c.positions)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            deploy_sensors(0, 10.0)
        with pytest.raises(ValueError):
            deploy_sensors(5, -1.0)
        with pytest.raises(ValueError):
            deploy_sensors(5, 10.0, zeta=0.0)
        with pytest.raises(ValueError):
            deploy_sensors(5, 10.0, zeta=1.5)
        with pytest.raises(ValueError):
            deploy_sensors(5, 10.0, data_var=-0.1)


class TestScatterOnDisk:
    def test_batch_equals_successive_deployments(self):
        batch = scatter_on_disk(make_rng(3), 10.0, (6, 20))
        rng = make_rng(3)
        rounds = [scatter_on_disk(rng, 10.0, 20) for _ in range(6)]
        for got, want in zip(batch, zip(*rounds)):
            assert got.shape == (6, 20)
            assert got.tobytes() == np.stack(want).tobytes()

    def test_seeded_layouts_keep_the_polar_draw(self):
        # n radius uniforms, then n angle uniforms: the layout every seeded
        # deploy_sensors and fixed_deployment call has always produced
        for seed in (0, 1, 9, np.random.SeedSequence((1, 20, 5))):
            rng = make_rng(seed)
            radius = 10.0 * np.sqrt(rng.random(20))
            angle = 2.0 * np.pi * rng.random(20)
            expected = np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
            assert deploy_sensors(20, 10.0, seed=seed).positions.tobytes() == expected.tobytes()


class TestSensorField:
    def test_broadcast_scalars(self):
        pos = np.array([[0.0, 0.0], [1.0, 2.0]])
        field = SensorField(pos, 0.5, 1.0, 2.0)
        assert_allclose(field.reflection, [0.5, 0.5])
        assert_allclose(field.data_mean, [1.0, 1.0])
        assert_allclose(field.data_var, [2.0, 2.0])


class TestTrajectory:
    def test_single_stop_at_center(self):
        traj = plan_diameter_trajectory(1, 10.0, 50.0)
        assert traj.k == 1
        assert_allclose(traj.stops, [[0.0, 0.0]])
        assert traj.altitude_h == 50.0

    def test_stops_span_diameter(self):
        traj = plan_diameter_trajectory(5, 10.0, 50.0)
        assert_allclose(traj.stops[:, 0], [-10.0, -5.0, 0.0, 5.0, 10.0])
        assert_allclose(traj.stops[:, 1], np.zeros(5))

    def test_two_stops_are_endpoints(self):
        traj = plan_diameter_trajectory(2, 8.0, 40.0)
        assert_allclose(traj.stops[:, 0], [-8.0, 8.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_diameter_trajectory(0, 10.0, 50.0)
        with pytest.raises(ValueError):
            plan_diameter_trajectory(3, 10.0, -1.0)
        with pytest.raises(ValueError):
            Trajectory(0.0, np.array([[0.0, 0.0]]))


class TestDistances:
    def test_single_distance(self):
        field = SensorField(np.array([[3.0, 4.0]]), 1.0, 0.0, 1.0)
        traj = Trajectory(12.0, np.array([[0.0, 0.0]]))
        # 3-4-5 triangle in the plane, altitude 12: sqrt(25 + 144) = 13
        assert distance_matrix(field, traj)[0, 0] == pytest.approx(13.0, rel=1e-12)

    def test_matrix_matches_elementwise(self):
        field = deploy_sensors(6, 10.0, seed=2)
        traj = plan_diameter_trajectory(4, 10.0, 50.0)
        mat = distance_matrix(field, traj)
        assert mat.shape == (4, 6)
        for i in range(6):
            for k in range(4):
                dx, dy = field.positions[i] - traj.stops[k]
                expected = math.sqrt(50.0**2 + dx * dx + dy * dy)
                assert mat[k, i] == pytest.approx(expected, rel=1e-12)

    def test_off_axis_stops(self):
        # Stops off the x axis take the per-stop (y - sy)**2 term; the
        # ranges are summed in the documented order, so they match bit for bit.
        field = deploy_sensors(6, 10.0, seed=2)
        traj = Trajectory(50.0, np.array([[5.0, 3.0], [-2.0, -4.0]]))
        mat = distance_matrix(field, traj)
        assert mat.shape == (2, 6)
        for i in range(6):
            for k in range(2):
                dx, dy = field.positions[i] - traj.stops[k]
                assert mat[k, i] == math.sqrt(dx * dx + 50.0**2 + dy * dy)

    def test_bound_formula(self):
        assert max_distance_bound(10.0, 50.0) == pytest.approx(
            50.0 * math.sqrt(1.0 + (20.0 / 50.0) ** 2), rel=1e-12
        )

    def test_bound_holds_over_random_geometry(self):
        # distances from any stop on the diameter to any sensor in the disk
        # stay within [h, h * sqrt(1 + (2 r/h)^2)]
        rng = np.random.default_rng(42)
        for _ in range(300):
            r_cov = rng.uniform(1.0, 30.0)
            h = rng.uniform(5.0, 120.0)
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 12))
            field = deploy_sensors(n, r_cov, seed=int(rng.integers(1 << 31)))
            traj = plan_diameter_trajectory(k, r_cov, h)
            d = distance_matrix(field, traj)
            assert np.all(d >= h - 1e-9)
            assert np.all(d <= max_distance_bound(r_cov, h) + 1e-9)

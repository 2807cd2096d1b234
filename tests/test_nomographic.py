"""Tests for target functions and the Gaussian moment engine.

The raw-moment recursion is checked against an independent
numerical-integration oracle (scipy.integrate.quad) over a grid of
means, variances, and orders, plus frozen spot values.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from aircomp import (
    TargetSpec,
    gaussian_power_variance,
    gaussian_raw_moment,
    target_mean,
    target_second_moment,
    target_sum_cross_moment,
    target_value,
)
from aircomp.nomographic import DataMoments, target_values


def moment_oracle(mu, var, v):
    """E[X^v] for X ~ N(mu, var) by direct quadrature."""
    sd = math.sqrt(var)
    f = lambda x: x**v * math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
    val, _ = integrate.quad(f, mu - 12 * sd, mu + 12 * sd, limit=200)
    return val


class TestGaussianRawMoment:
    # frozen oracle outputs (scipy.integrate.quad, abs err <= 5e-8)
    FROZEN = [
        (1.0, 1.0, 2, 2.0),
        (1.0, 1.0, 3, 4.0),
        (1.0, 1.0, 4, 10.0),
        (0.0, 1.0, 8, 105.0),
        (-2.0, 4.0, 5, -832.0),
        (3.0, 0.25, 6, 1058.296875),
        (0.7, 1.3, 7, 227.0155153),
    ]

    def test_frozen_values(self):
        for mu, var, v, expected in self.FROZEN:
            assert gaussian_raw_moment(mu, var, v) == pytest.approx(expected, rel=1e-9)

    def test_oracle_grid(self):
        # acceptance-grade grid: v <= 8, rel err <= 1e-9
        for mu in (-2.0, 0.0, 1.0, 3.0):
            for var in (0.25, 1.0, 4.0):
                for v in range(0, 9):
                    got = gaussian_raw_moment(mu, var, v)
                    want = moment_oracle(mu, var, v)
                    scale = max(abs(want), 1e-6)
                    assert abs(got - want) / scale < 1e-9, (mu, var, v, got, want)

    def test_base_cases(self):
        assert gaussian_raw_moment(2.5, 3.0, 0) == 1.0
        assert gaussian_raw_moment(2.5, 3.0, 1) == 2.5

    def test_zero_variance_is_power_of_mean(self):
        for v in range(0, 9):
            assert gaussian_raw_moment(1.5, 0.0, v) == pytest.approx(1.5**v, rel=1e-12)

    def test_vector_broadcast(self):
        mu = np.array([0.0, 1.0, -2.0])
        var = np.array([1.0, 1.0, 4.0])
        got = gaussian_raw_moment(mu, var, 3)
        want = [moment_oracle(m, s, 3) for m, s in zip(mu, var)]
        assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_vector_orders(self):
        got = gaussian_raw_moment(1.0, 1.0, np.array([1, 2, 3, 4]))
        assert_allclose(got, [1.0, 2.0, 4.0, 10.0], rtol=1e-12)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gaussian_raw_moment(0.0, 1.0, -1)
        with pytest.raises(ValueError):
            gaussian_raw_moment(0.0, 1.0, np.array([1, -2]))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            gaussian_raw_moment(0.0, -1.0, 2)


class TestGaussianPowerVariance:
    def test_matches_oracle(self):
        for mu in (-1.0, 0.0, 0.7, 2.0):
            for var in (0.5, 1.0, 2.0):
                for v in (1, 2, 3, 4):
                    want = moment_oracle(mu, var, 2 * v) - moment_oracle(mu, var, v) ** 2
                    got = gaussian_power_variance(mu, var, v)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_order_one_is_variance(self):
        assert gaussian_power_variance(3.0, 1.7, 1) == pytest.approx(1.7, rel=1e-12)

    def test_squared_power_closed_form(self):
        # Var(d^2) = 2 sigma^2 (2 mu^2 + sigma^2) for Gaussian d
        for mu, var in [(0.0, 1.0), (1.0, 1.0), (2.0, 0.5), (-1.5, 2.0)]:
            want = 2.0 * var * (2.0 * mu**2 + var)
            assert gaussian_power_variance(mu, var, 2) == pytest.approx(want, rel=1e-12)

    def test_simplified_textbook_form_is_not_exact(self):
        # A commonly quoted simplification 2 sigma^2 (mu^2 + sigma^2) drops half
        # the mu^2 term; the oracle sides with 2 sigma^2 (2 mu^2 + sigma^2).
        mu, var = 1.0, 1.0
        oracle = moment_oracle(mu, var, 4) - moment_oracle(mu, var, 2) ** 2
        exact = 2.0 * var * (2.0 * mu**2 + var)
        simplified = 2.0 * var * (mu**2 + var)
        assert oracle == pytest.approx(exact, rel=1e-9)  # oracle = 6
        assert oracle != pytest.approx(simplified, rel=1e-3)  # simplified = 4
        assert gaussian_power_variance(mu, var, 2) == pytest.approx(exact, rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            mu = rng.normal(0.0, 3.0)
            var = rng.uniform(0.01, 5.0)
            v = int(rng.integers(1, 5))
            assert gaussian_power_variance(mu, var, v) >= 0.0


class TestTargetSpec:
    def test_basic_construction(self):
        spec = TargetSpec(np.array([1.0, 2.0]), np.array([1, 2]))
        assert spec.n == 2

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            TargetSpec(np.array([1.0, -2.0]), np.array([1, 1]))
        with pytest.raises(ValueError):
            TargetSpec(np.array([1.0, 0.0]), np.array([1, 1]))

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            TargetSpec(np.array([1.0]), np.array([0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            TargetSpec(np.array([1.0, 1.0]), np.array([1]))


class TestTargetValue:
    def test_weighted_power_sum(self):
        spec = TargetSpec(np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3]))
        data = np.array([2.0, -1.0, 0.5])
        want = 1.0 * 2.0 + 2.0 * 1.0 + 3.0 * 0.125
        assert target_value(spec, data) == pytest.approx(want, rel=1e-12)

    def test_plain_sum(self):
        spec = TargetSpec(np.ones(4), np.ones(4, dtype=int))
        data = np.array([1.0, 2.0, 3.0, 4.0])
        assert target_value(spec, data) == pytest.approx(10.0)

    def test_powers_are_products(self):
        data = np.random.default_rng(3).normal(0.4, 1.3, size=(500, 6))
        w = np.arange(1.0, 7.0)
        cubes = TargetSpec(w, np.full(6, 3))
        weighted_sum = TargetSpec(w, np.ones(6, dtype=int))
        assert target_values(cubes, data).tobytes() == target_values(weighted_sum, data * data * data).tobytes()
        # mixed exponents take pow
        mixed = TargetSpec(w, np.array([1, 2, 3, 3, 4, 7]))
        powered = data**mixed.exponents
        assert target_values(mixed, data).tobytes() == target_values(weighted_sum, powered).tobytes()

    def test_batch_rows_equal_lone_rows(self):
        data = np.random.default_rng(4).normal(0.4, 1.3, size=(40, 9))
        for exponents in (np.ones(9, dtype=int), np.full(9, 3), np.arange(1, 10) % 4 + 1):
            spec = TargetSpec(np.arange(1.0, 10.0), exponents)
            batch = target_values(spec, data)
            assert batch.tolist() == [target_value(spec, row) for row in data]


class TestTargetMoments:
    def test_mean_and_second_moment_vs_monte_carlo(self):
        rng = np.random.default_rng(42)
        spec = TargetSpec(np.array([1.0, 2.0, 1.5]), np.array([1, 2, 3]))
        mu, var = 0.6, 1.2
        samples = rng.normal(mu, math.sqrt(var), size=(400_000, 3))
        vals = (samples ** spec.exponents) @ spec.weights
        m1, m2 = vals.mean(), (vals**2).mean()
        se1 = vals.std(ddof=1) / math.sqrt(vals.size)
        se2 = (vals**2).std(ddof=1) / math.sqrt(vals.size)
        assert abs(target_mean(spec, mu, var) - m1) < 4 * se1
        assert abs(target_second_moment(spec, mu, var) - m2) < 4 * se2

    def test_second_moment_plain_sum(self):
        # sum of n iid N(mu, var): E[S^2] = n var + (n mu)^2
        spec = TargetSpec(np.ones(20), np.ones(20, dtype=int))
        assert target_second_moment(spec, 1.0, 1.0) == pytest.approx(420.0, rel=1e-12)
        assert target_second_moment(spec, 0.0, 1.0) == pytest.approx(20.0, rel=1e-12)

    def test_cross_moment_vs_monte_carlo(self):
        # E[(sum_i d_i) * d*] drives every coefficient rule's numerator
        rng = np.random.default_rng(7)
        spec = TargetSpec(np.array([1.0, 2.0, 1.0]), np.array([2, 1, 3]))
        mu, var = 0.4, 0.9
        samples = rng.normal(mu, math.sqrt(var), size=(400_000, 3))
        s = samples.sum(axis=1)
        dstar = (samples ** spec.exponents) @ spec.weights
        prod = s * dstar
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        got = target_sum_cross_moment(spec, mu, var)
        assert abs(got - prod.mean()) < 4 * se

    def test_cross_moment_zero_mean_squares_degenerate(self):
        # squares target with zero-mean data: all odd moments vanish
        spec = TargetSpec(np.ones(5), np.full(5, 2))
        assert target_sum_cross_moment(spec, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_per_sensor_statistics(self):
        spec = TargetSpec(np.ones(3), np.ones(3, dtype=int))
        mu = np.array([0.0, 1.0, 2.0])
        var = np.array([1.0, 2.0, 0.5])
        assert target_mean(spec, mu, var) == pytest.approx(3.0, rel=1e-12)
        # E[S^2] = sum var + (sum mu)^2 for the plain sum
        assert target_second_moment(spec, mu, var) == pytest.approx(3.5 + 9.0, rel=1e-12)


def moment_bits(m):
    """Every number of a :class:`DataMoments`, exactly."""
    return (m.mu.tobytes(), m.var.tobytes(), m.tau.tobytes(), float(m.target_mean).hex(), float(m.residual).hex())


class TestDataMomentsMemo:
    """``DataMoments.of`` derives once per (spec, data law), and a memo hit is a fresh derivation's bits."""

    SPEC = TargetSpec(np.arange(1.0, 7.0), np.array([1, 3, 2, 3, 1, 4]))  # mixed exponents: a residual

    def spec(self):
        """A new spec equal to ``SPEC``, with nothing memoized yet."""
        return TargetSpec(self.SPEC.weights, self.SPEC.exponents)

    def fresh(self, mean, var):
        """The moments of this law derived on a new spec."""
        return moment_bits(DataMoments.of(self.spec(), mean, var))

    def test_the_same_spec_and_law_return_the_same_object(self):
        spec = self.spec()
        first = DataMoments.of(spec, 0.0, 1.0)
        assert DataMoments.of(spec, 0.0, 1.0) is first
        assert moment_bits(first) == self.fresh(0.0, 1.0)

    def test_a_change_of_law_gives_fresh_moments(self):
        spec = self.spec()
        zero = DataMoments.of(spec, 0.0, 1.0)
        shifted = DataMoments.of(spec, 0.3, 1.0)
        assert shifted is not zero
        assert moment_bits(shifted) == self.fresh(0.3, 1.0) != moment_bits(zero)
        means = np.linspace(-0.5, 0.5, 6)
        per_sensor = DataMoments.of(spec, means, 1.0)
        assert moment_bits(per_sensor) == self.fresh(means, 1.0)
        nudged = means.copy()
        nudged[4] = 0.25
        changed = DataMoments.of(spec, nudged, 1.0)
        assert changed is not per_sensor
        assert moment_bits(changed) == self.fresh(nudged, 1.0) != moment_bits(per_sensor)

    def test_returning_to_the_first_law_re_derives_it(self):
        spec = self.spec()
        first = moment_bits(DataMoments.of(spec, 0.0, 1.0))
        DataMoments.of(spec, 0.3, 1.0)
        assert moment_bits(DataMoments.of(spec, 0.0, 1.0)) == first == self.fresh(0.0, 1.0)

    def test_the_memoized_arrays_are_read_only(self):
        moments = DataMoments.of(self.spec(), np.linspace(0.0, 1.0, 6), 2.0)
        for arr in (moments.mu, moments.var, moments.tau):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_a_nan_law_raises_and_keeps_the_earlier_entry(self):
        spec = self.spec()
        first = DataMoments.of(spec, 0.3, 1.0)
        with pytest.raises(ValueError, match="data_var must be non-negative"):
            DataMoments.of(spec, 0.3, math.nan)
        with pytest.raises(ValueError, match="data_var must be non-negative"):
            DataMoments.of(spec, 0.3, math.nan)  # the failure was not stored either
        assert DataMoments.of(spec, 0.3, 1.0) is first

"""Tests for the Monte Carlo evaluation engine.

The engine's contract has three load-bearing parts exercised here:

* determinism — identical configurations reproduce results bit for bit,
  and single trials are reproducible through the composable API;
* honest statistics — standard errors shrink like 1/sqrt(trials), the
  zero policy recovers the analytic target second moment, and paired
  comparisons on common random numbers beat independent error bars;
* robust sweeps — failing cells are recorded as NaN rows instead of
  aborting, and rejected pilot rounds are counted, not hidden.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aircomp import evaluation
from aircomp.estimator import SamplingRejectedError, gain_statistics
from aircomp.evaluation import (
    POLICY_NAMES,
    TARGET_NAMES,
    EstimationError,
    ExperimentConfig,
    ExperimentResult,
    GridOracleResult,
    PolicyEstimate,
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
from aircomp.channel import ChannelParams, effective_gain_matrix
from aircomp.geometry import plan_diameter_trajectory
from aircomp.nomographic import TargetSpec
from aircomp.protocol import BetaVector


class TestExperimentConfig:
    """Validation and defaults of the experiment description."""

    def test_reference_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n == 20
        assert cfg.k == 5
        assert cfg.r_cov == 10.0
        assert cfg.h == 50.0
        assert cfg.p_watts == 1.0
        assert cfg.noise_var == 1e-10
        assert cfg.zeta == 0.99
        assert cfg.g0 == 0.0275
        assert cfg.data_mean == 0.0
        assert cfg.data_var == 1.0
        assert cfg.target == "config-1"
        assert cfg.redeploy_per_trial is True

    def test_policy_list_normalized_to_tuple(self):
        cfg = ExperimentConfig(policies=["benchmark", "zero"])
        assert cfg.policies == ("benchmark", "zero")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0)
        with pytest.raises(ValueError):
            ExperimentConfig(k=0)
        with pytest.raises(ValueError):
            ExperimentConfig(r_cov=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(h=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(p_watts=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(noise_var=-1e-12)
        with pytest.raises(ValueError):
            ExperimentConfig(zeta=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(zeta=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(data_var=-0.1)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(target="config-9")
        with pytest.raises(ValueError):
            ExperimentConfig(policies=("benchmark", "nonsense"))


class TestTargets:
    """Named target configurations and the dB reference."""

    def test_named_target_shapes(self):
        n = 6
        plain = build_target("config-1", n)
        assert_allclose(plain.weights, np.ones(n))
        assert_allclose(plain.exponents, np.ones(n))
        squares = build_target("config-2", n)
        assert_allclose(squares.weights, np.ones(n))
        assert_allclose(squares.exponents, np.full(n, 2))
        ramped = build_target("config-3", n)
        assert_allclose(ramped.weights, np.arange(1.0, n + 1.0))
        assert_allclose(ramped.exponents, np.full(n, 3))

    def test_spec_passthrough_and_mismatch(self):
        spec = TargetSpec(np.ones(4), np.ones(4, dtype=int))
        assert build_target(spec, 4) is spec
        with pytest.raises(ValueError):
            build_target(spec, 5)
        with pytest.raises(ValueError):
            build_target("config-7", 4)

    def test_reference_closed_form(self):
        # Plain sum of 20 unit-variance readings with mean 1:
        # E[(sum d)**2] = (n mu)**2 + n var = 420.
        cfg = ExperimentConfig(data_mean=1.0)
        assert target_reference(cfg) == pytest.approx(420.0, rel=1e-12)
        cfg0 = ExperimentConfig()
        assert target_reference(cfg0) == pytest.approx(20.0, rel=1e-12)

    def test_to_db(self):
        assert to_db(1.0, 10.0) == pytest.approx(-10.0, rel=1e-12)
        assert to_db(20.0, 20.0) == 0.0
        assert to_db(0.0, 5.0) == -math.inf
        with pytest.raises(ValueError):
            to_db(1.0, 0.0)
        with pytest.raises(ValueError):
            to_db(-1.0, 5.0)


class TestRunTrial:
    """Single protocol rounds through the composable API."""

    def test_deterministic_in_trial_seed(self):
        cfg = ExperimentConfig(trials=1, noise_var=1e-12)
        a = run_trial(cfg, "benchmark", trial_seed=123)
        b = run_trial(cfg, "benchmark", trial_seed=123)
        c = run_trial(cfg, "benchmark", trial_seed=124)
        assert a == b
        assert a != c

    def test_perfect_inversion_single_link(self):
        # One sensor, one stop, no noise, fixed layout: the coefficient
        # 1/g inverts the channel exactly and the error is identically 0.
        cfg = ExperimentConfig(
            n=1, k=1, noise_var=0.0, redeploy_per_trial=False, trials=1
        )
        field = fixed_deployment(cfg)
        traj = plan_diameter_trajectory(cfg.k, cfg.r_cov, cfg.h)
        gains = effective_gain_matrix(field, traj, ChannelParams())
        beta = BetaVector(np.array([1.0 / gains.g[0, 0]]))
        for seed in (0, 1, 7):
            assert run_trial(cfg, beta, trial_seed=seed) == 0.0

    def test_scalar_and_vector_policies_agree(self):
        cfg = ExperimentConfig(noise_var=1e-12)
        scalar = run_trial(cfg, 1e5, trial_seed=42)
        vector = run_trial(cfg, np.full(cfg.k, 1e5), trial_seed=42)
        wrapped = run_trial(cfg, BetaVector(np.full(cfg.k, 1e5)), trial_seed=42)
        assert scalar == vector == wrapped

    def test_rejection_propagates(self):
        # A huge pilot noise makes a non-positive measurement near
        # certain; the pilot-driven policy must refuse the round.
        cfg = ExperimentConfig(noise_var=1e6)
        with pytest.raises(SamplingRejectedError):
            for seed in range(20):
                run_trial(cfg, "heuristic", trial_seed=seed)

    @pytest.mark.parametrize("policy", [p for p in POLICY_NAMES if p != "grid-oracle"])
    def test_reproduces_the_engines_first_trial(self, policy, monkeypatch):
        # On a cell's chunk-0 streams one round through the composable API
        # is a one-trial cell: same value bit for bit, and rejected exactly
        # when the engine rejects.  Every case shares one set of gain
        # statistics, so the quadrature runs once.
        stats = gain_statistics(plan_diameter_trajectory(5, 10.0, 50.0), 10.0, ChannelParams(), 0.99)
        monkeypatch.setattr(evaluation, "gain_statistics", lambda *args: stats)
        mismatches = []
        for seed in range(40):
            for noise_var in (0.0, 1e-12, 1e-10):
                for target in ("config-1", "config-3"):
                    for redeploy in (True, False):
                        cfg = ExperimentConfig(
                            noise_var=noise_var, target=target, seed=seed,
                            redeploy_per_trial=redeploy, trials=1,
                        )
                        streams = np.random.SeedSequence((seed, cfg.n, cfg.k, 0))
                        try:
                            engine = estimate_mse(cfg, policy).mse
                        except EstimationError:
                            with pytest.raises(SamplingRejectedError):
                                run_trial(cfg, policy, streams)
                            continue
                        single = run_trial(cfg, policy, streams)
                        if single != engine:
                            mismatches.append((seed, noise_var, target, redeploy, single, engine))
        assert mismatches == []

    def test_grid_oracle_needs_a_batch(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError):
            run_trial(cfg, "grid-oracle", trial_seed=0)

    def test_unknown_policy_rejected(self):
        cfg = ExperimentConfig()
        with pytest.raises(ValueError):
            run_trial(cfg, "clairvoyant", trial_seed=0)


class TestEstimateMse:
    """Batched Monte Carlo estimation."""

    def test_bitwise_deterministic(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=11)
        first = estimate_mse(cfg, "heuristic")
        second = estimate_mse(cfg, "heuristic")
        assert first == second  # dataclass equality: every float identical

    def test_zero_policy_recovers_target_second_moment(self):
        # Estimating zero leaves the target itself as the error, so the
        # Monte Carlo MSE must match E[target**2] = 420 within noise.
        cfg = ExperimentConfig(data_mean=1.0, noise_var=1e-12, trials=100_000, seed=9)
        est = estimate_mse(cfg, "zero")
        assert abs(est.mse - 420.0) <= 3.0 * est.std_err
        assert est.trials_used == cfg.trials
        assert est.trials_rejected == 0

    def test_standard_error_scales_with_trials(self):
        base = ExperimentConfig(noise_var=1e-12, trials=5000, seed=21)
        bigger = ExperimentConfig(noise_var=1e-12, trials=20000, seed=21)
        se_small = estimate_mse(base, "benchmark").std_err
        se_large = estimate_mse(bigger, "benchmark").std_err
        assert se_large / se_small == pytest.approx(0.5, rel=0.2)

    def test_pilot_rejection_counted_at_reference_noise(self):
        # At the reference noise the pilot SNR is below unity and most
        # rounds produce a non-positive measurement; they are excluded
        # and reported, never silently kept.
        cfg = ExperimentConfig(trials=2000, seed=5)
        est = estimate_mse(cfg, "heuristic")
        assert est.trials_used + est.trials_rejected == cfg.trials
        assert est.trials_rejected > cfg.trials // 2
        assert est.trials_used > 0

    def test_non_pilot_policy_never_rejects(self):
        cfg = ExperimentConfig(trials=2000, seed=5)
        est = estimate_mse(cfg, "benchmark")
        assert est.trials_rejected == 0
        assert est.trials_used == cfg.trials

    def test_all_trials_rejected_raises(self):
        cfg = ExperimentConfig(k=20, noise_var=1e6, trials=10, seed=3)
        with pytest.raises(EstimationError):
            estimate_mse(cfg, "heuristic")

    def test_explicit_coefficient_kinds_agree(self):
        cfg = ExperimentConfig(trials=3000, noise_var=1e-12, seed=13)
        as_float = estimate_mse(cfg, 1e5)
        as_array = estimate_mse(cfg, np.full(cfg.k, 1e5))
        as_wrapped = estimate_mse(cfg, BetaVector(np.full(cfg.k, 1e5)))
        assert as_float.mse == as_array.mse == as_wrapped.mse

    def test_redeploy_flag_changes_distribution(self):
        fixed = ExperimentConfig(
            trials=3000, noise_var=1e-12, seed=17, redeploy_per_trial=False
        )
        moving = ExperimentConfig(
            trials=3000, noise_var=1e-12, seed=17, redeploy_per_trial=True
        )
        est_fixed = estimate_mse(fixed, "benchmark")
        est_moving = estimate_mse(moving, "benchmark")
        assert est_fixed.mse != est_moving.mse
        # conditioning on one layout removes the deployment spread
        assert est_fixed.std_err < est_moving.std_err


class TestFixedDeployment:
    def test_seeded_and_reused(self):
        cfg = ExperimentConfig(seed=4)
        a = fixed_deployment(cfg)
        b = fixed_deployment(cfg)
        assert_allclose(a.positions, b.positions, rtol=0)
        other = fixed_deployment(ExperimentConfig(seed=5))
        assert not np.array_equal(a.positions, other.positions)

    def test_depends_on_geometry_dimensions(self):
        base = fixed_deployment(ExperimentConfig(seed=4))
        more_stops = fixed_deployment(ExperimentConfig(seed=4, k=6))
        assert not np.array_equal(base.positions, more_stops.positions)


class TestComparePolicies:
    """Paired dB gaps on common random numbers."""

    def test_self_comparison_is_exactly_zero(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=7)
        gap = compare_policies(cfg, "benchmark", "benchmark")
        assert gap.gap_db == 0.0
        assert gap.std_err_db == 0.0

    def test_antisymmetric(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=7)
        ab = compare_policies(cfg, "heuristic", "benchmark")
        ba = compare_policies(cfg, "benchmark", "heuristic")
        assert ab.gap_db == -ba.gap_db
        assert ab.std_err_db == ba.std_err_db
        assert ab.trials_used == ba.trials_used

    def test_pilot_policy_beats_benchmark_at_low_noise(self):
        cfg = ExperimentConfig(trials=4000, noise_var=1e-12, seed=7)
        gap = compare_policies(cfg, "heuristic", "benchmark")
        assert gap.gap_db < -5.0
        assert gap.std_err_db < 0.5

    def test_common_random_numbers_tighten_coupled_comparisons(self):
        # The per-stop and pooled pilot rules produce nearly identical
        # errors; pairing them on shared randomness must beat the error
        # bar that independent estimates would give by a wide margin.
        cfg = ExperimentConfig(trials=4000, noise_var=1e-12, seed=7)
        paired = compare_policies(cfg, "heuristic", "heuristic-equal")
        est_a = estimate_mse(cfg, "heuristic")
        est_b = estimate_mse(cfg, "heuristic-equal")
        independent = (10.0 / math.log(10.0)) * math.sqrt(
            (est_a.std_err / est_a.mse) ** 2 + (est_b.std_err / est_b.mse) ** 2
        )
        assert paired.std_err_db < 0.5 * independent

    def test_labels_and_counts(self):
        cfg = ExperimentConfig(trials=1000, noise_var=1e-12, seed=7)
        gap = compare_policies(cfg, "heuristic", "benchmark")
        assert gap.policy_a == "heuristic"
        assert gap.policy_b == "benchmark"
        assert 0 < gap.trials_used <= cfg.trials


class TestSweep:
    """Tabulated experiments and their CSV rendering."""

    def test_row_grid_is_complete(self):
        cfg = ExperimentConfig(
            trials=500, noise_var=1e-12, policies=("benchmark", "zero"), seed=2
        )
        result = sweep(cfg, "k", [2, 3], targets=["config-1", "config-3"])
        assert result.axis == "k"
        assert len(result.rows) == 2 * 2 * 2
        seen = {(r.axis_value, r.target, r.policy) for r in result.rows}
        assert seen == {
            (k, t, p)
            for k in (2, 3)
            for t in ("config-1", "config-3")
            for p in ("benchmark", "zero")
        }
        for row in result.rows:
            assert row.trials_used == cfg.trials
            assert row.mse >= 0.0
            assert row.std_err >= 0.0

    def test_zero_policy_rows_sit_at_zero_db(self):
        # The dB normalization divides by E[target**2], which is exactly
        # the zero policy's MSE, so its rows converge to 0 dB.
        cfg = ExperimentConfig(
            trials=20000, noise_var=1e-12, policies=("zero",), seed=2
        )
        result = sweep(cfg, "k", [2, 5])
        for row in result.rows:
            assert abs(row.mse_db) < 0.1

    def test_axis_validation(self):
        cfg = ExperimentConfig(trials=10)
        with pytest.raises(ValueError):
            sweep(cfg, "radius", [1, 2])
        with pytest.raises(ValueError):
            sweep(cfg, "k", [])
        with pytest.raises(ValueError):
            sweep(cfg, "k", [2, 2])
        with pytest.raises(ValueError):
            sweep(cfg, "k", [3, 2])
        with pytest.raises(ValueError):
            sweep(cfg, "k", [0, 1])

    def test_failing_cell_becomes_nan_rows(self):
        # Zero data variance with zero mean gives a zero dB reference,
        # which is unusable; the sweep must record the cell as NaN with
        # zero trials and keep going.
        cfg = ExperimentConfig(
            data_var=0.0, data_mean=0.0, trials=100, policies=("benchmark", "zero")
        )
        result = sweep(cfg, "k", [2, 3])
        assert len(result.rows) == 4
        for row in result.rows:
            assert math.isnan(row.mse)
            assert math.isnan(row.mse_db)
            assert row.trials_used == 0
            assert row.error == "ValueError: reference must be positive, got 0.0"

    def test_csv_schema_and_round_trip(self):
        cfg = ExperimentConfig(
            trials=300, noise_var=1e-12, policies=("benchmark",), seed=2
        )
        result = sweep(cfg, "n", [10, 20])
        text = result.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == ExperimentResult.CSV_HEADER
        assert len(lines) == 1 + len(result.rows)
        assert text.endswith("\n")
        for line, row in zip(lines[1:], result.rows):
            fields = line.split(",")
            assert int(fields[0]) == row.axis_value
            assert fields[1] == row.target
            assert fields[2] == row.policy
            # repr round-trip: parsing the text recovers the exact float
            assert float(fields[3]) == row.mse
            assert float(fields[4]) == row.std_err
            assert float(fields[5]) == row.mse_db
            assert int(fields[6]) == row.trials_used

    def test_write_csv_uses_lf_newlines(self, tmp_path):
        cfg = ExperimentConfig(trials=50, noise_var=1e-12, policies=("zero",))
        result = sweep(cfg, "k", [2])
        path = tmp_path / "rows.csv"
        result.write_csv(path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode() == result.to_csv_text()


class TestGridOracleBatch:
    """Batched grid search over the shared trial set."""

    def test_result_structure(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=3)
        out = grid_oracle(cfg, resolution=32, span=10.0)
        assert isinstance(out, GridOracleResult)
        assert out.beta > 0.0
        assert out.center > 0.0
        assert out.grid.size >= 32
        assert out.values.size == out.grid.size
        assert out.mse == pytest.approx(float(np.min(out.values)), rel=1e-12)

    def test_never_worse_than_closed_form_center(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=3)
        out = grid_oracle(cfg, resolution=32, span=10.0)
        center_idx = int(np.argmin(np.abs(out.grid - out.center)))
        assert out.mse <= out.values[center_idx] * (1.0 + 1e-12)

    def test_deterministic(self):
        cfg = ExperimentConfig(trials=1000, noise_var=1e-12, seed=3)
        a = grid_oracle(cfg, resolution=24, span=10.0)
        b = grid_oracle(cfg, resolution=24, span=10.0)
        assert a.beta == b.beta
        assert a.mse == b.mse

    def test_degenerate_center_raises(self):
        cfg = ExperimentConfig(data_var=0.0, data_mean=0.0, trials=100)
        with pytest.raises(ValueError):
            grid_oracle(cfg)


class TestPolicyAndTargetNames:
    def test_name_tables(self):
        assert POLICY_NAMES == (
            "heuristic",
            "heuristic-equal",
            "optimal-equal",
            "benchmark",
            "grid-oracle",
            "zero",
        )
        assert TARGET_NAMES == ("config-1", "config-2", "config-3")

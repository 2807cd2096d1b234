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
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from aircomp import evaluation, nomographic
from aircomp.estimator import QuadratureConvergenceError, SamplingRejectedError
from aircomp.evaluation import (
    ESTIMATOR_NAMES,
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
from aircomp.channel import ChannelParams, GainMatrix, effective_gain_matrix
from aircomp.estimator import (
    beta_benchmark,
    beta_equal_optimal,
    beta_heuristic,
    beta_heuristic_equal,
    gain_statistics,
    mse_exact_conditional,
)
from aircomp.geometry import plan_diameter_trajectory
from aircomp.nomographic import TargetSpec
from aircomp.protocol import BetaVector, pilot_sums
from aircomp.rng import make_rng, spawn_seeds

ROUND_POLICIES = [p for p in POLICY_NAMES if p != "grid-oracle"]  # the policies a lone round can run


def evaluate_cell(cfg, tspec, policies):
    """One target's ``(sqerr, accept, oracle, errors)`` from a cell of that target alone."""
    [scores] = evaluation._evaluate_cell(cfg, [tspec], policies)
    return scores.sqerr, scores.accept, scores.oracle, scores.errors

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
        assert cfg.resolution == 64
        assert cfg.span == 100.0
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
        with pytest.raises(ValueError, match="resolution"):
            ExperimentConfig(resolution=15)
        with pytest.raises(ValueError, match="span"):
            ExperimentConfig(span=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["r_cov", "h", "p_watts", "noise_var", "zeta", "g0", "data_mean", "data_var", "span"]
    )
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 100.5, 20.0, True, "20"])
    @pytest.mark.parametrize("name", ["n", "k", "trials", "resolution"])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(n=np.int64(7), k=np.int32(3), trials=np.int64(10), resolution=np.int16(16))
        assert (cfg.n, cfg.k, cfg.trials, cfg.resolution) == (7, 3, 10, 16)

    def test_policy_given_twice_rejected(self):
        with pytest.raises(ValueError, match="'benchmark' is given twice"):
            ExperimentConfig(policies=("benchmark", "zero", "benchmark"))


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

    def test_a_seed_sequence_object_is_not_consumed(self):
        # Splitting a SeedSequence into streams must not advance it, so the
        # same object gives the same round again, and the same round as an
        # equal fresh object.
        cfg = ExperimentConfig(noise_var=1e-12)
        streams = np.random.SeedSequence((1, cfg.n, cfg.k))
        first = run_trial(cfg, "benchmark", streams)
        assert run_trial(cfg, "benchmark", streams) == first
        assert run_trial(cfg, "benchmark", np.random.SeedSequence((1, cfg.n, cfg.k))) == first
        assert streams.n_children_spawned == 0

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

    @pytest.mark.parametrize("n, k, policy", [
        *(pytest.param(20, 5, p, id=p) for p in ROUND_POLICIES),
        # sums over sensors run along contiguous rows in both paths, so they
        # round alike on either side of numpy's pairwise-sum blocks (8 and 128)
        *(pytest.param(n, k, p, id=f"{p}-n{n}-k{k}")
          for n in (1, 7, 8, 9, 127, 128, 129, 2000) for k in (1, 5, 20) for p in ROUND_POLICIES),
    ])
    def test_reproduces_the_engines_first_trial(self, n, k, policy):
        # On a cell's seed sequence one round through the composable API is
        # the first trial of a plain cell: same value bit for bit, and
        # rejected exactly when the engine rejects.  The reference size runs
        # many seeds and noise levels, the others one of each.
        if (n, k) == (20, 5):
            seeds, noises, trials = range(40), (0.0, 1e-12, 1e-10), 64
        else:
            seeds, noises, trials = (11,), (1e-12,), 3
        mismatches = []
        for seed in seeds:
            for noise_var in noises:
                for target in ("config-1", "config-3"):
                    for redeploy in (True, False):
                        cfg = ExperimentConfig(
                            n=n, k=k, noise_var=noise_var, target=target, seed=seed,
                            redeploy_per_trial=redeploy, trials=trials, estimator="plain",
                        )
                        sqerr, accept, _, errors = evaluate_cell(
                            cfg, build_target(target, n), [policy]
                        )
                        assert errors == [None]
                        streams = np.random.SeedSequence((seed, n, k))
                        if not accept[0, 0]:
                            with pytest.raises(SamplingRejectedError):
                                run_trial(cfg, policy, streams)
                            continue
                        single = run_trial(cfg, policy, streams)
                        engine = sqerr[0, 0]
                        if single != engine:
                            mismatches.append((seed, noise_var, target, redeploy, single, engine))
        assert mismatches == []

    def test_a_round_builds_no_constant(self, monkeypatch):
        # the named spec, its data moments and the flight plan depend on the config only
        calls = {"derivations": 0, "plans": 0}

        def counted(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(nomographic, "gaussian_raw_moment", "derivations")  # once per config-1 derivation
        counted(evaluation, "plan_diameter_trajectory", "plans")
        evaluation._named_target.cache_clear()
        evaluation._flight_plan.cache_clear()
        cfg = ExperimentConfig(noise_var=1e-12, seed=5)
        for seed in range(20):
            try:
                run_trial(cfg, "heuristic", seed)
            except SamplingRejectedError:
                pass
        assert calls == {"derivations": 1, "plans": 1}
        assert build_target("config-1", 20) is build_target("config-1", 20)

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


class TestChunking:
    """The work chunk bounds memory and moves no number."""

    def test_results_do_not_depend_on_chunk_size(self, monkeypatch):
        chunk_sizes = (evaluation._chunk_size, lambda n, k: 1, lambda n, k: 7)
        for noise_var in (0.0, 1e-12, 1e-10):
            for target in ("config-1", "config-3"):
                for redeploy in (True, False):
                    cfg = ExperimentConfig(
                        noise_var=noise_var, target=target, seed=5,
                        redeploy_per_trial=redeploy, trials=50,
                    )
                    outcomes = []
                    for chunk_size in chunk_sizes:
                        monkeypatch.setattr(evaluation, "_chunk_size", chunk_size)
                        sqerr, accept, oracle, errors = evaluate_cell(
                            cfg, build_target(target, cfg.n), POLICY_NAMES
                        )
                        assert errors == [None] * len(POLICY_NAMES)
                        outcomes.append((
                            sqerr.tobytes(), accept.tobytes(), oracle.beta, oracle.mse,
                            oracle.grid.tobytes(), oracle.values.tobytes(),
                        ))
                    assert outcomes[1:] == outcomes[:1] * 2, (noise_var, target, redeploy)

    def test_chunk_size_bounds_the_working_set(self):
        # arithmetic only: nothing is allocated at these sizes
        for n in (1, 2, 20, 2000, 10**4, 10**5, 10**6, 4 * 10**6, 10**7):
            for k in (1, 5, 20, 100):
                chunk = evaluation._chunk_size(n, k)
                assert 1 <= chunk <= 16384
                if n * k <= 4_000_000:
                    assert chunk * n * k <= 4_000_000, (n, k, chunk)
        assert evaluation._chunk_size(20, 5) == 16384
        assert evaluation._chunk_size(2000, 20) == 100

    def test_a_chunk_holds_one_gain_buffer(self):
        # Each chunk's gains are built in place in one (chunk, k, n) buffer;
        # every other array of the chunk is a fraction of it.
        cfg = ExperimentConfig(n=2000, k=20, trials=300, noise_var=1e-12)
        buffer_bytes = evaluation._chunk_size(cfg.n, cfg.k) * cfg.k * cfg.n * 8
        tspec = build_target(cfg.target, cfg.n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_cell(cfg, tspec, cfg.policies)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * buffer_bytes, peak / buffer_bytes


class TestConditionalEstimator:
    """The default estimator: each trial records its exact MSE given its gains and pilot."""

    @staticmethod
    def rounds(cfg):
        """A cell's target part, and its gains ``(trials, k, n)`` and pilot sums ``(trials, k)``."""
        geometry = evaluation._Geometry(cfg)
        cell = evaluation._Target(geometry, build_target(cfg.target, cfg.n))
        streams = [make_rng(s) for s in spawn_seeds((cfg.seed, cfg.n, cfg.k), 4)]
        g = np.array(geometry.gains(streams[0], np.empty((cfg.trials, cfg.k, cfg.n))))
        return cell, g, pilot_sums(g, cfg.noise_var, streams[1])

    @staticmethod
    def coefficients(cell, policy, alpha):
        """One round's coefficients through the public rules: a ``(k,)`` vector or a scalar."""
        c, tspec = cell.config, cell.tspec
        if not isinstance(policy, str):
            return policy  # a fixed vector or scalar
        if policy == "heuristic":
            return beta_heuristic(alpha, tspec, c.data_mean, c.data_var, c.noise_var, c.n).beta
        if policy == "heuristic-equal":
            return beta_heuristic_equal(alpha, tspec, c.data_mean, c.data_var, c.noise_var, c.n)
        if policy == "optimal-equal":
            geometry = cell.geometry
            stats = gain_statistics(geometry.traj, c.r_cov, geometry.params, c.zeta)
            return beta_equal_optimal(tspec, stats, c.data_mean, c.data_var, c.noise_var)
        if policy == "benchmark":
            return beta_benchmark(cell.geometry.traj, cell.geometry.params, c.zeta, c.n).beta
        assert policy == "zero"
        return 0.0

    @pytest.mark.parametrize("redeploy", [True, False])
    @pytest.mark.parametrize("data_mean, data_var", [(0.0, 1.0), (1.5, 1.0), (1.5, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("target", TARGET_NAMES)
    def test_each_trial_is_the_exact_conditional_mse(self, target, data_mean, data_var, redeploy):
        cfg = ExperimentConfig(
            target=target, data_mean=data_mean, data_var=data_var, redeploy_per_trial=redeploy,
            noise_var=1e-12, trials=12, seed=8,
        )
        policies = [*ROUND_POLICIES, np.linspace(1e5, 2e5, cfg.k), 1.5e5]
        sqerr, accept, _, errors = evaluate_cell(cfg, build_target(target, cfg.n), policies)
        cell, g, alpha = self.rounds(cfg)
        checked = 0
        for i, policy in enumerate(policies):
            if errors[i] is not None:  # a degenerate optimal-equal model: the public rule fails too
                with pytest.raises(type(errors[i])):
                    self.coefficients(cell, policy, alpha[0])
                continue
            for j in np.flatnonzero(accept[i]):
                beta = self.coefficients(cell, policy, alpha[j])
                exact = mse_exact_conditional(
                    cell.tspec, GainMatrix(g[j]), data_mean, data_var, cfg.noise_var, beta
                )
                assert sqerr[i, j] == pytest.approx(exact, rel=1e-12, abs=1e-300), (i, j)
                checked += 1
        assert checked >= 5 * cfg.trials

    def test_acceptance_flags_match_the_plain_estimator(self):
        for noise_var in (0.0, 1e-12, 1e-10, 1e-9):
            cfg = ExperimentConfig(noise_var=noise_var, trials=3000, seed=4)
            tspec = build_target(cfg.target, cfg.n)
            _, conditional, _, _ = evaluate_cell(cfg, tspec, ROUND_POLICIES)
            _, plain, _, _ = evaluate_cell(replace(cfg, estimator="plain"), tspec, ROUND_POLICIES)
            np.testing.assert_array_equal(conditional, plain)
        assert not plain.all()  # some rounds were rejected

    @pytest.mark.parametrize("target", ["config-1", "config-3"])
    def test_mean_agrees_with_the_sampled_estimator(self, target):
        # the plain side samples readings and data-flyover noise, so this is not circular
        for policy in ("heuristic", "benchmark", "grid-oracle"):
            cfg = ExperimentConfig(target=target, noise_var=1e-12, trials=20_000, seed=31)
            conditional = estimate_mse(cfg, policy)
            plain = estimate_mse(replace(cfg, estimator="plain"), policy)
            assert conditional.trials_used == plain.trials_used
            assert abs(conditional.mse - plain.mse) <= 4.0 * math.hypot(conditional.std_err, plain.std_err)
            assert conditional.std_err < 0.2 * plain.std_err

    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_a_row_does_not_depend_on_its_batch(self, estimator, monkeypatch):
        # every chunk size, down to one round alone, gives the same bits
        for target, data_mean in (("config-1", 1.5), ("config-2", 1.5), ("config-3", 0.0)):
            cfg = ExperimentConfig(
                target=target, data_mean=data_mean, noise_var=1e-12, trials=40, seed=6,
                estimator=estimator, policies=POLICY_NAMES,
            )
            tspec = build_target(target, cfg.n)
            outcomes = []
            for chunk_size in (evaluation._chunk_size, lambda n, k: 1, lambda n, k: 13):
                monkeypatch.setattr(evaluation, "_chunk_size", chunk_size)
                sqerr, accept, oracle, errors = evaluate_cell(cfg, tspec, POLICY_NAMES)
                assert errors == [None] * len(POLICY_NAMES)
                outcomes.append((sqerr.tobytes(), accept.tobytes(), oracle.values.tobytes()))
            assert outcomes[1:] == outcomes[:1] * 2, target
            lone, _, _, _ = evaluate_cell(replace(cfg, trials=1), tspec, ROUND_POLICIES)
            rows = [POLICY_NAMES.index(p) for p in ROUND_POLICIES]
            np.testing.assert_array_equal(lone[:, 0], sqerr[rows, 0])

    def test_grid_values_are_the_exact_quadratic(self):
        cfg = ExperimentConfig(target="config-3", data_mean=0.5, noise_var=1e-12, trials=30, seed=12)
        oracle = grid_oracle(cfg)
        cell, g, _ = self.rounds(cfg)
        for b, value in zip(oracle.grid, oracle.values):
            mean = np.mean([
                mse_exact_conditional(cell.tspec, GainMatrix(gj), 0.5, 1.0, cfg.noise_var, b) for gj in g
            ])
            assert value == pytest.approx(mean, rel=1e-10)
        best = int(np.argmin(oracle.values))
        assert (oracle.beta, oracle.mse) == (oracle.grid[best], oracle.values[best])
        assert oracle.values.size == cfg.resolution + 1


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
            sweep(cfg, "k", [2.5])
        with pytest.raises(ValueError):
            sweep(cfg, "k", [0, 1])

    def test_repeated_target_rejected(self):
        cfg = ExperimentConfig(trials=10, noise_var=1e-12, policies=("zero",))
        with pytest.raises(ValueError, match="given twice"):
            sweep(cfg, "k", [2], targets=["config-1", "config-3", "config-1"])

    def test_custom_targets_labelled_by_position(self):
        # a TargetSpec at 1-based position i of targets is "custom-<i>", and its rows are
        # those of a sweep of that spec alone
        cfg = ExperimentConfig(trials=200, noise_var=1e-12, policies=("benchmark", "heuristic"), seed=2)
        spec_a = TargetSpec(np.ones(cfg.n), np.full(cfg.n, 2))
        spec_b = TargetSpec(np.arange(1.0, cfg.n + 1.0), np.ones(cfg.n, dtype=int))
        rows = sweep(cfg, "k", [5], targets=[spec_a, spec_b]).rows
        assert [r.target for r in rows] == ["custom-1", "custom-1", "custom-2", "custom-2"]
        for label, spec in (("custom-1", spec_a), ("custom-2", spec_b)):
            alone = sweep(cfg, "k", [5], targets=[spec]).rows
            assert [replace(r, target=label) for r in alone] == [r for r in rows if r.target == label]

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

    @pytest.mark.parametrize(
        "config, failing, reason",
        [
            # every heuristic round is rejected at this noise level
            (
                ExperimentConfig(noise_var=1e-2, trials=3, seed=5, policies=("benchmark", "heuristic")),
                "heuristic",
                "EstimationError: every trial was rejected (non-positive pilot measurements)",
            ),
            # zero-mean data puts config-2's closed-form centre at 0
            (
                ExperimentConfig(
                    target="config-2", noise_var=1e-12, trials=200,
                    policies=("heuristic", "benchmark", "grid-oracle"),
                ),
                "grid-oracle",
                "ValueError: center must be positive, got 0.0",
            ),
            # a negative mean makes config-2's per-stop coefficients negative
            (
                ExperimentConfig(
                    target="config-2", data_mean=-1.0, noise_var=1e-12, trials=200,
                    policies=("heuristic", "benchmark"),
                ),
                "heuristic",
                "ValueError: combining coefficients must be non-negative",
            ),
        ],
        ids=["all-rejected", "degenerate-oracle-centre", "negative-coefficients"],
    )
    def test_policy_failure_reaches_only_its_row(self, config, failing, reason):
        result = sweep(config, "k", [4, 5])
        assert [(r.axis_value, r.policy) for r in result.rows] == [
            (k, p) for k in (4, 5) for p in config.policies
        ]
        for row in result.rows:
            if row.policy == failing:
                assert math.isnan(row.mse) and row.trials_used == 0
                assert row.error == reason
            else:
                assert math.isfinite(row.mse_db) and row.trials_used == config.trials
                assert row.error == ""

    def test_a_pilot_coefficient_of_zero_over_zero_fails_its_row(self):
        # no data variance and no receiver noise: both pilot rules divide 0 by 0
        cfg = ExperimentConfig(data_var=0.0, noise_var=0.0, trials=50, policies=("heuristic", "heuristic-equal"))
        with np.errstate(invalid="ignore"):
            rows = sweep(cfg, "k", [4, 5]).rows
            with pytest.raises(ValueError, match="beta must be finite"):
                estimate_mse(cfg, "heuristic-equal")
        assert [(r.axis_value, r.policy) for r in rows] == [(k, p) for k in (4, 5) for p in cfg.policies]
        for row in rows:
            assert math.isnan(row.mse) and row.trials_used == 0
            assert row.error == "ValueError: beta must be finite"

    def test_a_fixed_vector_of_the_wrong_length_fails_only_its_row(self):
        cfg = ExperimentConfig(
            k=5, noise_var=1e-12, trials=50, policies=("heuristic", np.full(5, 1e5), "benchmark"),
        )
        rows = sweep(cfg, "k", [4, 5]).rows
        without = sweep(replace(cfg, policies=("heuristic", "benchmark")), "k", [4, 5]).rows
        assert [r for r in rows if r.policy != "fixed"] == list(without)
        for row in rows:
            if row.policy == "fixed" and row.axis_value == 4:
                assert math.isnan(row.mse) and row.trials_used == 0
                assert row.error == "ValueError: fixed beta must have 4 entries, got shape (5,)"
            else:
                assert math.isfinite(row.mse_db) and row.error == ""

    def test_a_quadrature_that_does_not_converge_fails_only_the_rows_that_read_it(self, monkeypatch):
        # at 1 mm over a 10 m disk the disk quadrature does not converge; the pilot rules and
        # the benchmark never read it, and every target's readers share its one failed run
        readers = ("optimal-equal", "grid-oracle")
        calls = []
        original = evaluation.gain_statistics

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, "gain_statistics", counted)
        cfg = ExperimentConfig(
            h=1e-3, noise_var=1e-12, trials=50, policies=[p for p in POLICY_NAMES if p != "zero"],
        )
        targets = ["config-1", "config-3"]
        rows = sweep(cfg, "k", [4, 5], targets=targets).rows
        assert [traj.k for traj, *_ in calls] == [4, 5]
        reasons = {}
        for args in calls:
            with pytest.raises(QuadratureConvergenceError) as failure:
                original(*args)
            reasons[args[0].k] = f"QuadratureConvergenceError: {failure.value}"
            assert reasons[args[0].k].startswith("QuadratureConvergenceError: disk quadrature changed by ")
        others = [p for p in cfg.policies if p not in readers]
        without = sweep(replace(cfg, policies=others), "k", [4, 5], targets=targets).rows
        assert [r for r in rows if r.policy not in readers] == list(without)
        for row in rows:
            if row.policy in readers:
                assert math.isnan(row.mse) and row.trials_used == 0
                assert row.error == reasons[row.axis_value]
            else:
                assert math.isfinite(row.mse_db) and row.error == ""

    def test_each_read_of_a_failed_quadrature_raises_its_own_copy(self):
        geometry = evaluation._Geometry(ExperimentConfig(h=1e-3, k=5))
        raised = []
        for _ in range(2):
            with pytest.raises(QuadratureConvergenceError) as failure:
                geometry.stats
            raised.append(failure.value)
        first, second = raised
        assert first is not second and str(first) == str(second)
        assert first.__cause__ is second.__cause__
        assert first.__traceback__ is not second.__traceback__

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


def row_bits(row):
    """A sweep row with every float as its exact hex form, so NaN rows compare too."""
    return (
        row.axis_value, row.target, row.policy,
        *(float(x).hex() for x in (row.mse, row.std_err, row.mse_db)),
        row.trials_used, row.error,
    )


class TestSharedGeometry:
    """A sweep's targets at one axis value share one draw, one gain build and one quadrature."""

    CUSTOM = TargetSpec(np.arange(1.0, 21.0), np.tile([1, 3], 10))  # mixed exponents, for n = 20

    @pytest.mark.parametrize("redeploy", [True, False])
    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_every_row_is_its_single_target_row(self, estimator, redeploy):
        cfg = ExperimentConfig(
            noise_var=1e-12, trials=150, seed=19, policies=POLICY_NAMES,
            estimator=estimator, redeploy_per_trial=redeploy,
        )
        targets = [*TARGET_NAMES, self.CUSTOM]  # what --targets all runs, and a custom spec
        rows = sweep(cfg, "k", [1, 3], targets=targets).rows
        alone = []
        for position, target in enumerate(targets, 1):
            label = target if isinstance(target, str) else f"custom-{position}"
            alone += [replace(r, target=label) for r in sweep(cfg, "k", [1, 3], targets=[target]).rows]
        by_key = {(r.axis_value, r.target, r.policy): r for r in alone}
        assert len(rows) == len(by_key) == 2 * 4 * len(POLICY_NAMES)
        assert [row_bits(r) for r in rows] == [row_bits(by_key[r.axis_value, r.target, r.policy]) for r in rows]
        # zero-mean data leaves config-2's grid search no positive centre; nothing else fails
        failed = {(r.target, r.policy) for r in rows if r.error}
        assert failed == {("config-2", "grid-oracle")}

    def test_a_wrong_length_spec_fails_only_its_rows(self):
        cfg = ExperimentConfig(
            noise_var=1e-12, trials=100, seed=3, policies=("heuristic", "optimal-equal", "grid-oracle"),
        )
        rows = sweep(cfg, "n", [10, 20], targets=["config-3", self.CUSTOM]).rows
        alone = sweep(cfg, "n", [10, 20], targets=["config-3"]).rows
        assert [row_bits(r) for r in rows if r.target == "config-3"] == [row_bits(r) for r in alone]
        for row in rows:
            if row.target == "custom-2" and row.axis_value == 10:
                assert math.isnan(row.mse) and row.trials_used == 0
                assert row.error == "ValueError: target spec is for 20 sensors, expected 10"
            else:
                assert row.error == "" and math.isfinite(row.mse_db)

    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_a_multi_target_cell_does_not_depend_on_chunk_size(self, estimator, monkeypatch):
        cfg = ExperimentConfig(data_mean=1.5, noise_var=1e-12, trials=40, seed=6, estimator=estimator)
        targets = [(build_target(t, cfg.n), POLICY_NAMES) for t in TARGET_NAMES]
        outcomes = []
        for chunk_size in (evaluation._chunk_size, lambda n, k: 1, lambda n, k: 13):
            monkeypatch.setattr(evaluation, "_chunk_size", chunk_size)
            outcome = []
            for s in evaluation._evaluate_cell(cfg, [tspec for tspec, _ in targets], POLICY_NAMES):
                assert s.errors == [None] * len(POLICY_NAMES)
                outcome.append((s.sqerr.tobytes(), s.accept.tobytes(), s.oracle.values.tobytes()))
            outcomes.append(outcome)
        assert outcomes[1:] == outcomes[:1] * 2
        for (tspec, policies), shared in zip(targets, outcomes[0]):
            sqerr, accept, oracle, _ = evaluate_cell(cfg, tspec, policies)
            assert shared == (sqerr.tobytes(), accept.tobytes(), oracle.values.tobytes())

    def test_geometry_is_built_once_per_axis_value(self, monkeypatch):
        calls = {"gain_statistics": 0, "scatter_on_disk": 0, "target_second_moment": 0}
        for name in calls:
            original = getattr(evaluation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)
        cfg = ExperimentConfig(
            data_mean=1.5, noise_var=1e-12, trials=100, seed=2,
            policies=("heuristic", "optimal-equal", "benchmark", "grid-oracle"),
        )
        rows = sweep(cfg, "k", [2, 3], targets=list(TARGET_NAMES)).rows
        assert all(r.error == "" for r in rows)
        # one quadrature and one position draw (one chunk) per axis value, for all three targets;
        # each dB reference comes from the target's own moments
        assert calls == {"gain_statistics": 2, "scatter_on_disk": 2, "target_second_moment": 0}

    def test_a_failure_of_the_shared_rounds_reaches_every_row_of_its_axis_value(self, monkeypatch):
        original = evaluation.pilot_sums

        def pilot_sums(g, *args):
            if g.shape[-2] == 3:  # only at k = 3
                raise RuntimeError("boom")
            return original(g, *args)

        monkeypatch.setattr(evaluation, "pilot_sums", pilot_sums)
        cfg = ExperimentConfig(noise_var=1e-12, trials=50, seed=4)
        rows = sweep(cfg, "k", [2, 3], targets=["config-1", "config-3"]).rows
        assert len(rows) == 2 * 2 * len(cfg.policies)
        for row in rows:
            if row.axis_value == 3:
                assert math.isnan(row.mse) and row.trials_used == 0
                assert row.error == "RuntimeError: boom"
            else:
                assert math.isfinite(row.mse_db) and row.error == ""
        with pytest.raises(RuntimeError, match="boom"):
            estimate_mse(replace(cfg, k=3), "benchmark")


class TestPolicyIndependence:
    """A policy's rows do not depend on which other policies share its cell."""

    @pytest.mark.parametrize("target, data_mean", [("config-1", 0.0), ("config-3", 0.0), ("config-2", 1.5)])
    @pytest.mark.parametrize("estimator", ESTIMATOR_NAMES)
    def test_each_policy_alone_gives_the_rows_it_gives_with_the_others(self, estimator, target, data_mean):
        cfg = ExperimentConfig(
            target=target, data_mean=data_mean, noise_var=1e-11, trials=60, seed=9, estimator=estimator,
        )
        tspec = build_target(target, cfg.n)
        policies = [*POLICY_NAMES, np.linspace(1e5, 2e5, cfg.k), 1.5e5]  # a fixed unequal vector, a scalar
        sqerr, accept, oracle, errors = evaluate_cell(cfg, tspec, policies)
        assert errors == [None] * len(policies)
        assert not accept.all()  # some pilot rounds were rejected
        for i, policy in enumerate(policies):
            alone, alone_accept, alone_oracle, alone_errors = evaluate_cell(cfg, tspec, [policy])
            assert alone_errors == [None]
            assert alone[0].tobytes() == sqerr[i].tobytes(), i
            assert alone_accept[0].tobytes() == accept[i].tobytes(), i
            if alone_oracle is not None:
                assert alone_oracle.values.tobytes() == oracle.values.tobytes()


class TestGridOracleBatch:
    """Batched grid search over the shared trial set."""

    def test_result_structure(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=3, resolution=32, span=10.0)
        out = grid_oracle(cfg)
        assert isinstance(out, GridOracleResult)
        assert out.beta > 0.0
        assert out.center > 0.0
        assert out.grid.size >= 32
        assert out.values.size == out.grid.size
        assert out.mse == pytest.approx(float(np.min(out.values)), rel=1e-12)

    def test_never_worse_than_closed_form_center(self):
        cfg = ExperimentConfig(trials=2000, noise_var=1e-12, seed=3, resolution=32, span=10.0)
        out = grid_oracle(cfg)
        center_idx = int(np.argmin(np.abs(out.grid - out.center)))
        assert out.mse <= out.values[center_idx] * (1.0 + 1e-12)

    def test_deterministic(self):
        cfg = ExperimentConfig(trials=1000, noise_var=1e-12, seed=3, resolution=24, span=10.0)
        a = grid_oracle(cfg)
        b = grid_oracle(cfg)
        assert a.beta == b.beta
        assert a.mse == b.mse

    def test_every_entry_point_searches_the_config_grid(self):
        cfg = ExperimentConfig(
            trials=1000, noise_var=1e-10, seed=3, target="config-3", k=3, resolution=16, span=1.001,
            policies=("grid-oracle",),
        )
        out = grid_oracle(cfg)
        assert out.grid.size == 17  # 16 points and the inserted center
        assert out.grid.max() == pytest.approx(out.center * 1.001, rel=1e-12)
        est = estimate_mse(cfg, "grid-oracle")
        assert est.mse == pytest.approx(out.mse, rel=1e-12)
        gap = compare_policies(cfg, "grid-oracle", "zero")
        assert gap.gap_db == pytest.approx(10.0 * math.log10(est.mse / estimate_mse(cfg, "zero").mse), rel=1e-12)
        [row] = sweep(replace(cfg, k=2), "k", [3]).rows
        assert row.mse == est.mse
        assert estimate_mse(replace(cfg, resolution=64, span=100.0), "grid-oracle").mse != est.mse

    def test_keyword_grid_replaces_the_config_grid(self):
        cfg = ExperimentConfig(trials=500, noise_var=1e-12, seed=3)
        a = grid_oracle(cfg, resolution=20, span=2.0)
        b = grid_oracle(replace(cfg, resolution=20, span=2.0))
        assert (a.beta, a.mse) == (b.beta, b.mse)
        np.testing.assert_array_equal(a.grid, b.grid)
        with pytest.raises(ValueError, match="span must be finite"):
            grid_oracle(cfg, span=math.inf)

    def test_degenerate_center_raises(self):
        cfg = ExperimentConfig(data_var=0.0, data_mean=0.0, trials=100)
        with pytest.raises(ValueError):
            grid_oracle(cfg)

    def test_degenerate_center_raises_through_estimate_mse(self):
        cfg = ExperimentConfig(target="config-2", trials=100)
        with pytest.raises(ValueError, match="center must be positive"):
            estimate_mse(cfg, "grid-oracle")
        with pytest.raises(ValueError, match="center must be positive"):
            compare_policies(cfg, "benchmark", "grid-oracle")


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

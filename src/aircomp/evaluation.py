"""Monte Carlo evaluation of combining policies.

A *trial* is one full protocol round: deploy (or reuse) a sensor layout,
fly the pilot and data flyovers, form the estimate under a policy, and
record the squared error against the realized target.  Cells of many
trials are simulated in vectorized chunks; every policy evaluated at the
same configuration sees the same deployments, readings, and noise
(common random numbers), which makes policy gaps directly comparable.
A chunk runs the array forms of the same protocol steps that
:func:`run_trial` takes one round at a time: both draw their gains
through one step and resolve a policy through one table.

A cell is one sequence of rounds.  Its randomness comes from four
generators spawned once from ``numpy.random.SeedSequence((seed, n, k))``,
for positions, pilot noise, readings, and data-flyover noise, and every
chunk keeps drawing from them.  Each round takes its draws in order and
reduces on its own, so results are reproducible bit-for-bit for a fixed
configuration and do not depend on the chunk size, which bounds memory
only.  The streams do not depend on the target, so a sweep's targets at
one axis value share one cell: one draw, one gain build and pilot sum
per chunk and one disk quadrature, each target scored on them, and a
target's rows are those of a cell of that target alone.

The ``estimator`` of a configuration sets what a trial records.
``"plain"`` records the squared error of the realized round.
``"conditional"``, the default, draws only positions and pilot noise and
records the exact mean square error given them (see
:class:`~aircomp.nomographic.DataMoments`): readings and data-flyover
noise are integrated in closed form, so the per-trial variance is far
smaller while the mean is the same.  Each estimator scores every equal
coefficient, a rule's or the grid search's, by one formula.  Acceptance
depends on the pilot only, so both estimators accept the same trials.
:func:`run_trial` on the cell's seed sequence is the first round of a
plain cell.

MSE values quoted in dB are normalized by the analytic second moment of
the target, ``10 * log10(mse / E[target**2])``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelParams, GainMatrix, gain_amplitude
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
from .nomographic import DataMoments, TargetSpec, target_second_moment, target_value, target_values
from .protocol import (
    BetaVector,
    combine,
    computation_phase,
    estimate,
    pilot_sums,
    sampling_phase,
    sensor_readings,
    stop_aggregates,
)
from .rng import make_rng, spawn_seeds

TARGET_NAMES = ("config-1", "config-2", "config-3")
ESTIMATOR_NAMES = ("conditional", "plain")

# a cell's streams, in a fixed order
_S_POSITIONS, _S_PILOT, _S_DATA, _S_FLYOVER = range(4)

# what a failing policy or cell raises; a sweep records it in the row instead of stopping
_FAILURES = (ValueError, RuntimeError, ArithmeticError)


class EstimationError(RuntimeError):
    """Raised when a cell produces no usable trials (all rounds rejected)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulated operating point.

    Defaults are the reference network: 20 sensors on a 10 m disk, a
    5-stop diameter flight at 50 m altitude, 1 W illumination (30 dBm),
    receiver noise variance 1e-10 (-70 dBm), reflection 0.99, and
    ``g0 = 0.0275`` (868 MHz).  ``data_mean``/``data_var`` describe the
    Gaussian sensor readings.  ``resolution`` and ``span`` are the
    ``grid-oracle`` policy's search grid: that many log-spaced points
    covering ``[center / span, center * span]`` around the closed-form
    coefficient.  With ``redeploy_per_trial`` set, every trial scatters
    a fresh layout; otherwise one seeded layout is reused and the Monte
    Carlo MSE is conditional on it.

    ``estimator`` is what each trial records.  ``"conditional"`` (the
    default) samples positions and pilot noise and records the exact MSE
    given them, integrating readings and data-flyover noise in closed
    form; ``"plain"`` samples those too and records the realized squared
    error.  Both have the same mean and accept the same trials; the
    conditional one reaches a given standard error with far fewer.
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
    resolution: int = 64
    span: float = 100.0
    trials: int = 10000
    seed: int = 1
    redeploy_per_trial: bool = True
    estimator: str = "conditional"

    def __post_init__(self):
        for name in ("n", "k", "trials", "resolution", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be >= 1, got n={self.n}, k={self.k}")
        for name in ("r_cov", "h", "p_watts", "noise_var", "zeta", "g0", "data_mean", "data_var", "span"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("r_cov", "h", "p_watts", "zeta", "g0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(4.0 * self.r_cov * self.r_cov + self.h * self.h):  # the farthest squared range
            raise ValueError(f"(2 * r_cov)**2 + h**2 must be finite, got r_cov={self.r_cov}, h={self.h}")
        if self.zeta > 1.0:
            raise ValueError(f"zeta must lie in (0, 1], got {self.zeta}")
        if self.noise_var < 0.0 or self.data_var < 0.0:
            raise ValueError("noise_var and data_var must be non-negative")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.resolution < 16:
            raise ValueError(f"resolution must be >= 16, got {self.resolution}")
        if not self.span > 1.0:
            raise ValueError(f"span must be > 1, got {self.span}")
        if isinstance(self.target, str) and self.target not in TARGET_NAMES:
            raise ValueError(f"unknown target {self.target!r}; choose from {TARGET_NAMES}")
        if self.estimator not in ESTIMATOR_NAMES:
            raise ValueError(f"unknown estimator {self.estimator!r}; choose from {ESTIMATOR_NAMES}")
        object.__setattr__(self, "policies", tuple(self.policies))
        names = [p for p in self.policies if isinstance(p, str)]
        for i, p in enumerate(names):
            if p not in POLICY_NAMES:
                raise ValueError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")
            if p in names[:i]:
                raise ValueError(f"policy {p!r} is given twice")


def _is_integer(value) -> bool:
    """A Python or numpy integer; ``bool`` does not count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def axis_values(values) -> tuple[int, ...]:
    """Sweep axis values, checked to be strictly ascending positive integers."""
    vals = tuple(values)
    positive = bool(vals) and all(_is_integer(v) and v >= 1 for v in vals)
    if not positive or any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("axis values must be strictly ascending positive integers")
    return tuple(int(v) for v in vals)


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
    error: str = ""  # why the row failed, "ExceptionClass: message"; empty if it ran


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
    A named spec is frozen, so the specs of the 4 ``(name, n)`` used
    last are kept and returned again, each with its memoized data
    moments (see :meth:`~aircomp.nomographic.DataMoments.of`).
    """
    if isinstance(target, TargetSpec):
        if target.n != n:
            raise ValueError(f"target spec is for {target.n} sensors, expected {n}")
        return target
    if not (isinstance(target, str) and target in TARGET_NAMES):
        raise ValueError(f"unknown target {target!r}; choose from {TARGET_NAMES}")
    return _named_target(target, n)


@lru_cache(maxsize=4, typed=True)
def _named_target(name: str, n: int) -> TargetSpec:
    if name == "config-1":
        return TargetSpec(np.ones(n), np.ones(n, dtype=int))
    if name == "config-2":
        return TargetSpec(np.ones(n), np.full(n, 2))
    return TargetSpec(np.arange(1, n + 1, dtype=float), np.full(n, 3))


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
    # bounded working set: a chunk's one (chunk, k, n) gain buffer, the cell's only
    # array of that size, stays within 4e6 floats (32 MB) whenever n * k does
    return max(1, min(16384, 4_000_000 // (n * k)))


def _policy_label(policy) -> str:
    return policy if isinstance(policy, str) else "fixed"


@lru_cache(maxsize=4)
def _flight_plan(k: int, r_cov: float, h: float):
    """The diameter plan of an operating point; a :class:`Trajectory` is frozen, so one serves every round."""
    return plan_diameter_trajectory(k, r_cov, h)


class _Geometry:
    """The target-free inputs of one operating point: flight plan, channel, gain statistics and gains.

    A cell's streams are keyed on ``(seed, n, k)``, not on its target, so
    every target at one operating point shares these.  Quantities only
    some policies need are computed on first use.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.params = ChannelParams(g0=config.g0, tx_power_w=config.p_watts)
        self.traj = _flight_plan(config.k, config.r_cov, config.h)

    @property
    def stats(self):
        """The disk quadrature's gain statistics; a quadrature that fails is run once.

        Each later read raises a fresh copy of the recorded failure, chained
        to it, so no reader's traceback collects another reader's frames.
        """
        stats, error = self._stats
        if error is not None:
            raise type(error)(*error.args) from error
        return stats

    @cached_property
    def _stats(self):
        try:
            return gain_statistics(self.traj, self.config.r_cov, self.params, self.config.zeta), None
        except _FAILURES as exc:
            return None, exc

    def gains(self, positions, out: np.ndarray) -> np.ndarray:
        """Read-only effective gains ``(size, k, n)`` of the next ``size = len(out)`` rounds' deployments.

        Redeployed gains are drawn from ``positions``, a Generator or a
        SeedSequence, and built in place in ``out``.  A fixed layout, which
        every round sees, is :func:`fixed_deployment`'s: drawn into ``out[0]``
        from the cell's seed sequence, leaving ``positions`` undrawn.
        """
        c = self.config
        shape = out.shape
        if not c.redeploy_per_trial:
            positions, out = np.random.SeedSequence((c.seed, c.n, c.k)), out[:1]
        x, y = scatter_on_disk(make_rng(positions), c.r_cov, (len(out), c.n))
        d2 = squared_ranges(x, y, self.traj, out=out)
        return np.broadcast_to(np.divide(gain_amplitude(c.zeta, self.params), d2, out=d2), shape)


class _Target:
    """One target on a geometry: its data moments and its closed-form equal coefficient.

    The moments' ``target_second_moment`` is the target's dB reference.
    Quantities only some policies need are computed on first use.
    """

    def __init__(self, geometry: _Geometry, tspec: TargetSpec):
        self.geometry = geometry
        self.config = geometry.config
        self.tspec = tspec

    @cached_property
    def moments(self) -> DataMoments:
        c = self.config
        return DataMoments.of(self.tspec, c.data_mean, c.data_var)

    @cached_property
    def equal_optimal(self) -> float:
        """The closed-form equal coefficient: the ``optimal-equal`` policy and the grid oracle's centre."""
        c = self.config
        return beta_equal_optimal(self.tspec, self.geometry.stats, c.data_mean, c.data_var, c.noise_var)


@dataclass(frozen=True)
class _Rule:
    """A policy resolved for one target at one operating point.

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


def _heuristic(target: _Target) -> _Rule:
    c = target.config
    return _Rule(
        lambda alpha: beta_heuristic(alpha, target.tspec, c.data_mean, c.data_var, c.noise_var, c.n).beta,
        per_stop=True,
        pilot=True,
    )


def _heuristic_equal(target: _Target) -> _Rule:
    c = target.config
    return _Rule(
        lambda alpha: beta_heuristic_equal(alpha, target.tspec, c.data_mean, c.data_var, c.noise_var, c.n),
        pilot=True,
    )


def _benchmark(target: _Target) -> _Rule:
    geometry, c = target.geometry, target.config
    return _constant(float(beta_benchmark(geometry.traj, geometry.params, c.zeta, c.n).beta[0]))


_POLICIES = {
    "heuristic": _heuristic,
    "heuristic-equal": _heuristic_equal,
    "optimal-equal": lambda target: _constant(target.equal_optimal),
    "benchmark": _benchmark,
    "grid-oracle": lambda target: _Rule(None),
    "zero": lambda target: _constant(0.0),
}
POLICY_NAMES = tuple(_POLICIES)


def _resolve(policy, target: _Target) -> _Rule:
    """Look a policy name up in the table, or wrap a fixed scalar or per-stop vector."""
    if isinstance(policy, str):
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")
        return _POLICIES[policy](target)
    if isinstance(policy, (BetaVector, np.ndarray)):
        beta = policy.beta if isinstance(policy, BetaVector) else np.asarray(policy, float)
        if beta.shape != (target.config.k,):
            raise ValueError(f"fixed beta must have {target.config.k} entries, got shape {beta.shape}")
        if np.all(beta == beta[0]):
            return _constant(float(beta[0]))  # an equal vector is the scalar policy
        return _Rule(lambda alpha: beta, per_stop=True)
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        return _constant(float(policy))
    raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_NAMES}")


class _PlainRounds:
    """A chunk's rounds played out once for every target: readings and data-flyover noise drawn."""

    def __init__(self, geometry: _Geometry, g, rngs):
        c = geometry.config
        self.data = sensor_readings(c.data_mean, c.data_var, rngs[_S_DATA], (len(g), c.n))
        self.dbar = stop_aggregates(g, self.data, c.noise_var, rngs[_S_FLYOVER])
        self._values = {}

    def values(self, target: _Target):
        """The target on each round's readings, evaluated once per chunk."""
        if target not in self._values:
            self._values[target] = target_values(target.tspec, self.data)
        return self._values[target]

    def errors(self, target: _Target, beta):
        """Squared errors ``(S,)`` under per-stop coefficients ``(S, k)``."""
        return (combine(self.dbar, beta, per_stop=True) - self.values(target)) ** 2

    def equal_columns(self, target: _Target):
        """What an equal coefficient ``b`` needs of each round: its aggregate sum and its target."""
        return self.dbar.sum(axis=-1), self.values(target)

    @staticmethod
    def equal_errors(columns, target: _Target, b):
        """Squared errors under an equal coefficient ``b``, a scalar or one per round."""
        agg_sum, values = columns
        return (b * agg_sum - values) ** 2

    @classmethod
    def objective(cls, columns, target: _Target):
        """The grid search's objective: the mean of the per-round errors."""
        return lambda b: float(np.mean(cls.equal_errors(columns, target, b)))


class _ConditionalRounds:
    """A chunk's rounds scored by ``E[err**2 | gains, pilot]``; readings and data-flyover noise are never drawn."""

    def __init__(self, geometry: _Geometry, g, rngs):
        self.config = geometry.config
        self.g = g

    @cached_property
    def g_sum(self):
        """Each round's gains summed over stops ``(S, n)``, shared by every target's equal coefficients."""
        return np.einsum("...kn->...n", self.g)  # over stops, far faster than sum(axis=1) for small n

    def errors(self, target: _Target, beta):
        """Exact conditional MSEs ``(S,)`` under per-stop coefficients ``(S, k)``."""
        t = np.einsum("...k,...kn->...n", beta, self.g)
        return target.moments.mse(t, self.config.noise_var * np.einsum("...k,...k->...", beta, beta))

    def equal_columns(self, target: _Target):
        """Each round's ``(A, B)``: an equal coefficient ``b`` scores ``A b**2 - 2 B b + C``."""
        c = self.config
        return target.moments.equal_quadratic(self.g_sum, c.k * c.noise_var)

    @staticmethod
    def equal_errors(columns, target: _Target, b):
        """Exact conditional MSEs under an equal coefficient ``b``, a scalar or one per round."""
        quad, lin = columns
        out = quad * (b * b) - 2.0 * b * lin + target.moments.target_second_moment
        return np.maximum(out, 0.0)  # rounding can take a near-zero quadratic slightly below zero

    @classmethod
    def objective(cls, columns, target: _Target):
        """The grid search's objective: the exact quadratic at the mean columns."""
        means = [float(np.mean(column)) for column in columns]
        return lambda b: float(cls.equal_errors(means, target, b))


_ROUNDS = {"plain": _PlainRounds, "conditional": _ConditionalRounds}


class _Scores:
    """One target's policies scored on a cell's rounds, and the one record of their failures.

    ``sqerr`` and ``accept`` hold per-trial errors (squared errors, or
    their conditional means; see ``ExperimentConfig.estimator``) and
    acceptance flags, one row per policy.  Per-stop coefficients are
    scored by the rounds' ``errors``; every equal coefficient, a rule's or
    the grid search's, by their one ``equal_errors`` on the target's equal
    columns, formed at most once per chunk.  ``oracle`` is the grid search
    if a policy is ``grid-oracle`` (else ``None``); ``errors`` holds per
    policy the exception that stopped it (else ``None``), and a failed
    policy's rows are meaningless.  A target that cannot be built from
    its selector stops every policy; a rule that cannot be built (a
    fixed vector of the wrong length, a disk quadrature that does not
    converge) or that raises, and a grid search that raises, stop theirs.
    """

    def __init__(self, geometry: _Geometry, target, policies):
        trials = geometry.config.trials
        self.sqerr = np.empty((len(policies), trials))
        self.accept = np.ones((len(policies), trials), dtype=bool)
        self.oracle = None
        self.errors = [None] * len(policies)
        self.rules = [None] * len(policies)
        try:
            self.target = _Target(geometry, build_target(target, geometry.config.n))
        except _FAILURES as exc:  # the target's own failure
            self.errors = [exc] * len(policies)
            return
        for i, policy in enumerate(policies):
            try:
                self.rules[i] = _resolve(policy, self.target)
            except _FAILURES as exc:  # the rule's own failure
                self.errors[i] = exc
        self._oracle_rows = [i for i, rule in enumerate(self.rules) if rule and rule.coefficients is None]
        self._columns = np.empty((2, trials)) if self._oracle_rows else None

    def add(self, rounds, alpha, lo: int, hi: int) -> None:
        """Score every running rule on the chunk of rounds ``[lo, hi)`` with pilot sums ``alpha``."""
        columns = None
        for i, rule in enumerate(self.rules):
            if self.errors[i] is not None or rule.coefficients is None:
                continue
            try:
                beta, ok = rule.batch(alpha)
            except _FAILURES as exc:
                self.errors[i] = exc
                continue
            if ok is not None:
                self.accept[i, lo:hi] = ok
            if rule.per_stop:
                self.sqerr[i, lo:hi] = rounds.errors(self.target, beta)
            else:
                columns = columns or rounds.equal_columns(self.target)
                self.sqerr[i, lo:hi] = rounds.equal_errors(columns, self.target, beta)
        if self._oracle_rows:
            self._columns[:, lo:hi] = columns or rounds.equal_columns(self.target)

    def search(self, rounds) -> None:
        """The grid search on the kept equal columns, scored by the estimator's ``equal_errors``."""
        rows = [i for i in self._oracle_rows if self.errors[i] is None]
        if not rows:
            return
        c = self.target.config
        record = []

        def recorded(b):
            val = objective(b)
            record.append((b, val))
            return val

        try:
            objective = rounds.objective(self._columns, self.target)
            center = self.target.equal_optimal
            beta, mse = beta_grid_oracle(recorded, center, resolution=c.resolution, span=c.span)
            self.sqerr[rows] = rounds.equal_errors(self._columns, self.target, beta)
        except _FAILURES as exc:
            for i in rows:
                self.errors[i] = exc
            return
        points, values = (np.array(column) for column in zip(*record))
        self.oracle = GridOracleResult(beta=beta, mse=mse, center=center, grid=points, values=values)


def _evaluate_cell(config: ExperimentConfig, targets, policies) -> list[_Scores]:
    """Simulate one cell and score every target selector's ``policies`` on the same trials.

    Positions, gains and pilot sums do not depend on the target, nor on
    ``plain`` do the readings, the flyover noise and the aggregates, so
    the chunk loop draws and builds them once per chunk and scores every
    target on them: a target's scores are those of a cell of that target
    alone, bit for bit.  Returns one :class:`_Scores` per target; a
    failure of the shared chunk loop (the draws, the gain build or the
    pilot sums) is recorded there on every policy still running.
    """
    geometry = _Geometry(config)
    rounds = _ROUNDS[config.estimator]
    scores = [_Scores(geometry, target, policies) for target in targets]
    live = [s for s in scores if None in s.errors]
    if not live:
        return scores

    rngs = [make_rng(s) for s in spawn_seeds((config.seed, config.n, config.k), 4)]
    chunk = _chunk_size(config.n, config.k)
    # the cell's one (chunk, k, n) array: each chunk's gains are built in it, and it
    # goes with the cell, not with the scores it returns
    buffer = np.empty((min(chunk, config.trials), config.k, config.n))
    try:
        for lo in range(0, config.trials, chunk):
            hi = min(config.trials, lo + chunk)
            # the steps of run_trial, on the next chunk of rounds
            g = geometry.gains(rngs[_S_POSITIONS], buffer[: hi - lo])
            alpha = pilot_sums(g, config.noise_var, rngs[_S_PILOT])
            batch = rounds(geometry, g, rngs)
            for s in live:
                s.add(batch, alpha, lo, hi)
            del batch  # its shared arrays go before the next chunk's gains are built
    except _FAILURES as exc:  # the shared rounds failed, so every running policy did
        for s in live:
            s.errors = [exc if error is None else error for error in s.errors]
    for s in live:
        s.search(rounds)
    return scores


def _evaluate_target(config: ExperimentConfig, policies) -> _Scores:
    """:func:`_evaluate_cell` on the config's own target alone, raising the first policy failure."""
    [scores] = _evaluate_cell(config, [config.target], policies)
    for error in scores.errors:
        if error is not None:
            raise error
    return scores


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

    Deterministic in ``(config, policy, trial_seed)``.  The round takes
    its gains from the cell's gain step on a one-round buffer and runs
    the engine's arithmetic on the engine's draws, so on a cell's seed
    sequence, ``np.random.SeedSequence((seed, n, k))``, it reproduces the
    first trial of a plain cell (``estimator="plain"``) bit for bit,
    whatever its trial count; ``config.estimator`` is not read.  Raises
    :class:`~aircomp.estimator.SamplingRejectedError` when a pilot-using
    policy sees a non-positive measurement.  The ``grid-oracle`` policy
    needs a batch of trials and is rejected here.
    """
    tspec = build_target(config.target, config.n)
    geometry = _Geometry(config)
    rule = _resolve(policy, _Target(geometry, tspec))
    if rule.coefficients is None:
        raise ValueError("grid-oracle needs a trial batch; use estimate_mse or grid_oracle")
    streams = spawn_seeds(trial_seed, 4)

    gains = GainMatrix(geometry.gains(streams[_S_POSITIONS], np.empty((1, config.k, config.n)))[0])
    pilots = sampling_phase(gains, config.noise_var, streams[_S_PILOT])
    data = sensor_readings(config.data_mean, config.data_var, streams[_S_DATA], config.n)
    aggregates = computation_phase(gains, data, config.noise_var, streams[_S_FLYOVER])

    err = estimate(aggregates, rule.coefficients(pilots.alpha)) - target_value(tspec, data)
    return err * err


def estimate_mse(config: ExperimentConfig, policy) -> PolicyEstimate:
    """Monte Carlo MSE of one policy over ``config.trials`` rounds.

    Trials whose pilot flyover produced a non-positive measurement are
    excluded and counted for pilot-using policies.  Raises
    :class:`EstimationError` if nothing survives.
    """
    scores = _evaluate_target(config, [policy])
    return _summarize(scores.sqerr[0], scores.accept[0], policy)


def compare_policies(config: ExperimentConfig, policy_a, policy_b) -> GapEstimate:
    """Paired dB gap ``10*log10(mse_a / mse_b)`` on common random numbers.

    Only trials accepted by both policies enter, and the standard error
    accounts for the covariance the shared randomness induces.
    """
    scores = _evaluate_target(config, [policy_a, policy_b])
    sqerr, accept = scores.sqerr, scores.accept
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
        targets: target selectors (defaults to ``[config.target]``); a
            name given twice raises ``ValueError``.  Rows carry a named
            target's name, and a :class:`TargetSpec` at 1-based position
            ``i`` of ``targets`` as ``custom-<i>``.

    The targets at one axis value share one cell: one draw of positions
    and pilot noise, one gain build and one disk quadrature, each target
    scored on them (see :func:`_evaluate_cell`), so every row equals the
    row of a sweep of its target alone.

    A failure is recorded instead of aborting the sweep: each row it
    reaches gets NaN statistics, zero trials and the exception in
    ``error``; each cell's failures are read from its :class:`_Scores`.
    A policy's own failure reaches only its row: all its trials rejected,
    its rule or grid search raising, or a rule that cannot be built (a
    fixed vector of the wrong length, or ``optimal-equal`` and
    ``grid-oracle`` when the disk quadrature does not converge).  A
    target's own one, such as a spec of the wrong length or an unusable
    dB reference, reaches every row of that target; and a failure of the
    chunk loop the targets share (the draws, the gain build and the pilot
    sums) reaches every row of the axis value that had not failed yet.
    """
    axis = axis.lower()
    if axis not in ("k", "n"):
        raise ValueError(f"axis must be 'k' or 'n', got {axis!r}")
    vals = axis_values(values)
    if targets is None:
        targets = [config.target]
    names = [t for t in targets if isinstance(t, str)]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"target {name!r} is given twice")

    rows: list[SweepRow] = []
    for value in vals:
        cell = _evaluate_cell(replace(config, **{axis: value}), targets, config.policies)
        for position, (target, scores) in enumerate(zip(targets, cell), 1):
            label = target if isinstance(target, str) else f"custom-{position}"
            for i, policy in enumerate(config.policies):
                if scores.errors[i] is None:
                    try:
                        est = _summarize(scores.sqerr[i], scores.accept[i], policy)
                        mse_db = to_db(est.mse, scores.target.moments.target_second_moment)
                    except _FAILURES as exc:
                        scores.errors[i] = exc
                error = scores.errors[i]
                if error is None:
                    row = SweepRow(value, label, est.policy, est.mse, est.std_err, mse_db, est.trials_used)
                else:
                    row = SweepRow(value, label, _policy_label(policy), math.nan, math.nan, math.nan, 0,
                                   f"{type(error).__name__}: {error}")
                rows.append(row)
    return ExperimentResult(axis=axis, rows=tuple(rows))


def grid_oracle(
    config: ExperimentConfig, *, resolution: int | None = None, span: float | None = None
) -> GridOracleResult:
    """Equal-coefficient grid search on one simulated cell.

    The grid is the config's (``resolution`` points spanning a factor
    ``span`` either side), centered on the closed-form coefficient, and
    every grid point is scored on the same batch of trials, so the
    minimizer is directly comparable with the closed-form policies.
    ``resolution`` and ``span``, if given, replace the config's:
    ``grid_oracle(config, span=10.0)`` is
    ``grid_oracle(replace(config, span=10.0))``.
    """
    grid = {"resolution": resolution, "span": span}
    config = replace(config, **{key: value for key, value in grid.items() if value is not None})
    return _evaluate_target(config, ["grid-oracle"]).oracle

"""The two-phase sense-then-combine protocol.

Each round the UAV first flies the stop plan and measures, per stop, the
sum of effective gains plus receiver noise (the pilot flyover).  On the
second flyover every sensor backscatters its reading simultaneously, so
stop ``k`` yields ``sum_i g_i(k) * d_i + n_k``.  The UAV then forms a
scalar estimate as a weighted sum of the per-stop aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GainMatrix
from .geometry import SensorField, frozen_array
from .rng import make_rng


@dataclass(frozen=True)
class SumGainSamples:
    """Pilot-flyover measurements: per-stop sums of effective gains plus noise, finite and read-only."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", frozen_array(self.alpha, "alpha", 1))

    @property
    def k(self) -> int:
        return self.alpha.size


@dataclass(frozen=True)
class AggregateSamples:
    """Data-flyover measurements: per-stop gain-weighted data sums plus noise, finite and read-only."""

    dbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dbar", frozen_array(self.dbar, "dbar", 1))

    @property
    def k(self) -> int:
        return self.dbar.size


@dataclass(frozen=True)
class BetaVector:
    """Non-negative, finite combining coefficients, one per stop.

    Leading axes, if any, index rounds: a batch of per-stop vectors; a
    scalar is one stop's coefficient.  ``beta`` is a read-only float64 copy.
    """

    beta: np.ndarray

    def __post_init__(self):
        beta = frozen_array(self.beta, "beta", None)
        if beta.ndim == 0:
            beta = beta.reshape(1)
        if not (beta >= 0.0).all():
            raise ValueError("combining coefficients must be non-negative")
        object.__setattr__(self, "beta", beta)

    @property
    def k(self) -> int:
        return self.beta.shape[-1]


def sampling_phase(gains: GainMatrix, noise_var: float, seed=None) -> SumGainSamples:
    """Pilot flyover: per-stop row sums of the gain matrix plus Gaussian noise.

    Args:
        gains: per-link gains for the deployment under flight.
        noise_var: receiver noise variance; 0 gives exact row sums.
        seed: int or SeedSequence for the noise stream.
    """
    if not noise_var >= 0.0:
        raise ValueError(f"noise_var must be non-negative, got {noise_var}")
    return SumGainSamples(alpha=pilot_sums(gains.g, noise_var, seed))


def computation_phase(gains: GainMatrix, data, noise_var: float, seed=None) -> AggregateSamples:
    """Data flyover: per-stop gain-weighted sums of readings plus noise.

    The noise stream is independent of the pilot flyover's whenever the
    two calls receive distinct seeds (see ``rng.spawn_seeds``).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (gains.n,):
        raise ValueError(f"data must have shape ({gains.n},), got {data.shape}")
    if not noise_var >= 0.0:
        raise ValueError(f"noise_var must be non-negative, got {noise_var}")
    return AggregateSamples(dbar=stop_aggregates(gains.g, data, noise_var, seed))


def estimate(samples: AggregateSamples, beta) -> float:
    """Combine per-stop aggregates into the scalar estimate.

    ``beta`` is a :class:`BetaVector` or a ``(k,)`` array, giving
    ``sum_k beta_k * dbar_k``, or a scalar equal coefficient ``b``,
    giving ``b * sum_k dbar_k``.
    """
    coef = beta.beta if isinstance(beta, BetaVector) else np.asarray(beta, dtype=np.float64)
    per_stop = coef.ndim > 0
    if per_stop and coef.shape != (samples.k,):
        raise ValueError(f"beta has shape {coef.shape} but samples have {samples.k} stops")
    return float(combine(samples.dbar, coef, per_stop))


def draw_sensor_data(field: SensorField, seed=None) -> np.ndarray:
    """Draw one reading per sensor from its Gaussian source.

    Zero-variance sensors report their mean exactly.
    """
    return sensor_readings(field.data_mean, field.data_var, seed, field.n)


# Array forms of the protocol steps.  Leading axes index rounds, so the
# Monte Carlo engine runs a batch of rounds through the same arithmetic
# as one round through the functions above.  Gains are stop-major,
# ``(..., k, n)``, as in :class:`~aircomp.channel.GainMatrix`: each
# stop's sum over sensors runs along a contiguous row.


def pilot_sums(g, noise_var: float, seed=None) -> np.ndarray:
    """Per-stop sums ``(..., k)`` of gains ``(..., k, n)`` plus receiver noise."""
    return _add_noise(g.sum(axis=-1), noise_var, seed)


def stop_aggregates(g, data, noise_var: float, seed=None) -> np.ndarray:
    """Per-stop sums ``(..., k)`` of readings ``(..., n)`` weighted by gains ``(..., k, n)``, plus noise."""
    return _add_noise(np.einsum("...kn,...n->...k", g, data), noise_var, seed)


def sensor_readings(data_mean, data_var, seed, shape) -> np.ndarray:
    """Gaussian readings of ``shape``, whose last axis indexes sensors."""
    readings = make_rng(seed).standard_normal(shape)
    readings *= np.sqrt(data_var)
    readings += data_mean
    return readings


def combine(dbar, beta, per_stop: bool) -> np.ndarray:
    """Estimates ``(...)`` from aggregates ``(..., k)``.

    Per-stop coefficients ``(..., k)`` weight each stop; otherwise
    ``beta`` (a scalar or one value per round) scales the aggregate sum.
    """
    if per_stop:
        return np.einsum("...k,...k->...", beta, dbar)
    return beta * dbar.sum(axis=-1)


def _add_noise(x, noise_var: float, seed):
    if noise_var > 0.0:
        noise = make_rng(seed).standard_normal(x.shape)
        noise *= math.sqrt(noise_var)
        x += noise
    return x

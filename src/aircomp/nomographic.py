"""Weighted power-sum targets and Gaussian moment machinery.

The network computes targets of the form ``sum_i w_i * d_i**v_i`` for
positive weights and integer exponents.  Closed-form design of the
combining coefficients needs raw moments ``E[d**v]`` of the Gaussian
data sources, obtained here by the stable two-term recursion
``m_v = mu * m_{v-1} + (v - 1) * var * m_{v-2}``.  :class:`DataMoments`
derives from them the target mean, ``E[target**2]``, the sum-target
cross moment and the exact error given each sensor's total gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import frozen_array


@dataclass(frozen=True)
class TargetSpec:
    """A weighted power-sum target ``sum_i weights[i] * d_i**exponents[i]``.

    Attributes:
        weights: ``(n,)`` positive, finite weights, a read-only float64 copy.
        exponents: ``(n,)`` integer exponents, each ``>= 1``.

    A spec also holds the last :meth:`DataMoments.of` derived for it.
    """

    weights: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        w = frozen_array(self.weights, "weights", 1)
        v = np.asarray(self.exponents)
        if v.shape != w.shape:
            raise ValueError(f"exponents shape {v.shape} must match weights shape {w.shape}")
        if not (w > 0.0).all():
            raise ValueError("weights must be positive")
        if not np.all(v == np.floor(v)) or np.any(v < 1):
            raise ValueError("exponents must be integers >= 1")
        v = v.astype(np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "exponents", v)

    @property
    def n(self) -> int:
        return self.weights.size


def target_value(spec: TargetSpec, data) -> float:
    """Evaluate the target on one vector of sensor readings."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape != spec.weights.shape:
        raise ValueError(f"data shape {data.shape} must match spec shape {spec.weights.shape}")
    return float(target_values(spec, data))


def target_values(spec: TargetSpec, data) -> np.ndarray:
    """The target on readings ``(..., n)``; leading axes index rounds.

    Each round is reduced on its own, so its value does not depend on
    how many rounds share the batch (a matmul would round a batch row
    differently from a lone row).  A single exponent, the case of every
    built-in target, is formed by products, far faster than ``data**v``
    with an integer array; exponent 1 uses the readings as they are.
    Mixed exponents take ``data**v``.
    """
    v = spec.exponents
    if (v == v[0]).all():
        powered = _power(data, int(v[0]))
    else:
        powered = data**v
    return np.einsum("...n,n->...", powered, spec.weights)


def _power(x, e: int):
    """``x**e`` for an integer ``e >= 1`` by repeated squaring; ``x*x*x`` for ``e = 3``."""
    result = None
    while True:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if not e:
            return result
        x = x * x


def gaussian_raw_moment(mu, var, v):
    """Raw moment ``E[d**v]`` of ``d ~ Normal(mu, var)``.

    ``mu`` and ``var`` may be scalars or arrays (broadcast together);
    ``v`` may be a scalar or an array of the same broadcast shape.  The
    recursion is exact for every non-negative integer order, including
    the degenerate ``var = 0`` case where it returns ``mu**v``.

    Raises:
        ValueError: if ``var < 0`` or ``v`` is negative or non-integral.
    """
    mu_arr = np.asarray(mu, dtype=np.float64)
    var_arr = np.asarray(var, dtype=np.float64)
    if not (var_arr >= 0.0).all():
        raise ValueError("var must be non-negative")
    v_arr = np.asarray(v)
    if not np.all(v_arr == np.floor(v_arr)) or np.any(v_arr < 0):
        raise ValueError("moment order must be a non-negative integer")
    v_arr = v_arr.astype(np.int64)

    shape = np.broadcast_shapes(mu_arr.shape, var_arr.shape, v_arr.shape)
    mu_b = np.broadcast_to(mu_arr, shape).astype(np.float64)
    var_b = np.broadcast_to(var_arr, shape).astype(np.float64)
    v_b = np.broadcast_to(v_arr, shape)

    v_max = int(v_b.max()) if v_b.size else 0
    prev2 = np.ones(shape)
    prev1 = mu_b.copy()
    out = np.where(v_b == 0, prev2, prev1)
    for order in range(2, v_max + 1):
        prev2, prev1 = prev1, mu_b * prev1 + (order - 1) * var_b * prev2
        out = np.where(v_b == order, prev1, out)
    if np.isscalar(mu) and np.isscalar(var) and np.isscalar(v):
        return float(out)
    return out


def gaussian_power_variance(mu, var, v):
    """Variance of ``d**v`` for ``d ~ Normal(mu, var)``: ``E[d**(2v)] - E[d**v]**2``."""
    v_arr = np.asarray(v)
    m_v = gaussian_raw_moment(mu, var, v)
    m_2v = gaussian_raw_moment(mu, var, 2 * v_arr if v_arr.ndim else 2 * v)
    out = np.asarray(m_2v) - np.asarray(m_v) ** 2
    if np.isscalar(mu) and np.isscalar(var) and np.isscalar(v):
        return float(out)
    return out


@dataclass(frozen=True)
class DataMoments:
    """The data moments of the exact error, for one target and data law.

    With ``T_i`` the total combined gain applied to sensor ``i``, the
    error is ``sum_i (T_i d_i - w_i d_i**v_i)`` plus the combined noise,
    and with sensors independent its mean square given ``T`` is

    ``sum_i var_i (T_i - tau_i)**2 + residual + (T . mu - target_mean)**2 + noise``.

    ``tau_i = w_i v_i E[d_i**(v_i-1)]`` is the gain that best matches the
    target term linearly, ``Cov(d, d**v) = var v E[d**(v-1)]`` (Stein's
    lemma), and ``residual`` is what no gain reaches, the rest of
    ``sum_i w_i**2 Var(d_i**v_i)``: its Hermite terms
    ``var**j / j! * (v! / (v-j)! * E[d**(v-j)])**2`` for ``j >= 2``.  Every
    term is non-negative, so the value never drops below zero by
    rounding, and ``data_var = 0`` needs no special case.
    """

    mu: np.ndarray  # (n,) data means
    var: np.ndarray  # (n,) data variances
    tau: np.ndarray  # (n,) best linear gains
    target_mean: float
    residual: float

    @classmethod
    def of(cls, spec: TargetSpec, data_mean, data_var) -> "DataMoments":
        """The moments of ``spec`` under readings ``Normal(data_mean, data_var)``, scalar or ``(n,)``.

        The result is memoized on ``spec`` in one slot, keyed on the exact
        float64 shape and bytes of ``data_mean`` and ``data_var``, so the
        callers that share a spec and a data law share one derivation; its
        ``mu``, ``var`` and ``tau`` are read-only.  Any other law re-derives
        (and re-validates) and takes the slot; a call that raises leaves it
        as it was.
        """
        law = (np.asarray(data_mean, dtype=np.float64), np.asarray(data_var, dtype=np.float64))
        key = tuple((a.shape, a.tobytes()) for a in law)
        memo = getattr(spec, "_moments", None)
        if memo is not None and memo[0] == key:
            return memo[1]
        mu, var = _per_sensor(spec, *law)
        w, v = spec.weights, spec.exponents
        m_prev, m_v = gaussian_raw_moment(mu, var, np.stack((v - 1, v)))
        target_mean = float(np.sum(w * m_v))
        tau = w * v * m_prev
        residual = 0.0
        falling = v.astype(np.float64)  # v! / (v-j)!, zero once j > v
        for j in range(2, int(v.max()) + 1):
            falling = falling * np.maximum(v - j + 1, 0)
            coef = falling * gaussian_raw_moment(mu, var, np.maximum(v - j, 0))
            residual += float(np.sum(w**2 * var**j * coef**2)) / math.factorial(j)
        mu, var = np.array(mu), np.array(var)
        for arr in (mu, var, tau):
            arr.setflags(write=False)
        moments = cls(mu=mu, var=var, tau=tau, target_mean=target_mean, residual=residual)
        object.__setattr__(spec, "_moments", (key, moments))
        return moments

    @property
    def target_second_moment(self) -> float:
        """``E[target**2]``: the error of the zero estimate, and the dB reference."""
        return float(self.var @ self.tau**2) + self.residual + self.target_mean**2

    @property
    def cross(self) -> float:
        """``E[(sum_i d_i) * target]``, the correlation term every coefficient rule shares.

        Only sensor ``i``'s own term covaries with ``d_i``, by ``var_i tau_i``.
        """
        return float(self.var @ self.tau) + float(self.mu.sum()) * self.target_mean

    def mse(self, t, noise_term):
        """Exact MSE given total gains ``t`` ``(..., n)``, one value per leading index.

        ``noise_term`` is ``sum_k beta_k**2 nv_k``, a scalar or ``(...)``.
        ``t`` is overwritten.
        """
        offset = np.einsum("...n,n->...", t, self.mu) - self.target_mean
        t -= self.tau
        t *= t
        out = np.einsum("...n,n->...", t, self.var)
        out += offset * offset + self.residual + noise_term
        return out

    def equal_quadratic(self, g_sum, noise_total: float):
        """Per-round ``(A, B)`` of the exact MSE ``A b**2 - 2 B b + C`` under one equal coefficient ``b``.

        ``g_sum`` ``(..., n)`` holds each sensor's gains summed over stops,
        so ``T = b * g_sum``; ``noise_total`` is ``sum_k nv_k``, and ``C``
        is :attr:`target_second_moment`.
        """
        dot_mu = np.einsum("...n,n->...", g_sum, self.mu)
        quad = np.einsum("...n,...n,n->...", g_sum, g_sum, self.var)
        quad += dot_mu * dot_mu + noise_total
        lin = np.einsum("...n,n->...", g_sum, self.var * self.tau)
        lin += self.target_mean * dot_mu
        return quad, lin


def target_mean(spec: TargetSpec, data_mean, data_var) -> float:
    """``E[sum w_i d_i**v_i]`` for independent Gaussian sensors."""
    return DataMoments.of(spec, data_mean, data_var).target_mean


def target_second_moment(spec: TargetSpec, data_mean, data_var) -> float:
    """``E[(sum w_i d_i**v_i)**2]`` for independent Gaussian sensors.

    Used as the normalization reference when quoting MSE in dB.
    """
    return DataMoments.of(spec, data_mean, data_var).target_second_moment


def target_sum_cross_moment(spec: TargetSpec, data_mean, data_var) -> float:
    """Expected product of the plain sensor sum and the target value: :attr:`DataMoments.cross`."""
    return DataMoments.of(spec, data_mean, data_var).cross


def _per_sensor(spec: TargetSpec, data_mean, data_var):
    """Broadcast scalar-or-array data statistics to the target's sensor count, checked finite."""
    mu = np.broadcast_to(np.asarray(data_mean, dtype=np.float64), spec.weights.shape)
    var = np.broadcast_to(np.asarray(data_var, dtype=np.float64), spec.weights.shape)
    if not (var >= 0.0).all():
        raise ValueError("data_var must be non-negative")
    if not (np.isfinite(mu).all() and np.isfinite(var).all()):
        raise ValueError("data_mean and data_var must be finite")
    return mu, var

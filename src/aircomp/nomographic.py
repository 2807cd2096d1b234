"""Weighted power-sum targets and Gaussian moment machinery.

The network computes targets of the form ``sum_i w_i * d_i**v_i`` for
positive weights and integer exponents.  Closed-form design of the
combining coefficients needs raw moments ``E[d**v]`` of the Gaussian
data sources, obtained here by the stable two-term recursion
``m_v = mu * m_{v-1} + (v - 1) * var * m_{v-2}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TargetSpec:
    """A weighted power-sum target ``sum_i weights[i] * d_i**exponents[i]``.

    Attributes:
        weights: ``(n,)`` positive weights.
        exponents: ``(n,)`` integer exponents, each ``>= 1``.
    """

    weights: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        v = np.asarray(self.exponents)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if v.shape != w.shape:
            raise ValueError(f"exponents shape {v.shape} must match weights shape {w.shape}")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        if not np.all(v == np.floor(v)) or np.any(v < 1):
            raise ValueError("exponents must be integers >= 1")
        v = v.astype(np.int64)
        w.setflags(write=False)
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
    if np.any(var_arr < 0.0):
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


def target_mean(spec: TargetSpec, data_mean, data_var) -> float:
    """``E[sum w_i d_i**v_i]`` for independent Gaussian sensors."""
    mu, var = _per_sensor(spec, data_mean, data_var)
    return float(np.sum(spec.weights * gaussian_raw_moment(mu, var, spec.exponents)))


def target_second_moment(spec: TargetSpec, data_mean, data_var) -> float:
    """``E[(sum w_i d_i**v_i)**2]`` for independent Gaussian sensors.

    Used as the normalization reference when quoting MSE in dB.
    """
    mu, var = _per_sensor(spec, data_mean, data_var)
    w = spec.weights
    variances = gaussian_power_variance(mu, var, spec.exponents)
    mean = np.sum(w * gaussian_raw_moment(mu, var, spec.exponents))
    return float(np.sum(w**2 * variances) + mean**2)


def target_sum_cross_moment(spec: TargetSpec, data_mean, data_var) -> float:
    """Expected product of the plain sensor sum and the target value.

    ``E[(sum_i d_i) * (sum_j w_j d_j**v_j)]`` equals
    ``sum_i (w_i E[d_i**(v_i+1)] + mu_i * sum_{j != i} w_j E[d_j**v_j])``
    for independent sensors; this is the correlation term every
    coefficient rule in this package shares.
    """
    mu, var = _per_sensor(spec, data_mean, data_var)
    w = spec.weights
    m_v, m_v1 = gaussian_raw_moment(mu, var, np.stack((spec.exponents, spec.exponents + 1)))
    total_mean = np.sum(w * m_v)
    return float(np.sum(w * m_v1 + mu * (total_mean - w * m_v)))


def _per_sensor(spec: TargetSpec, data_mean, data_var):
    """Broadcast scalar-or-array data statistics to the target's sensor count."""
    mu = np.broadcast_to(np.asarray(data_mean, dtype=np.float64), spec.weights.shape)
    var = np.broadcast_to(np.asarray(data_var, dtype=np.float64), spec.weights.shape)
    if np.any(var < 0.0):
        raise ValueError("data_var must be non-negative")
    return mu, var

"""Free-space backscatter link model.

The round-trip channel between the UAV and a sensor at slant range ``d``
has power gain ``g0**2 / d**2`` where ``g0 = c / (4 * pi * f)`` collects
the carrier-dependent constants.  A sensor reflecting with coefficient
``zeta`` under illumination power ``p`` contributes the effective
amplitude ``sqrt(zeta * p) * g0**2 / d**2`` to the received aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SensorField, Trajectory, squared_ranges

SPEED_OF_LIGHT = 2.99792458e8


@dataclass(frozen=True)
class ChannelParams:
    """Carrier-dependent channel constant and UAV transmit power.

    Attributes:
        g0: free-space reference gain ``c / (4 * pi * f)``; the default
            0.0275 corresponds to an 868 MHz carrier.
        tx_power_w: UAV illumination power in watts.
    """

    g0: float = 0.0275
    tx_power_w: float = 1.0

    def __post_init__(self):
        if not self.g0 > 0.0:
            raise ValueError(f"g0 must be positive, got {self.g0}")
        if not self.tx_power_w > 0.0:
            raise ValueError(f"tx_power_w must be positive, got {self.tx_power_w}")

    @classmethod
    def from_carrier(cls, carrier_hz: float, tx_power_w: float = 1.0) -> "ChannelParams":
        """Build params from a carrier frequency in Hz."""
        if not carrier_hz > 0.0:
            raise ValueError(f"carrier_hz must be positive, got {carrier_hz}")
        return cls(g0=SPEED_OF_LIGHT / (4.0 * math.pi * carrier_hz), tx_power_w=tx_power_w)


@dataclass(frozen=True)
class GainMatrix:
    """Per-link gains for one deployment and flight plan.

    Attributes:
        h: ``(n, k)`` round-trip channel power gains ``g0**2 / d**2``.
        g: ``(n, k)`` effective amplitudes ``sqrt(zeta_i * p) * h[i, k]``.
    """

    h: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        g = np.asarray(self.g, dtype=np.float64)
        if h.shape != g.shape or h.ndim != 2:
            raise ValueError(f"h and g must share a 2-d shape, got {h.shape} and {g.shape}")
        if np.any(h <= 0.0) or np.any(g <= 0.0):
            raise ValueError("gains must be positive")
        for name, arr in (("h", h), ("g", g)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return self.h.shape[1]


def effective_gain_matrix(field: SensorField, traj: Trajectory, params: ChannelParams) -> GainMatrix:
    """Per-link gains for every sensor/stop pair of a deployment."""
    d2 = squared_ranges(field.positions[:, 0], field.positions[:, 1], traj)
    return GainMatrix(h=params.g0**2 / d2, g=gain_amplitude(field.reflection, params)[:, None] / d2)


def gain_amplitude(zeta, params: ChannelParams):
    """Effective amplitude ``sqrt(zeta * p) * g0**2`` of a reflector at unit range.

    Dividing it by the squared slant range gives the effective gain.
    """
    return np.sqrt(np.multiply(zeta, params.tx_power_w)) * params.g0**2


def received_powers(params: ChannelParams, zeta: float, d: float) -> tuple[float, float]:
    """Power reaching the sensor and power backscattered to the UAV.

    Args:
        params: channel constants (``g0`` and transmit power).
        zeta: reflection coefficient in ``[0, 1]``; 0 models an absorbing node.
        d: slant range in meters.

    Returns:
        ``(p_forward, p_back)`` where ``p_forward = g0**2 * p / d**2`` and
        ``p_back = (g0**2 * sqrt(p * zeta) / d**2)**2``.
    """
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")
    if not d > 0.0:
        raise ValueError(f"distance must be positive, got {d}")
    p = params.tx_power_w
    p_forward = params.g0**2 * p / d**2
    p_back = (params.g0**2 * math.sqrt(p * zeta) / d**2) ** 2
    return p_forward, p_back

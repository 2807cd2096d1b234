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

from .geometry import SensorField, Trajectory, frozen_array, squared_ranges

@dataclass(frozen=True)
class ChannelParams:
    """Carrier-dependent channel constant and UAV transmit power.

    Attributes:
        g0: free-space reference gain ``c / (4 * pi * f)``, finite and
            ``> 0``; the default 0.0275 corresponds to an 868 MHz carrier.
        tx_power_w: UAV illumination power in watts, finite and ``> 0``.
    """

    g0: float = 0.0275
    tx_power_w: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.g0 < math.inf:
            raise ValueError(f"g0 must be positive and finite, got {self.g0}")
        if not 0.0 < self.tx_power_w < math.inf:
            raise ValueError(f"tx_power_w must be positive and finite, got {self.tx_power_w}")


@dataclass(frozen=True)
class GainMatrix:
    """Per-link gains for one deployment and flight plan.

    Attributes:
        g: ``(k, n)`` effective amplitudes ``sqrt(zeta_i * p) * g0**2 / d[k, i]**2``,
            finite, positive and read-only; stop-major, so each stop's row of
            sensors is contiguous, as the array steps sum them.
    """

    g: np.ndarray

    def __post_init__(self):
        g = frozen_array(self.g, "g", 2)
        if not (g > 0.0).all():
            raise ValueError("gains must be positive")
        object.__setattr__(self, "g", g)

    @property
    def n(self) -> int:
        return self.g.shape[1]

    @property
    def k(self) -> int:
        return self.g.shape[0]


def effective_gain_matrix(field: SensorField, traj: Trajectory, params: ChannelParams) -> GainMatrix:
    """Effective gains for every sensor/stop pair of a deployment."""
    d2 = squared_ranges(field.positions[:, 0], field.positions[:, 1], traj)
    return GainMatrix(g=np.divide(gain_amplitude(field.reflection, params), d2, out=d2))


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

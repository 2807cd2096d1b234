"""Sensor deployments, UAV stop-over plans, and sensor-to-UAV distances.

Sensors are scattered uniformly by area over a ground disk of radius
``r_cov`` centered at the origin.  The UAV flies at a fixed altitude and
hovers at a small number of stops placed on a diameter of that disk; all
link distances are slant ranges from a stop to a ground sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import make_rng


def _frozen_array(value, shape_hint: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, copy=True)
    if arr.size == 0:
        raise ValueError(f"{shape_hint} must not be empty")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SensorField:
    """Immutable ground-sensor layout plus per-sensor channel/data parameters.

    Attributes:
        positions: ``(n, 2)`` sensor coordinates in meters.
        reflection: ``(n,)`` backscatter reflection coefficients in ``(0, 1]``.
        data_mean: ``(n,)`` means of the Gaussian data sources.
        data_var: ``(n,)`` variances of the Gaussian data sources (``>= 0``).
    """

    positions: np.ndarray
    reflection: np.ndarray
    data_mean: np.ndarray
    data_var: np.ndarray

    def __post_init__(self):
        pos = _frozen_array(self.positions, "positions")
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
        n = pos.shape[0]
        fields = {}
        for name in ("reflection", "data_mean", "data_var"):
            arr = np.broadcast_to(np.asarray(getattr(self, name), dtype=np.float64), (n,))
            fields[name] = _frozen_array(arr, name)
        if np.any(fields["reflection"] <= 0.0) or np.any(fields["reflection"] > 1.0):
            raise ValueError("reflection coefficients must lie in (0, 1]")
        if np.any(fields["data_var"] < 0.0):
            raise ValueError("data_var must be non-negative")
        object.__setattr__(self, "positions", pos)
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def with_parameters(self, reflection=None, data_mean=None, data_var=None) -> "SensorField":
        """Return a copy with per-sensor parameters replaced (positions kept)."""
        return replace(
            self,
            reflection=self.reflection if reflection is None else reflection,
            data_mean=self.data_mean if data_mean is None else data_mean,
            data_var=self.data_var if data_var is None else data_var,
        )


@dataclass(frozen=True)
class Trajectory:
    """A fixed-altitude flight plan: hover stops at height ``altitude_h``.

    Attributes:
        altitude_h: UAV altitude in meters, ``> 0``.
        stops: ``(k, 2)`` ground-projected stop coordinates.
    """

    altitude_h: float
    stops: np.ndarray

    def __post_init__(self):
        if not self.altitude_h > 0.0:
            raise ValueError(f"altitude_h must be positive, got {self.altitude_h}")
        stops = _frozen_array(self.stops, "stops")
        if stops.ndim != 2 or stops.shape[1] != 2:
            raise ValueError(f"stops must have shape (k, 2), got {stops.shape}")
        object.__setattr__(self, "altitude_h", float(self.altitude_h))
        object.__setattr__(self, "stops", stops)

    @property
    def k(self) -> int:
        return self.stops.shape[0]


def deploy_sensors(
    n: int,
    r_cov: float,
    zeta: float = 0.99,
    data_mean=0.0,
    data_var=1.0,
    seed=None,
) -> SensorField:
    """Scatter ``n`` sensors uniformly by area over the coverage disk.

    The draw uses the polar construction radius = ``r_cov * sqrt(u)``,
    angle = ``2 * pi * t`` with ``u, t`` uniform on ``[0, 1)``, which is
    area-uniform on the disk.

    Args:
        n: number of sensors, ``>= 1``.
        r_cov: coverage-disk radius in meters, ``> 0``.
        zeta: reflection coefficient applied to every sensor (scalar or ``(n,)``).
        data_mean: Gaussian data mean per sensor (scalar or ``(n,)``).
        data_var: Gaussian data variance per sensor (scalar or ``(n,)``).
        seed: int or ``numpy.random.SeedSequence``; fixed seed gives an
            identical layout on every call.

    Returns:
        A :class:`SensorField`.

    Raises:
        ValueError: if ``n < 1`` or ``r_cov <= 0`` or parameters are invalid.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not r_cov > 0.0:
        raise ValueError(f"r_cov must be positive, got {r_cov}")
    x, y = scatter_on_disk(make_rng(seed), r_cov, n)
    return SensorField(np.column_stack((x, y)), zeta, data_mean, data_var)


def scatter_on_disk(rng: np.random.Generator, r_cov: float, shape):
    """Area-uniform points on the coverage disk as ``(x, y)`` arrays of ``shape``.

    All radius uniforms are drawn before all angle uniforms, so one
    deployment of ``n`` sensors and a ``(1, n)`` batch of them consume
    ``rng`` identically.
    """
    radius = r_cov * np.sqrt(rng.random(shape))
    angle = 2.0 * np.pi * rng.random(shape)
    return radius * np.cos(angle), radius * np.sin(angle)


def plan_diameter_trajectory(k: int, r_cov: float, h: float) -> Trajectory:
    """Place ``k`` stops evenly along the x-axis diameter of the disk.

    A single stop sits at the disk center; for ``k >= 2`` the stops span
    ``[-r_cov, +r_cov]`` with both endpoints included.

    Raises:
        ValueError: if ``k < 1``, ``r_cov <= 0``, or ``h <= 0``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not r_cov > 0.0:
        raise ValueError(f"r_cov must be positive, got {r_cov}")
    if k == 1:
        xs = np.zeros(1)
    else:
        xs = np.linspace(-r_cov, r_cov, k)
    return Trajectory(altitude_h=h, stops=np.column_stack((xs, np.zeros(k))))


def distance(field: SensorField, i: int, traj: Trajectory, k: int) -> float:
    """Slant range from stop ``k`` to sensor ``i`` in meters.

    Raises:
        IndexError: if either index is out of range.
    """
    dx = field.positions[i, 0] - traj.stops[k, 0]
    dy = field.positions[i, 1] - traj.stops[k, 1]
    return math.sqrt(traj.altitude_h**2 + dx * dx + dy * dy)


def distance_matrix(field: SensorField, traj: Trajectory) -> np.ndarray:
    """All slant ranges as an ``(n, k)`` matrix."""
    return np.sqrt(squared_ranges(field.positions[:, 0], field.positions[:, 1], traj))


def squared_ranges(x, y, traj: Trajectory) -> np.ndarray:
    """Squared slant ranges ``(..., n, k)`` from sensors at ``(x, y)`` to every stop.

    ``x`` and ``y`` have shape ``(..., n)``; leading axes index trials.
    """
    sx, sy = traj.stops[:, 0], traj.stops[:, 1]
    return traj.altitude_h**2 + (x[..., None] - sx) ** 2 + (y[..., None] - sy) ** 2


def max_distance_bound(r_cov: float, h: float) -> float:
    """Largest possible slant range when stops stay inside the disk.

    With both endpoints confined to the coverage disk the ground
    separation never exceeds ``2 * r_cov``, so the slant range is at most
    ``h * sqrt(1 + (2 * r_cov / h)**2)``.
    """
    return h * math.sqrt(1.0 + (2.0 * r_cov / h) ** 2)

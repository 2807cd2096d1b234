"""Sensor deployments, UAV stop-over plans, and sensor-to-UAV distances.

Sensors are scattered uniformly by area over a ground disk of radius
``r_cov`` centered at the origin.  The UAV flies at a fixed altitude and
hovers at a small number of stops placed on a diameter of that disk; all
link distances are slant ranges from a stop to a ground sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_rng


def frozen_array(value, name: str, ndim: int | None) -> np.ndarray:
    """A value type's field ``name``: a read-only, C-ordered float64 copy of ``value``.

    Raises:
        ValueError: if the array is not ``ndim``-d (``None`` takes any
            rank), is empty, or holds a NaN or an infinity.
    """
    arr = np.array(value, dtype=np.float64, order="C")
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SensorField:
    """Immutable ground-sensor layout plus per-sensor channel/data parameters.

    Every array is a finite, read-only float64 copy.

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
        pos = frozen_array(self.positions, "positions", 2)
        if pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {pos.shape}")
        object.__setattr__(self, "positions", pos)
        for name in ("reflection", "data_mean", "data_var"):
            arr = frozen_array(np.broadcast_to(getattr(self, name), (self.n,)), name, 1)
            object.__setattr__(self, name, arr)
        if not ((self.reflection > 0.0) & (self.reflection <= 1.0)).all():
            raise ValueError("reflection coefficients must lie in (0, 1]")
        if not (self.data_var >= 0.0).all():
            raise ValueError("data_var must be non-negative")

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """A fixed-altitude flight plan: hover stops at height ``altitude_h``.

    Attributes:
        altitude_h: UAV altitude in meters, ``> 0`` with a finite square.
        stops: ``(k, 2)`` ground-projected stop coordinates, a finite,
            read-only float64 copy.
    """

    altitude_h: float
    stops: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.altitude_h and math.isfinite(self.altitude_h * self.altitude_h)):
            raise ValueError(f"altitude_h must be positive with a finite square, got {self.altitude_h}")
        stops = frozen_array(self.stops, "stops", 2)
        if stops.shape[1] != 2:
            raise ValueError(f"stops must have shape (k, 2), got {stops.shape}")
        object.__setattr__(self, "altitude_h", float(self.altitude_h))
        object.__setattr__(self, "stops", stops)

    @property
    def k(self) -> int:
        return self.stops.shape[0]


def check_radius(r_cov: float) -> None:
    """Reject a coverage radius that is not positive and finite, or whose diameter's square overflows."""
    if not 0.0 < r_cov < math.inf:
        raise ValueError(f"r_cov must be positive and finite, got {r_cov}")
    if not math.isfinite((2.0 * r_cov) * (2.0 * r_cov)):
        raise ValueError(f"r_cov must keep (2 * r_cov)**2 finite, got {r_cov}")


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
        ValueError: if ``n < 1``, ``r_cov`` fails :func:`check_radius` or parameters are invalid.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_radius(r_cov)
    x, y = scatter_on_disk(make_rng(seed), r_cov, n)
    return SensorField(np.column_stack((x, y)), zeta, data_mean, data_var)


def scatter_on_disk(rng: np.random.Generator, r_cov: float, shape):
    """Area-uniform points on the coverage disk as ``(x, y)`` arrays of ``shape``.

    The last axis of ``shape`` indexes sensors and leading axes index
    rounds.  Each round draws its ``n`` radius uniforms, then its ``n``
    angle uniforms, so an ``(m, n)`` batch consumes ``rng`` exactly as
    ``m`` successive ``n``-sensor deployments do.
    """
    *rounds, n = np.atleast_1d(shape)
    u = rng.random((*rounds, 2, n))
    radius, angle = u[..., 0, :], u[..., 1, :]
    # in place: the transformed rows need no second (..., 2, n) buffer
    np.sqrt(radius, out=radius)
    radius *= r_cov
    angle *= 2.0 * np.pi
    return radius * np.cos(angle), radius * np.sin(angle)


def plan_diameter_trajectory(k: int, r_cov: float, h: float) -> Trajectory:
    """Place ``k`` stops evenly along the x-axis diameter of the disk.

    A single stop sits at the disk center; for ``k >= 2`` the stops span
    ``[-r_cov, +r_cov]`` with both endpoints included.

    Raises:
        ValueError: if ``k < 1``, ``r_cov`` fails :func:`check_radius`, or ``h <= 0``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_radius(r_cov)
    if k == 1:
        xs = np.zeros(1)
    else:
        xs = np.linspace(-r_cov, r_cov, k)
    return Trajectory(altitude_h=h, stops=np.column_stack((xs, np.zeros(k))))


def distance_matrix(field: SensorField, traj: Trajectory) -> np.ndarray:
    """All slant ranges as a ``(k, n)`` matrix, one row of sensors per stop."""
    return np.sqrt(squared_ranges(field.positions[:, 0], field.positions[:, 1], traj))


def squared_ranges(x, y, traj: Trajectory, out=None) -> np.ndarray:
    """Squared slant ranges ``(..., k, n)`` from sensors at ``(x, y)`` to every stop.

    ``x`` and ``y`` have shape ``(..., n)``; leading axes index trials,
    and each stop's row of sensors is contiguous.  The result is built in
    ``out`` if given, term by term in the order ``(x - sx)**2 + h**2 +
    (y - sy)**2``.  Stops on the x axis (every diameter plan) add the
    plane ``y**2``, which is ``(y - 0)**2`` bit for bit.
    """
    sx, sy = traj.stops[:, 0], traj.stops[:, 1]
    d2 = np.subtract(x[..., None, :], sx[:, None], out=out)
    np.square(d2, out=d2)
    d2 += traj.altitude_h**2
    if sy.any():
        d2 += np.square(y[..., None, :] - sy[:, None])
    else:
        d2 += np.square(y)[..., None, :]
    return d2


def max_distance_bound(r_cov: float, h: float) -> float:
    """Largest possible slant range when stops stay inside the disk.

    With both endpoints confined to the coverage disk the ground
    separation never exceeds ``2 * r_cov``, so the slant range is at most
    ``h * sqrt(1 + (2 * r_cov / h)**2)``.
    """
    return h * math.sqrt(1.0 + (2.0 * r_cov / h) ** 2)

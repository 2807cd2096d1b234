"""A NaN entry fails every value check, as an out-of-range value does.  An infinite
weight, data statistic, array entry of a value type, channel constant or altitude, or a
radius that puts sensors or stops at infinity, fails with a message that says "finite"."""

import numpy as np
import pytest

from aircomp import (
    AggregateSamples,
    BetaVector,
    ChannelParams,
    GainMatrix,
    GainStatistics,
    SensorField,
    SumGainSamples,
    TargetSpec,
    Trajectory,
    deploy_sensors,
    effective_gain_matrix,
    gaussian_raw_moment,
    mse_exact_conditional,
    plan_diameter_trajectory,
    target_mean,
)
from aircomp.nomographic import DataMoments

NAN = float("nan")
INF = float("inf")
SPEC = TargetSpec(np.ones(2), np.ones(2, dtype=int))
GAINS = GainMatrix(np.full((1, 2), 1e-7))


def _field(**overrides):
    args = dict(positions=np.zeros((2, 2)), reflection=0.5, data_mean=0.0, data_var=1.0)
    args.update(overrides)
    return SensorField(**args)


CASES = {
    "gain": lambda: GainMatrix(np.array([[NAN, 1e-7]])),
    "beta": lambda: BetaVector(np.array([NAN, 1.0])),
    "mean gain": lambda: GainStatistics(np.array([NAN]), np.zeros(1), np.ones((1, 1))),
    "gain variance": lambda: GainStatistics(np.ones(1), np.array([NAN]), np.ones((1, 1))),
    "target weight": lambda: TargetSpec(np.array([NAN, 1.0]), np.ones(2, dtype=int)),
    "reflection": lambda: _field(reflection=np.array([NAN, 0.5])),
    "field data_var": lambda: _field(data_var=np.array([NAN, 1.0])),
    "position": lambda: effective_gain_matrix(
        _field(positions=np.array([[NAN, 0.0], [1.0, 1.0]])),
        plan_diameter_trajectory(2, 10.0, 5.0),
        ChannelParams(),
    ),
    "moment var": lambda: gaussian_raw_moment(0.0, NAN, 2),
    "target data_var": lambda: target_mean(SPEC, 0.0, np.array([NAN, 1.0])),
    "noise variance": lambda: mse_exact_conditional(SPEC, GAINS, 0.0, 1.0, NAN, 1.0),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_nan_entry_is_rejected(build):
    with pytest.raises(ValueError):
        build()


NON_FINITE_CASES = {
    "infinite target weight": lambda: TargetSpec(np.array([INF, 1.0]), np.ones(2, dtype=int)),
    "field data_mean": lambda: _field(data_mean=np.array([NAN, 0.0])),
    "infinite field data_mean": lambda: _field(data_mean=np.array([-INF, 0.0])),
    "infinite field data_var": lambda: _field(data_var=np.array([INF, 1.0])),
    "target data_mean": lambda: target_mean(SPEC, NAN, 1.0),
    "infinite target data_mean": lambda: target_mean(SPEC, INF, 1.0),
    "infinite moments data_var": lambda: DataMoments.of(SPEC, 0.0, INF),
    "field position": lambda: _field(positions=np.array([[NAN, 0.0], [1.0, 1.0]])),
    "infinite deployment radius": lambda: deploy_sensors(3, INF),
    "infinite plan radius": lambda: plan_diameter_trajectory(3, INF, 50.0),
    "infinite gain": lambda: GainMatrix(np.array([[INF, 1e-7]])),
    "infinite beta": lambda: BetaVector(np.array([INF, 1.0])),
    "pilot sum": lambda: SumGainSamples(np.array([NAN, 1.0])),
    "infinite aggregate": lambda: AggregateSamples(np.array([INF, 1.0])),
    "infinite gain second moment": lambda: GainStatistics(np.ones(1), np.zeros(1), np.array([[INF]])),
    "infinite g0": lambda: ChannelParams(g0=INF),
    "infinite tx power": lambda: ChannelParams(tx_power_w=INF),
    "infinite altitude": lambda: Trajectory(altitude_h=INF, stops=np.zeros((1, 2))),
}


@pytest.mark.parametrize("build", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES.keys())
def test_non_finite_weight_or_statistic_is_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()

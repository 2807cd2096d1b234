"""A NaN entry fails every value check, as an out-of-range value does, and so does an
infinite weight or data statistic."""

import numpy as np
import pytest

from aircomp import (
    BetaVector,
    ChannelParams,
    GainMatrix,
    GainStatistics,
    SensorField,
    TargetSpec,
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
}


@pytest.mark.parametrize("build", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES.keys())
def test_non_finite_weight_or_statistic_is_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()

"""Every value type stores its arrays as float64, C-ordered, read-only copies of its inputs."""

import numpy as np
import pytest

from aircomp import (
    AggregateSamples,
    BetaVector,
    GainMatrix,
    GainStatistics,
    SensorField,
    SumGainSamples,
    TargetSpec,
    Trajectory,
)

# type -> (constructor over its array inputs, the fields they fill, the input shapes)
VALUE_TYPES = {
    "SensorField": (SensorField, ("positions", "reflection", "data_mean", "data_var"), [(3, 2), (3,), (3,), (3,)]),
    "Trajectory": (lambda stops: Trajectory(5.0, stops), ("stops",), [(4, 2)]),
    "GainMatrix": (GainMatrix, ("g",), [(3, 4)]),
    "SumGainSamples": (SumGainSamples, ("alpha",), [(3,)]),
    "AggregateSamples": (AggregateSamples, ("dbar",), [(3,)]),
    "BetaVector": (BetaVector, ("beta",), [(2, 3)]),
    "GainStatistics": (GainStatistics, ("mean_g", "var_g", "second_moment"), [(3,), (3,), (3, 3)]),
    "TargetSpec": (lambda w: TargetSpec(w, np.ones(w.shape, dtype=int)), ("weights",), [(3,)]),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make, fields, shapes", VALUE_TYPES.values(), ids=VALUE_TYPES.keys())
def test_value_type_stores_a_frozen_copy(make, fields, shapes, dtype, order):
    inputs = [np.full(shape, 0.5, dtype=dtype, order=order) for shape in shapes]
    value = make(*inputs)
    for name, given in zip(fields, inputs):
        stored = getattr(value, name)
        assert stored.dtype == np.float64
        assert stored.flags["C_CONTIGUOUS"]
        assert not stored.flags["WRITEABLE"]
        given[...] = 0.25  # the caller changes its input after construction
        np.testing.assert_array_equal(stored, np.full(given.shape, 0.5))

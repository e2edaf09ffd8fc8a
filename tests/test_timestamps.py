"""One rule for a timestamp array: a stream and the histogram kernel
accept, convert and refuse the same arrays, with the same error types."""

import math

import numpy as np
import pytest

from qcsync import estimator
from qcsync.errors import ConfigurationError, ContractViolation
from qcsync.estimator import build_histogram
from qcsync.simulation import TimestampStream

_TOP = 2**62 - 1

# (values, the int64 times they convert to, or the error they raise).
_CASES = [
    pytest.param(np.array([10, 40]), [10, 40], id="int64"),
    pytest.param(np.array([10.0, 40.0]), [10, 40], id="float64"),
    pytest.param(np.array([10.0, 40.0], np.float32), [10, 40], id="float32"),
    pytest.param(np.array([10, 40], np.uint64), [10, 40], id="uint64"),
    pytest.param(np.array([10, 40], np.int32), [10, 40], id="int32"),
    pytest.param([10, 40], [10, 40], id="list"),
    pytest.param(np.array([], np.float64), [], id="empty"),
    pytest.param(np.array([1.5, 2.0]), ConfigurationError, id="fractional"),
    pytest.param(np.array([1.0, math.nan]), ConfigurationError, id="nan"),
    pytest.param(np.array([1.0, math.inf]), ConfigurationError, id="inf"),
    pytest.param(np.array([-math.inf, 1.0]), ConfigurationError, id="-inf"),
    pytest.param(np.array([False, True]), ConfigurationError, id="bool"),
    pytest.param(np.array(["1", "2"]), ConfigurationError, id="text"),
    pytest.param(np.array([None, 1], dtype=object), ConfigurationError, id="object"),
    pytest.param(np.array([1j, 2j]), ConfigurationError, id="complex"),
    pytest.param(np.array(5), ConfigurationError, id="0-d"),
    pytest.param(np.array([[1, 2]]), ConfigurationError, id="2-d"),
    pytest.param(np.array([5, 1]), ContractViolation, id="unsorted"),
    pytest.param(np.array([5.0, 1.0]), ContractViolation, id="unsorted-float"),
    pytest.param(np.array([5, 1], np.uint64), ContractViolation, id="unsorted-uint64"),
    pytest.param(np.array([0, _TOP]), [0, _TOP], id="2**62-1"),
    pytest.param(np.array([-_TOP, 0]), [-_TOP, 0], id="-(2**62-1)"),
    pytest.param(np.array([_TOP], np.uint64), [_TOP], id="uint64-2**62-1"),
    pytest.param(np.array([2.0**62 - 1024]), [2**62 - 1024], id="float-below-2**62"),
    pytest.param(np.array([0, 2**62]), ConfigurationError, id="2**62"),
    pytest.param(np.array([-(2**62), 0]), ConfigurationError, id="-2**62"),
    pytest.param(np.array([2**62], np.uint64), ConfigurationError, id="uint64-2**62"),
    pytest.param(np.array([2**64 - 1], np.uint64), ConfigurationError, id="uint64-max"),
    pytest.param(np.array([2.0**62]), ConfigurationError, id="float-2**62"),
    pytest.param(np.array([-(2.0**62)]), ConfigurationError, id="float--2**62"),
    pytest.param([2**70], ConfigurationError, id="int-beyond-int64"),
]


def _stream(values):
    return TimestampStream([values, [], []], 1.0).times[0]


def _histogram(values, position):
    """The int64 arrays ``build_histogram`` hands its kernel, with ``values``
    as its argument ``position`` and ``[0]`` as the other."""
    args = [np.array([0]), np.array([0])]
    args[position] = values
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_one_epoch_histogram", lambda a, b, *window: captured.extend((a, b)))
        build_histogram(*args, 1.0, 0, 2)
    return captured[position]


_APPLY = [
    pytest.param(_stream, "IdlerA", id="stream"),
    pytest.param(lambda v: _histogram(v, 0), "a", id="histogram-a"),
    pytest.param(lambda v: _histogram(v, 1), "b", id="histogram-b"),
]


@pytest.mark.parametrize("values, want", _CASES)
@pytest.mark.parametrize("apply, name", _APPLY)
def test_one_rule_for_every_timestamp_array(apply, name, values, want):
    if isinstance(want, type):
        with pytest.raises(want, match=f"^{name} timestamps "):
            apply(values)
        return
    if apply is _stream and min(want, default=0) < 0:
        # The stream alone refuses a negative time: a tagger's times start at 0.
        with pytest.raises(ConfigurationError, match=f"^{name} timestamps must not be negative"):
            apply(values)
        return
    got = apply(values)
    assert got.dtype == np.int64 and got.tolist() == want
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        assert got is values


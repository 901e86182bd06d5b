import numpy as np
import pytest

from koutlab import ParameterError


def _check_reads(fn, args, index, name, count=True, same=None):
    """fn(*args) reads args[index] with the shared reader: 2.5 (for a
    count), True and "x" there raise a ParameterError that starts with
    name, and 2.0 and np.int64 (for a count) or np.float64 (for a real)
    give what the plain value gives, compared by same (==, or
    np.array_equal for arrays, when not given)."""
    def call(value):
        return fn(*args[:index], value, *args[index + 1:])

    for bad in ((2.5,) if count else ()) + (True, "x"):
        with pytest.raises(ParameterError, match=rf"^{name} must be "):
            call(bad)
    for kind in (float, np.int64) if count else (np.float64,):
        got, want = call(kind(args[index])), call(args[index])
        if same is not None:
            assert same(got, want), (kind, name)
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want) and got.dtype == want.dtype, (kind, name)
        else:
            assert got == want, (kind, name)


@pytest.fixture
def reads_numbers():
    """_check_reads: the shared reader's refusals and its identical results."""
    return _check_reads

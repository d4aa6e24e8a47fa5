import numpy as np
import pytest

from restricta.errors import OutOfRange
from restricta.numutil import frac_exact, frac_mul


@pytest.mark.parametrize("theta", [0.5, 0.41421356237309515, 0.6180339887498949, 1e-9])
def test_frac_mul_exact_up_to_2_53(theta):
    n = np.array([2**53, -(2**53), 2**53 - 1, 2**40 + 3], dtype=np.int64)
    for v, got in zip(n.tolist(), frac_mul(n, theta).tolist()):
        diff = abs(got - frac_exact(v, theta))
        assert min(diff, 1.0 - diff) < 1e-12, v


def test_frac_mul_refuses_integers_past_2_53():
    # 2^53 + 1 is the first integer float64 rounds; its true phase at 1/2 is 1/2
    assert frac_exact(2**53 + 1, 0.5) == 0.5
    for n in (2**53 + 1, -(2**53) - 1, 2**62):
        with pytest.raises(OutOfRange):
            frac_mul(np.array([1, n], dtype=np.int64), 0.5)
    assert frac_mul(np.array([2.0**54]), 0.25)[0] == 0.0  # float input is taken as it is

"""Low-level numeric helpers: exact phase reduction and deterministic sums.

Phase accuracy is the main concern: evaluating e(n*theta) for n up to 2^40
by naive multiplication loses all fractional accuracy.  ``frac_exact``
reduces n*theta mod 1 through the exact binary rational of the float, and
``frac_mul`` does the same for arrays via an error-free two-product, so
phases are correct to ~1 ulp regardless of n.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRange

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp splitting constant
SUM_CHUNK = 1 << 16  # numpy partial sums per chunk of this size, then fsum


def frac_exact(n: int, theta: float) -> float:
    """Exact (n*theta) mod 1 for integer n, via the rational value of theta."""
    p, q2 = float(theta).as_integer_ratio()  # q2 is a power of two
    return ((n * p) % q2) / q2


def frac_mul(n, theta):
    """(n*theta) mod 1 in [0,1) for an int64/float array n and float theta.

    Error-free transformation of the product (Dekker two-product without
    fma), then exact fractional split; absolute error is a few ulp.
    Requires |n*theta| < 2^53, and |n| <= 2^53 for integer n: float64 holds
    every integer only up to 2^53, so a larger one is refused with
    OutOfRange rather than rounded.
    """
    a = np.asarray(n)
    if a.dtype.kind in "iu" and a.size and max(-int(a.min()), int(a.max())) > 1 << 53:
        raise OutOfRange("frac_mul needs integers n with |n| <= 2^53")
    a = a.astype(np.float64, copy=False)
    p = a * theta
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * theta
    b_hi = c - (c - theta)
    b_lo = theta - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    f = p - np.floor(p)  # exact: both operands share exponent range
    f = f + err
    f -= np.floor(f)
    return f


def unit(phases):
    """e(t) = exp(2*pi*i*t) elementwise."""
    ph = np.asarray(phases, dtype=np.float64)
    return np.exp(2j * math.pi * ph)


def csum(values: np.ndarray) -> complex:
    """Deterministic compensated sum of a complex array.

    Pairwise numpy partial sums per fixed-size chunk, then exact fsum of
    the chunk results; independent of thread count by construction.
    """
    v = np.asarray(values)
    res = [v[i : i + SUM_CHUNK].sum() for i in range(0, len(v), SUM_CHUNK)]
    return complex(math.fsum(r.real for r in res), math.fsum(r.imag for r in res))


def fsum_chunks(values: np.ndarray) -> float:
    v = np.asarray(values, dtype=np.float64)
    return math.fsum(float(v[i : i + SUM_CHUNK].sum()) for i in range(0, len(v), SUM_CHUNK))


def catalan_constant() -> float:
    """Catalan's constant G = sum_{k>=0} (-1)^k/(2k+1)^2 by paired terms.

    Pairing consecutive terms gives a positive decreasing series with tail
    below 1/(32*pairs^2), under 1e-12 at the 200000 pairs summed here.
    """
    k = np.arange(200_000, dtype=np.float64)
    terms = 1.0 / (4.0 * k + 1.0) ** 2 - 1.0 / (4.0 * k + 3.0) ** 2
    return float(math.fsum(terms))

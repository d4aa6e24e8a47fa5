"""Low-level numeric helpers: exact phases, e(t) and deterministic sums.

Phase accuracy is the main concern: e(n*theta) for n up to 2^40 by naive
multiplication loses all fractional accuracy, so no float phase is scaled.
``fixed_phase`` reduces an exact theta (a float or a Fraction) mod 1 once,
exactly, to the two 64-bit halves of T = floor(frac(theta)*2^128), and
``fixed_phases`` forms (n*theta mod 1)*2^64 for a uint64 array n as
n*t_hi + mul_hi(n, t_lo) in wrapping integer arithmetic, too small by less
than 2 units of 2^-64 (one from the truncated product, and n*2^-64 from the
truncated T) with no float involved.  ``unit_fixed``, the one exponential
kernel, evaluates e(ph/2^64) as a root of unity from a 4096-entry table,
indexed by the top 12 bits, times a short Taylor polynomial in the remaining
52 bits.  ``unit``, the one entry point every other module calls, gives
e(n*theta) for an integer array n through these three in blocks.
``fsum_chunks`` is the one deterministic sum, of a float or complex array.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SUM_CHUNK = 1 << 16  # numpy partial sums per chunk of this size, then fsum
ROOT_BITS = 12  # the root table holds e(k/2^ROOT_BITS) for every k
_LO32 = 0xFFFF_FFFF
_LOW = np.uint64((1 << (64 - ROOT_BITS)) - 1)  # the bits below the table index
_TURN = 2 * math.pi / 2.0**64  # radians per unit of a 64-bit phase
UNIT_BLOCK = 1 << 13  # entries per block of unit: its 7-row workspace is 448 KiB


def mul_hi(x: np.ndarray, y) -> np.ndarray:
    """High 64 bits of the 128-bit products x*y of a uint64 array x and a
    uint64 array or scalar y, from four 32-bit limb products (each below
    2^64, so none wraps)."""
    y0, y1 = y & _LO32, y >> 32
    hi = x >> 32
    lo = x & _LO32
    p01 = lo * y1
    lo *= y0
    lo >>= 32
    p10 = hi * y0
    hi *= y1
    lo += p01 & _LO32
    lo += p10 & _LO32  # the middle column, below 3*2^32
    lo >>= 32
    p01 >>= 32
    p10 >>= 32
    hi += p01
    hi += p10
    hi += lo
    return hi


def fixed_phase(theta: float | Fraction) -> tuple[np.uint64, np.uint64]:
    """(t_hi, t_lo): the high and low 64 bits of T = floor(frac(theta) * 2^128),
    from the exact rational value of theta (any finite float or any Fraction,
    negative or above 1 included)."""
    p, q2 = theta.as_integer_ratio()  # q2 > 0
    t = ((p % q2) << 128) // q2
    return np.uint64(t >> 64), np.uint64(t & ((1 << 64) - 1))


def fixed_phases(n: np.ndarray, t: tuple[np.uint64, np.uint64], out: np.ndarray | None = None) -> np.ndarray:
    """(n*theta mod 1) * 2^64 for a uint64 array n, as uint64: n*t_hi +
    mul_hi(n, t_lo), wrapping, below the true phase by less than 1 + n/2^64."""
    out = np.multiply(n, t[0], out=out)
    out += mul_hi(n, t[1])
    return out


def _root_table() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2*pi*k/2^ROOT_BITS for every k, from the first octant
    by exact symmetry: the second octant swaps cos and sin, and each
    quarter turn maps (c, s) to (-s, c), so e(k/4) is exact and e(1/8) is
    the correctly rounded sqrt(1/2) in both parts."""
    size = 1 << ROOT_BITS
    o = size // 8
    c = np.array([math.cos(2 * math.pi * j / size) for j in range(o)] + [math.sqrt(0.5)])
    s = np.array([math.sin(2 * math.pi * j / size) for j in range(o)] + [math.sqrt(0.5)])
    qc = np.concatenate((c, s[o - 1 : 0 : -1]))  # the first quarter turn
    qs = np.concatenate((s, c[o - 1 : 0 : -1]))
    return np.concatenate((qc, -qs, -qc, qs)), np.concatenate((qs, qc, -qs, -qc))


_ROOT_COS, _ROOT_SIN = _root_table()


def unit_fixed(ph: np.ndarray, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(cos, sin) of 2*pi*ph/2^64 for a uint64 array ph, as float64 views
    into work (six uint64 rows of len(ph); allocated when not given).

    With k the top ROOT_BITS bits of ph and r < 2*pi*2^-12 the angle of the
    rest, e = e(k/2^ROOT_BITS) * (cos r + i sin r): cos r - 1 through r^6
    and sin r through r^5, whose first omitted terms are below 4e-24, and
    the table entry added last, so each part is within about 1 ulp.
    """
    if work is None:
        work = np.empty((6, len(ph)), dtype=np.uint64)
    idx, bits = work[0], work[1]
    tmp, r2, r, cm1, sn, cos = (w.view(np.float64) for w in work)  # tmp and r2 reuse idx and bits
    np.right_shift(ph, 64 - ROOT_BITS, out=idx)
    np.bitwise_and(ph, _LOW, out=bits)
    np.multiply(bits.view(np.int64), _TURN, out=r)  # below 2^52 units: exact in float64
    np.multiply(r, r, out=r2)
    np.multiply(r2, -1 / 720, out=cm1)
    cm1 += 1 / 24
    cm1 *= r2
    cm1 -= 0.5
    cm1 *= r2  # cos r - 1
    np.multiply(r2, 1 / 120, out=sn)
    sn -= 1 / 6
    sn *= r2
    sn *= r
    sn += r  # sin r
    tc, ts = r, r2  # r and r^2 are spent: their rows take the table entries
    _ROOT_COS.take(idx.view(np.int64), out=tc, mode="clip")  # idx is below 2^ROOT_BITS
    _ROOT_SIN.take(idx.view(np.int64), out=ts, mode="clip")
    np.multiply(tc, cm1, out=cos)
    np.multiply(ts, sn, out=tmp)
    cos -= tmp
    cos += tc
    sin = cm1
    sin *= ts
    sn *= tc
    sin += sn
    sin += ts
    return cos, sin


def unit(n: np.ndarray, theta: float | Fraction) -> np.ndarray:
    """Complex e(n*theta) for a 1-d nonnegative int64 or uint64 array n and an
    exact theta (a float or a Fraction), by ``unit_fixed`` at
    fixed_phases(n, fixed_phase(theta)) (under 1 + n/2^64 units of 2^-64
    low), in blocks that share one 7-row workspace: no other full-length
    temporary."""
    ph, res = n.view(np.uint64), np.empty(len(n), dtype=np.complex128)
    t = fixed_phase(theta)
    work = np.empty((7, min(UNIT_BLOCK, len(ph))), dtype=np.uint64)
    for i in range(0, len(ph), UNIT_BLOCK):
        m = min(UNIT_BLOCK, len(ph) - i)
        res.real[i : i + m], res.imag[i : i + m] = unit_fixed(fixed_phases(ph[i : i + m], t, out=work[6, :m]), work[:6, :m])
    return res


def fsum_chunks(values: np.ndarray) -> float | complex:
    """Deterministic sum of a float or complex array: numpy's pairwise
    partial sum per SUM_CHUNK chunk, then an exact fsum of the chunk sums,
    part by part; independent of thread count by construction."""
    v = np.asarray(values)
    res = [v[i : i + SUM_CHUNK].sum() for i in range(0, len(v), SUM_CHUNK)]
    if np.iscomplexobj(v):
        return complex(math.fsum(r.real for r in res), math.fsum(r.imag for r in res))
    return math.fsum(res)


def catalan_constant() -> float:
    """Catalan's constant G = sum_{k>=0} (-1)^k/(2k+1)^2 by paired terms.

    Pairing consecutive terms gives a positive decreasing series with tail
    below 1/(32*pairs^2), under 1e-12 at the 200000 pairs summed here.
    """
    k = np.arange(200_000, dtype=np.float64)
    terms = 1.0 / (4.0 * k + 1.0) ** 2 - 1.0 / (4.0 * k + 3.0) ** 2
    return float(math.fsum(terms))

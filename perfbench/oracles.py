"""Independent witnesses for the benchmark's semantic checks.

Nothing here calls the program: the witnesses are written from the
definitions, with numpy, so that a wrong answer from the program cannot
also produce a matching witness.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

REL = 1e-9  # relative tolerance against a value committed from the reference commit


def parse(text: str):
    """Program output as data: JSON values as such, CSV tables as row lists."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return list(csv.DictReader(io.StringIO(text)))


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def count_members(digits, q: int, x: int) -> int:
    """#{0 <= n <= x : every base-q digit of n lies in digits}."""
    ds = sorted(set(digits))
    xs = []
    t = x
    while t:
        xs.append(t % q)
        t //= q
    xs.reverse()
    lead = [d for d in ds if d > 0]
    total = 1 if 0 in ds else 0
    for length in range(1, len(xs)):
        total += len(lead) * len(ds) ** (length - 1)
    for i, xi in enumerate(xs):
        allowed = lead if i == 0 else ds
        total += sum(1 for d in allowed if d < xi) * len(ds) ** (len(xs) - 1 - i)
        if xi not in allowed:
            break
    else:
        if xs:
            total += 1  # x itself
    return total


def members_below(missing: int, q: int, k: int) -> np.ndarray:
    """Indicator over [0, q^k) of the integers with no base-q digit equal to missing."""
    n = np.arange(q**k, dtype=np.int64)
    ok = np.ones(len(n), dtype=bool)
    rem = n.copy()
    for _ in range(k):
        ok &= rem % q != missing
        rem //= q
    return ok


def primes_in_set(indicator: np.ndarray) -> int:
    """Count of primes n with indicator[n] set, by a plain sieve."""
    n = len(indicator)
    flags = np.ones(n, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return int(np.count_nonzero(flags & indicator))


def l1_by_fft(indicator: np.ndarray) -> float:
    """sum_j |sum_{n in A} e(n j / N)| over the full grid, by FFT."""
    return math.fsum(np.abs(np.fft.fft(indicator.astype(np.float64))).tolist())


def perron_lower_witness(digits, q: int, ell: int, sigma: float, iters: int = 60) -> float:
    """Lower bound on the Perron root of every matrix whose entries dominate
    the cell-midpoint samples (|F_D(mid)|/|D|)^sigma.

    A certified block-transition matrix has entries at least these samples,
    and the Perron root is monotone in the entries; for any positive v,
    min_i (Mv)_i / v_i is at most the Perron root (Collatz-Wielandt).
    """
    n = q ** (ell + 1)
    dim = q**ell
    phi = (np.arange(n, dtype=np.float64) + 0.5) / n
    ds = np.asarray(sorted(digits), dtype=np.float64)
    acc = np.zeros(n, dtype=np.complex128)
    for d in ds:
        acc += np.exp(2j * np.pi * ((d * phi) % 1.0))
    entries = (np.abs(acc) / len(ds)) ** sigma
    col = np.arange(n) % dim
    v = np.ones(dim)
    best = 0.0
    for _ in range(iters):
        w = (entries * v[col]).reshape(dim, q).sum(axis=1)
        best = max(best, float(np.min(w / v)))
        v = w / np.max(w)
        if np.min(v) <= 0.0:
            break
    return best


def window_sum_witness(q: int, missing: int, samples=(0.25, 0.5, 0.75)) -> float:
    """sum over cells [t/q, (t+1)/q) of the largest sampled
    |sum_{d != missing} e(d phi)|: a lower bound for the per-digit sum of
    cell suprema."""
    t = np.arange(q, dtype=np.float64)
    phi = ((t[:, None] + np.asarray(samples)[None, :]) / q).ravel()
    d = np.array([x for x in range(q) if x != missing], dtype=np.float64)
    acc = np.zeros(len(phi), dtype=np.complex128)
    for chunk in np.array_split(d, 8):
        acc += np.exp(2j * np.pi * ((np.outer(phi, chunk)) % 1.0)).sum(axis=1)
    return float(np.abs(acc).reshape(q, len(samples)).max(axis=1).sum())


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % r for r in range(2, math.isqrt(p) + 1))]

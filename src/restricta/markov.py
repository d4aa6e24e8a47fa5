"""Digit-block transition matrices and certified Perron eigenvalue bounds.

The growth of the grid L1 mean of |S_A| per digit is governed by the
largest eigenvalue of a sparse q^ell x q^ell nonnegative matrix whose
entries are certified suprema of the normalised window sum over digit
cells.  A base is certified when that eigenvalue is provably below
q^(1/5).

The certificate is a scaled row-sum bound: for any positive vector v,
the spectral radius of a nonnegative matrix is at most max_I (Mv)_I/v_I
(the largest row sum of the diagonally rescaled similar matrix).  Power
iteration supplies v; every iterate yields a valid bound and the minimum
over iterates is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digit_systems import DigitSystem
from .errors import CapExceeded, Unsupported, UsageError
from .fourier import SLACK, _Window, sin_display_value

ENTRY_CAP = 10**7
DEFAULT_GRID = 1  # Taylor subcells per matrix cell
MIN_SUBCELLS = 10**5  # per circle: coarse ell keep the remainder of ell = 4, q = 10
POWER_TOL = 1e-10
POWER_MAX_ITER = 100_000


@dataclass(frozen=True)
class TransitionMatrix:
    """Sparse q^ell x q^ell block-transition matrix.

    Entry (I, J) is nonzero only when J is the left-shift of I extended by
    one digit t; the q^(ell+1) stored values are indexed by the combined
    (ell+1)-digit word m = I*q + t, and column J = m mod q^ell.
    """

    sys: DigitSystem
    ell: int
    entries: np.ndarray  # length q^(ell+1), already raised to sigma

    @property
    def dim(self) -> int:
        return self.sys.q**self.ell

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(Mv)[I] = sum_t entries[I*q + t] * v[(I*q + t) mod q^ell]: the
        stored entries, read as q rows of length q^ell, meet v column by
        column, so no index array is needed."""
        q, dim = self.sys.q, self.dim
        return (self.entries.reshape(q, dim) * v).reshape(dim, q).sum(axis=1)


@dataclass(frozen=True)
class EigenCertificate:
    """Certified spectral-radius bound with its power-iteration estimate."""

    row_sum_bound: float
    power_estimate: float
    iterations: int
    threshold: float
    certified: bool
    converged: bool
    ell: int
    sigma: float

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "sigma": self.sigma,
            "rowSumBound": self.row_sum_bound,
            "powerEstimate": self.power_estimate,
            "iterations": self.iterations,
            "threshold": self.threshold,
            "certified": self.certified,
            "converged": self.converged,
        }


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0):
        raise UsageError(f"need a finite sigma > 0, got {sigma}")


def build_matrix(
    sys: DigitSystem, ell: int, sigma: float = 1.0, grid: int = DEFAULT_GRID
) -> TransitionMatrix:
    """Build the block-transition matrix for ell-digit contexts.

    Entry value for the digit word (t_1 .. t_{ell+1}) is the certified
    supremum of F_D/|D| over the width-q^-(ell+1) cell it pins down, from
    ``grid`` or more Taylor subcells per cell, raised to sigma.  The bound
    is taken before exponentiation so the power map preserves it.
    """
    if ell < 1:
        raise UsageError("need ell >= 1")
    _check_sigma(sigma)
    n_words = sys.q ** (ell + 1)
    if n_words > ENTRY_CAP:
        raise CapExceeded(f"q^(ell+1) = {n_words} above cap {ENTRY_CAP}")
    grid = max(grid, -(-MIN_SUBCELLS // n_words))
    entries = _Window(sys).cell_sup(n_words, grid)
    entries /= sys.size
    entries **= sigma
    return TransitionMatrix(sys, ell, entries)


def _iterate(m: TransitionMatrix):
    """Power iteration from all-ones with max-norm normalisation, until the
    Rayleigh quotient moves by less than POWER_TOL or POWER_MAX_ITER steps.

    Tracks the best (smallest) scaled row-sum bound across iterates: every
    positive iterate v gives the certified bound max (Mv)/v.  Returns
    (best_bound, rayleigh, iterations, converged).
    """
    v = np.ones(m.dim)
    best = math.inf
    rayleigh = 0.0
    prev = math.inf
    converged = False
    iters = 0
    for iters in range(1, POWER_MAX_ITER + 1):
        w = m.matvec(v)
        vv = np.maximum(v, 1e-300)
        bound = float(np.max(w / vv)) * (1.0 + 1e-12) + SLACK
        best = min(best, bound)
        denom = float(v @ v)
        rayleigh = float(v @ w) / denom if denom > 0 else 0.0
        top = float(np.max(w))
        if top <= 0.0:  # nilpotent-like: spectral radius 0
            return 0.0, 0.0, iters, True
        w /= top
        if abs(rayleigh - prev) < POWER_TOL:
            converged = True
            v = w
            break
        prev = rayleigh
        v = w
    return best, rayleigh, iters, converged


def row_sum_bound(m: TransitionMatrix) -> float:
    """Certified upper bound on the spectral radius via scaled row sums.

    The first iterate (v = all ones) reproduces the plain maximal row sum;
    subsequent Perron-rescaled iterates tighten it.  Accumulated with
    upward slack so the comparison against a threshold stays safe.
    """
    best, _, _, _ = _iterate(m)
    return best


def analytic_ell1_bound(sys: DigitSystem, sigma: float) -> float | None:
    """Matrix-free bound for the ell = 1 eigenvalue of one-missing-digit
    systems: the per-digit sin-bound sum divided by |D| dominates every
    column sum of the sigma = 1 matrix.  Its entries lie in [0, 1], so
    raising them to sigma >= 1 does not increase them and the bound holds
    there too; below 1 it does not (x^sigma >= x), and Unsupported is
    raised.  None when the digit set has another shape."""
    if sys.size != sys.q - 1:
        return None
    if sigma < 1:
        raise Unsupported(f"the matrix-free ell = 1 bound needs sigma >= 1, got {sigma}")
    return sin_display_value(sys.q) / sys.size


def certify_base(
    sys: DigitSystem,
    ell_max: int,
    sigma: float = 1.0,
    threshold: float | None = None,
) -> EigenCertificate:
    """Certify via the lambda_ell < q^(1/5) criterion.

    Builds matrices for ell = 1..ell_max (within the entry cap) and returns
    the first certificate whose bound beats the threshold, else the best
    bound found.  When even ell = 1 exceeds the cap, falls back to the
    matrix-free column bound for one-missing-digit systems at sigma >= 1.
    """
    if ell_max < 1:
        raise UsageError("need ell_max >= 1")
    _check_sigma(sigma)
    matrix_free = sys.q**2 > ENTRY_CAP  # not even ell = 1 fits the cap
    if matrix_free:
        analytic = analytic_ell1_bound(sys, sigma)
        if analytic is None:
            raise CapExceeded(f"no ell within entry cap {ENTRY_CAP} (largest attempted 0)")
    thr = sys.q ** (1.0 / 5.0) if threshold is None else float(threshold)

    def certificate(ell, bound, estimate, iterations, converged):
        return EigenCertificate(
            row_sum_bound=bound,
            power_estimate=estimate,
            iterations=iterations,
            threshold=thr,
            certified=bound < thr,
            converged=converged,
            ell=ell,
            sigma=float(sigma),
        )

    if matrix_free:
        return certificate(1, analytic * (1.0 + 1e-12), 0.0, 0, True)
    best: EigenCertificate | None = None
    for ell in range(1, ell_max + 1):
        if sys.q ** (ell + 1) > ENTRY_CAP:
            break
        cert = certificate(ell, *_iterate(build_matrix(sys, ell, sigma)))
        if cert.certified:
            return cert
        if best is None or cert.row_sum_bound < best.row_sum_bound:
            best = cert
    return best

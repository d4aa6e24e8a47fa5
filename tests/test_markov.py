
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restricta import markov as M
from restricta.digit_systems import DigitSystem
from restricta.errors import CapExceeded, Unsupported, UsageError

from tests.oracles import digit_window_sum


def from_dense(rows) -> M.TransitionMatrix:
    """A nonnegative n x n matrix as the ell = 1 matrix of base n, whose
    entry (I, J) sits at the word I*n + J."""
    arr = np.asarray(rows, dtype=np.float64)
    n = len(arr)
    return M.TransitionMatrix(DigitSystem.of(n, range(n)), 1, arr.ravel())


def dense_from(mat: M.TransitionMatrix) -> np.ndarray:
    q, n = mat.sys.q, mat.dim
    dense = np.zeros((n, n))
    for word in range(len(mat.entries)):
        dense[word // q, word % n] += mat.entries[word]
    return dense


class TestBuild:
    def test_entry_count_and_support(self):
        sys = DigitSystem.excluding(10, {7})
        m = M.build_matrix(sys, 1)
        assert len(m.entries) == 100
        dense = dense_from(m)
        assert (np.count_nonzero(dense, axis=1) <= 10).all()
        assert (np.count_nonzero(dense, axis=0) <= 10).all()

    def test_all_zero_context_entry_is_one(self):
        m = M.build_matrix(DigitSystem.excluding(10, {7}), 1)
        assert dense_from(m)[0, 0] == 1.0

    def test_off_pattern_entry_is_zero(self):
        m = M.build_matrix(DigitSystem.excluding(10, {7}), 2)
        # row (1, 2) reaches only the columns (2, t)
        dense = dense_from(m)
        assert dense[12, 34] == 0.0
        assert dense[12, 24] > 0.0

    def test_full_set_entries_bounded(self):
        m = M.build_matrix(DigitSystem.of(10, range(10)), 1)
        assert np.all(m.entries <= 1.0 + 1e-9)

    def test_entries_match_oversampled_oracle(self):
        # q = 3, ell = 2, missing digit 1: all 27 entries against a 4096-point
        # eta oversampling of the cell supremum
        sys = DigitSystem.of(3, (0, 2))
        m = M.build_matrix(sys, 2, grid=512)
        Q = 27
        for word in range(Q):
            eta = np.arange(4097) / 4096
            phi = (word + eta) / Q
            oracle = max(digit_window_sum(sys, p) for p in phi.tolist()) / 2
            assert m.entries[word] >= oracle - 1e-12
            assert m.entries[word] <= oracle + 0.01

    def test_sigma_applied_after_padding(self):
        sys = DigitSystem.excluding(10, {7})
        m1 = M.build_matrix(sys, 1, sigma=1.0)
        m2 = M.build_matrix(sys, 1, sigma=2.0)
        assert np.allclose(m2.entries, m1.entries**2, rtol=1e-12)

    def test_sigma_monotone_on_small_entries(self):
        sys = DigitSystem.excluding(10, {7})
        m1 = M.build_matrix(sys, 2, sigma=1.0)
        m15 = M.build_matrix(sys, 2, sigma=1.5)
        small = m1.entries <= 1.0
        assert np.all(m15.entries[small] <= m1.entries[small] + 1e-15)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            M.build_matrix(DigitSystem.excluding(10, {7}), 7)
        with pytest.raises(UsageError):
            M.build_matrix(DigitSystem.excluding(10, {7}), 0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        sys = DigitSystem.excluding(10, {7})
        with pytest.raises(UsageError):
            M.build_matrix(sys, 1, sigma=sigma)
        with pytest.raises(UsageError):
            M.certify_base(sys, 1, sigma=sigma)


class TestRowSumBound:
    def test_dense_fixture(self):
        assert M.row_sum_bound(from_dense([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, abs=1e-9)

    def test_identity(self):
        assert M.row_sum_bound(from_dense(np.eye(4))) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.lists(
            st.lists(st.floats(0, 10, allow_nan=False), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dominates_spectral_radius(self, rows):
        mat = np.array(rows)
        m = from_dense(mat)
        assert np.array_equal(dense_from(m), mat)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "POWER_MAX_ITER", 300)
            bound = M.row_sum_bound(m)
            best, rayleigh, _, _ = M._iterate(m)
        rho = max(abs(np.linalg.eigvals(mat)))
        assert bound >= rho - 1e-8
        assert rayleigh <= best + 1e-6


class TestPowerEigenvalue:
    def test_identity_one_step(self):
        _, rayleigh, _, converged = M._iterate(from_dense(np.eye(3)))
        assert rayleigh == pytest.approx(1.0)
        assert converged

    def test_dense_fixture(self):
        _, rayleigh, _, _ = M._iterate(from_dense([[2.0, 1.0], [1.0, 2.0]]))
        assert rayleigh == pytest.approx(3.0, abs=1e-10)

    def test_matches_dense_eigensolver(self):
        sys = DigitSystem.excluding(10, {7})
        cert = M.certify_base(sys, 2)
        assert cert.ell == 2
        rho = max(abs(np.linalg.eigvals(dense_from(M.build_matrix(sys, 2)))))
        assert cert.power_estimate == pytest.approx(rho, abs=1e-8)
        assert cert.power_estimate <= cert.row_sum_bound
        assert cert.row_sum_bound >= rho - 1e-10


class TestCertify:
    def test_base_ten_not_certified(self):
        cert = M.certify_base(DigitSystem.excluding(10, {7}), 2)
        assert not cert.certified
        assert cert.threshold == pytest.approx(10 ** 0.2)
        assert cert.row_sum_bound > cert.threshold

    def test_bound_improves_with_ell(self):
        sys = DigitSystem.excluding(10, {7})
        b1 = M.row_sum_bound(M.build_matrix(sys, 1))
        b2 = M.row_sum_bound(M.build_matrix(sys, 2))
        assert b2 <= b1 * (1 + 1e-9)

    def test_large_base_analytic_route(self):
        cert = M.certify_base(DigitSystem.excluding(133360, {0}), 1)
        assert cert.certified
        assert cert.ell == 1
        assert cert.row_sum_bound < 133360 ** 0.2

    def test_large_base_analytic_route_refuses_sigma_below_one(self):
        # x^sigma >= x on [0, 1]: the sigma = 1 column bound is no bound there
        sys = DigitSystem.excluding(133360, {0})
        with pytest.raises(Unsupported):
            M.certify_base(sys, 1, sigma=0.5)
        assert M.certify_base(sys, 1, sigma=1.5).certified

    def test_large_base_below_cutoff_fails(self):
        cert = M.certify_base(DigitSystem.excluding(133358, {0}), 1)
        assert not cert.certified

    def test_threshold_override(self):
        cert = M.certify_base(DigitSystem.excluding(10, {7}), 1, threshold=5.0)
        assert cert.certified  # lambda_1 ~ 2.4 < 5

    def test_general_set_above_cap_raises(self):
        with pytest.raises(CapExceeded):
            M.certify_base(DigitSystem.of(10**5, (0, 1, 2)), 1)

    # sigma = 1 returns the best of ell = 1, 2; sigma = 235/154 certifies at ell = 1
    @pytest.mark.parametrize("sigma, ell", [(1.0, 2), (235 / 154, 1)])
    def test_certificate_reads_iterate(self, sigma, ell):
        sys = DigitSystem.excluding(10, {7})
        js = M.certify_base(sys, 2, sigma=sigma).to_json()
        bound, rayleigh, iterations, converged = M._iterate(M.build_matrix(sys, ell, sigma))
        assert (js["ell"], js["sigma"], js["iterations"], js["rowSumBound"]) == (ell, sigma, iterations, bound)
        assert (js["powerEstimate"], js["converged"]) == (rayleigh, converged)

    def test_certificate_json_shape(self):
        cert = M.certify_base(DigitSystem.excluding(10, {7}), 1)
        js = cert.to_json()
        assert set(js) == {
            "ell", "sigma", "rowSumBound", "powerEstimate",
            "iterations", "threshold", "certified", "converged",
        }


# Row-sum bounds for missing digit b = 0..9 from the Lipschitz-grid kernel
# (513 points per cell) that the Taylor kernel replaced; no bound may be
# looser.
LIPSCHITZ_SIGMA1 = {
    1: (
        2.2341510443384345,
        2.366515925244904,
        2.4116115649328833,
        2.4152740224959013,
        2.436240114384027,
        2.4363095178154324,
        2.415477826155,
        2.411942449991766,
        2.366948084242314,
        2.234151044338435,
    ),
    2: (
        2.06114053965773,
        2.203894508800771,
        2.239078875666596,
        2.23607977091148,
        2.2607132148243267,
        2.260720265238196,
        2.2361004073940705,
        2.239112659912657,
        2.203938632433802,
        2.06114053965773,
    ),
    3: (
        2.0430617259381494,
        2.1885174843361046,
        2.224083749686861,
        2.219078227884173,
        2.2435992611247744,
        2.243599966678813,
        2.219080291627297,
        2.224087127320309,
        2.1885219022195237,
        2.0430617259381494,
    ),
    4: (
        2.0412446172847702,
        2.1869911745522876,
        2.222606354345667,
        2.2173925672063706,
        2.2418951547078074,
        2.241895225268474,
        2.2173927735784966,
        2.222606692092343,
        2.1869916163909715,
        2.0412446172847707,
    ),
}
LIPSCHITZ_ELL4_SIGMA2 = (
    1.3328632264880926,
    1.356553126576587,
    1.3646247425645348,
    1.3664531708503072,
    1.3685401475322254,
    1.3685401830200707,
    1.3664532743218036,
    1.3646249136197042,
    1.3565533444728264,
    1.3328632264880926,
)


class TestNoLooser:
    @pytest.mark.parametrize("b", range(10))
    def test_row_sums(self, b):
        sys = DigitSystem.excluding(10, {b})
        for ell in (1, 2, 3, 4):
            assert M.row_sum_bound(M.build_matrix(sys, ell, 1.0)) <= LIPSCHITZ_SIGMA1[ell][b]
        assert M.row_sum_bound(M.build_matrix(sys, 4, 235 / 154)) <= LIPSCHITZ_ELL4_SIGMA2[b]


def test_markov_certificates_script(tmp_path):
    # the script finds the package in its own checkout: no install, no PYTHONPATH
    script = Path(__file__).resolve().parent.parent / "scripts" / "markov_certificates.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--q", "5", "--ell-max", "2"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},  # no __pycache__ in src/
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line for line in lines if line[:1].isdigit()]
    assert [row.split()[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(len(row.split()) == 3 for row in rows)
    assert lines[-1].startswith("(* = certified")

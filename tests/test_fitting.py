import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lab import (
    RankDeficientError,
    build_rainbow_profile,
    chain_svd,
    deformed_length,
    fit_2d,
    fit_renyi_halfchain,
    linear_lsq,
    polar_block,
    renyi_entropies,
    vn_entropy,
)

from rainbow_lab.entanglement import halfchain_nu as fold_nu
from rainbow_lab.fitting import _renyi_design

from conftest import halfchain_nu


def curve_of(pairs):
    """(sizes, values) of (size, value) pairs."""
    return [s for s, _ in pairs], [v for _, v in pairs]


def fit_central_charge(sizes, values, order: float = 1):
    """Fit S = c (1/12)(1 + 1/n) ln(size) + c' on half-chain Renyi-n
    entropies.

    For n = 1 the prefactor reduces to the usual c/6.  The abscissa is
    whatever sizes are given, so feeding deformed lengths L~ instead of L
    performs the deformed fit directly.
    """
    sizes = np.asarray(sizes, dtype=float)
    if sizes.size < 3:
        raise ValueError(f"need at least 3 sizes, got {sizes.size}")
    pref = (1.0 + 1.0 / order) / 12.0
    design = np.column_stack([pref * np.log(sizes), np.ones_like(sizes)])
    return linear_lsq(design, values, names=("c", "cprime"))


# Sizes used to pin the oscillation amplitudes empirically at z = 0.
_FN_SIZES = (40, 41, 60, 61, 80, 81, 100, 101, 140, 141)


def fn_constants(n: int) -> float:
    """Oscillation amplitude f_n of the uniform half-chain entropies.

    f_1 = -1 is exact.  For n >= 2 the closed form is not available
    here, so the amplitude is pinned by fitting exact uniform-chain data
    at z = 0; it serves as the reference point for the f_n(z) decay law.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return -1.0
    values = []
    for L in _FN_SIZES:
        nu = fold_nu(build_rainbow_profile(L, 1.0))
        values.append(renyi_entropies(nu, [n])[0])
    return fit_renyi_halfchain(_FN_SIZES, values, n=n)["f_n"]


class TestLinearLsq:
    def test_square_exact(self):
        X = np.array([[1.0, 2.0], [3.0, 1.0]])
        beta = np.array([0.7, -1.3])
        fit = linear_lsq(X, X @ beta)
        assert fit.chi2 <= 1e-20
        assert fit.coefficients["b0"] == pytest.approx(0.7, abs=1e-12)

    def test_noiseless_recovery(self, rng):
        X = rng.normal(size=(30, 4))
        beta = np.array([1.5, -2.0, 0.25, 3.0])
        fit = linear_lsq(X, X @ beta)
        assert list(fit.coefficients.values()) == pytest.approx(beta, abs=1e-10)

    def test_line_fit(self):
        x = np.arange(10, dtype=float)
        fit = linear_lsq(np.column_stack([x, np.ones_like(x)]), 2 * x + 1,
                         names=("slope", "icept"))
        assert fit["slope"] == pytest.approx(2.0)
        assert fit["icept"] == pytest.approx(1.0)

    def test_rank_deficiency_names_column(self):
        x = np.arange(8, dtype=float)
        X = np.column_stack([x, 2 * x, np.ones_like(x)])
        with pytest.raises(RankDeficientError) as err:
            linear_lsq(X, x)
        assert "column 1" in str(err.value)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            linear_lsq(np.ones((2, 3)), np.ones(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        fit = linear_lsq(X, y)
        beta = np.array(list(fit.coefficients.values()))
        r = X @ beta - y
        assert np.max(np.abs(X.T @ r)) < 1e-8 * max(1.0, np.linalg.norm(y))


class TestCentralCharge:
    def test_synthetic_exact(self):
        sizes = [50, 100, 200, 400]
        fit = fit_central_charge(
            *curve_of([(L, math.log(L) / 6 + 0.7) for L in sizes])
        )
        assert fit["c"] == pytest.approx(1.0, abs=1e-10)
        assert fit["cprime"] == pytest.approx(0.7, abs=1e-10)

    def test_uniform_chain_data(self):
        pairs = [(L, vn_entropy(halfchain_nu(L, alpha=1.0))) for L in (50, 100, 200, 400)]
        fit = fit_central_charge(*curve_of(pairs))
        assert abs(fit["c"] - 1.0) < 0.05

    def test_deformed_abscissa(self):
        # z = 1 data against ln(L~) recovers c = 1
        pairs = []
        for L in (50, 100, 200, 400):
            pairs.append((deformed_length(1.0 / L, L), vn_entropy(halfchain_nu(L, z=1.0))))
        fit = fit_central_charge(*curve_of(pairs))
        assert abs(fit["c"] - 1.0) < 0.05

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            fit_central_charge(*curve_of([(10, 1.0), (20, 1.2)]))

    def test_roundtrip_own_model(self):
        sizes = [60, 80, 100, 140, 200]
        for n in (1, 2):
            pref = (1 + 1 / n) / 12
            fit = fit_central_charge(
                *curve_of([(L, 1.3 * pref * math.log(L) - 0.4) for L in sizes]),
                order=n,
            )
            assert fit["c"] == pytest.approx(1.3, abs=1e-10)
            assert fit["cprime"] == pytest.approx(-0.4, abs=1e-10)

    def test_ell_scan_with_oscillation_column(self):
        # chord-variable fit over a boundary-block scan, oscillation included
        L = 100
        svd = chain_svd(build_rainbow_profile(L, 1.0))
        ells = np.arange(1, 2 * L)
        S = np.array([vn_entropy(polar_block(svd, range(l))) for l in ells])
        keep = ells >= 4
        chord = 4 * L / np.pi * np.sin(np.pi * ells[keep] / (2 * L))
        X = np.column_stack(
            [np.log(chord) / 6, np.ones(int(keep.sum())),
             np.cos(np.pi * ells[keep]) * (2 * chord) ** (-1.0)]
        )
        fit = linear_lsq(X, S[keep], names=("c", "cprime", "f1"))
        assert abs(fit["c"] - 1.0) < 0.05


class TestRenyiHalfchain:
    SIZES = (40, 41, 60, 61, 80, 81, 100, 101)

    def values(self, z, n):
        return [
            renyi_entropies(halfchain_nu(L, z=z), [n])[0] for L in self.SIZES
        ]

    def test_c_near_one_z0(self):
        fit = fit_renyi_halfchain(self.SIZES, self.values(0.0, 1), n=1)
        assert abs(fit["c_n"] - 1.0) < 0.04

    def test_constant_shift_moves_only_d(self):
        base = self.values(1.0, 2)
        shifted = [v + 0.37 for v in base]
        a = fit_renyi_halfchain(self.SIZES, base, n=2)
        b = fit_renyi_halfchain(self.SIZES, shifted, n=2)
        assert b["c_n"] == pytest.approx(a["c_n"], abs=1e-10)
        assert b["f_n"] == pytest.approx(a["f_n"], abs=1e-10)
        assert b["d_n"] - a["d_n"] == pytest.approx(0.37, abs=1e-10)

    def test_single_parity_rejected(self):
        sizes = (40, 60, 80, 100, 120, 140)
        values = [vn_entropy(halfchain_nu(L, z=0.0)) for L in sizes]
        with pytest.raises(RankDeficientError):
            fit_renyi_halfchain(sizes, values, n=1)

    def test_too_few_sizes(self):
        sizes = (40, 41, 60)
        values = [vn_entropy(halfchain_nu(L, z=0.0)) for L in sizes]
        with pytest.raises(ValueError):
            fit_renyi_halfchain(sizes, values, n=1)

    def test_ansatz_design_full_rank(self):
        X = _renyi_design([10, 11, 12, 13, 14, 15], 3.0)
        assert np.linalg.matrix_rank(X) == 3


class TestFit2D:
    def test_synthetic_exact(self):
        sizes = [8, 12, 16, 20, 24]
        fit = fit_2d(*curve_of([(L, 0.05 * L + 0.2 * math.log(L) + 0.9) for L in sizes]))
        assert fit["A"] == pytest.approx(0.05, abs=1e-10)
        assert fit["B"] == pytest.approx(0.2, abs=1e-10)
        assert fit["C"] == pytest.approx(0.9, abs=1e-10)

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            fit_2d(*curve_of([(8, 1.0), (12, 1.1), (16, 1.2), (20, 1.3)]))


class TestFnConstants:
    def test_f1_exact(self):
        assert fn_constants(1) == -1.0

    def test_f2_negative_and_stable(self):
        f2 = fn_constants(2)
        assert -1.0 < f2 < -0.3

    def test_fn_z_invariant_combination(self):
        # f_n(z) (L~/L)^(1/n) should not drift with z
        n = 2
        sizes = (40, 41, 60, 61, 80, 81, 100, 101)
        ref = None
        for z in (0.0, 1.0, 2.0):
            values = [renyi_entropies(halfchain_nu(L, z=z), [n])[0] for L in sizes]
            fit = fit_renyi_halfchain(sizes, values, n=n)
            scale = (math.expm1(z) / z if z > 0 else 1.0) ** (1.0 / n)
            combo = fit["f_n"] * scale
            if ref is None:
                ref = combo
            assert abs(combo / ref - 1) < 0.10

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            fn_constants(0)

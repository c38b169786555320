import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from rainbow_lab import (
    ZeroModeError,
    analytic_wavefunction,
    deformed_length,
    orbitals_from_svd,
    overlap_crossing,
    profile_from_z,
    validity_overlap,
)
from rainbow_lab import _lapack, continuum
from rainbow_lab.continuum import _expm1_over_h
from rainbow_lab.spectra import NumericsError

import dense_oracle as oracle
from conftest import chain_occupied, chain_spectrum


class TestCoordinateMap:
    def test_deformed_length_bounds(self):
        assert deformed_length(0.0, 50) == pytest.approx(50.0)
        assert deformed_length(0.1, 50) > 50.0

    @pytest.mark.parametrize("h, x", [(9e-9, 1e6), (9.9e-9, 2e6), (1e-12, 3.0), (5e-9, 7e7)])
    def test_small_h_matches_mpmath(self, h, x):
        # a three-term series below h = 1e-8 was 3.0e-8 and 3.2e-7 off at the
        # first two points; expm1 has no such regime
        with mpmath.workdps(60):
            want = float(mpmath.expm1(mpmath.mpf(h) * x) / h)
        assert abs(deformed_length(h, x) / want - 1) <= 1e-15

    def test_zero_h_is_the_identity(self):
        assert deformed_length(0.0, 50) == 50.0

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_h_raises(self, h):
        # NaN used to read as the h = 0 limit and inf to return NaN
        with pytest.raises(ValueError, match="h must be finite and non-negative"):
            deformed_length(h, 10)

    @pytest.mark.parametrize("h", [5e-324, 1.5e-323, 1e-310])
    def test_subnormal_h_is_the_identity(self, h):
        # expm1(h x)/h is off by up to 100%, 33% and 5e-14 at these h: the
        # product h x is subnormal and has lost its relative precision
        xs = np.array([0.5, 1.5, 3.0, 3.5, 50.0, 1e6])
        assert _expm1_over_h(h, xs).tobytes() == xs.tobytes()
        for L in (0.5, 3.5, 4.0, 50.0, 1e6):
            assert deformed_length(h, L) == L


class TestAnalyticWavefunction:
    def test_uniform_overlap(self):
        _, svd = chain_spectrum(100, alpha=1.0)
        ana = analytic_wavefunction(0, 0.0, 100)
        assert abs(ana @ orbitals_from_svd(svd)[:, 100]) > 0.999

    def test_deformed_overlap(self):
        _, svd = chain_spectrum(200, z=1.0)
        ana = analytic_wavefunction(0, 1.0 / 200, 200)
        assert abs(ana @ orbitals_from_svd(svd)[:, 200]) > 0.99

    def test_unit_norm(self):
        v = analytic_wavefunction(2, 0.05, 60)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_scaled_collapse_smoothed_density(self):
        # same z, two sizes: the 4-site smoothed probability density,
        # rescaled by L, falls on one curve in n/L (the raw components
        # carry a lattice-period comb that cannot collapse pointwise)
        def smoothed(L, z):
            v = analytic_wavefunction(0, z / L, L) ** 2 * L
            w = np.convolve(v, np.ones(4) / 4, mode="valid")
            x = ((np.arange(2 * L) - L + 0.5) / L)[2:-1]
            return x, w

        x1, w1 = smoothed(100, 2.0)
        x2, w2 = smoothed(200, 2.0)
        dev = np.max(np.abs(w1 - np.interp(x1, x2, w2)))
        assert dev < 0.03 * np.max(w1)

    def test_near_fermi_beats_deep_levels(self):
        L = 200
        _, svd = chain_spectrum(L, z=1.0)
        orbitals = orbitals_from_svd(svd)
        shallow = abs(analytic_wavefunction(-4, 1.0 / L, L) @ orbitals[:, L - 4])
        deep = abs(analytic_wavefunction(-180, 1.0 / L, L) @ orbitals[:, L - 180])
        assert shallow > deep


class TestOverlaps:
    """The contract of the oracle's slater_overlap, which the differential
    tests of validity_overlap take as their reference."""

    def test_slater_self(self):
        occ = chain_occupied(6, alpha=0.8)
        assert oracle.slater_overlap(occ, occ) == pytest.approx(1.0)

    def test_slater_rotation_invariance(self, rng):
        occ = chain_occupied(6, alpha=0.8)
        a = rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(a)
        assert oracle.slater_overlap(occ, occ @ q) == pytest.approx(1.0)

    def test_slater_rank_deficient(self):
        occ = chain_occupied(4, alpha=0.9).copy()
        occ[:, 1] = occ[:, 0]
        with pytest.raises(ValueError, match="not orthonormal"):
            oracle.slater_overlap(occ, occ)

    def test_slater_nan_refused(self):
        occ = chain_occupied(4, alpha=0.9).copy()
        occ[0, 0] = math.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            oracle.slater_overlap(chain_occupied(4, alpha=0.9), occ)

    def test_slater_scaled_column_refused(self):
        # full rank, ||A^T A - I||_F = 0.44 < 1/2, but not orthonormal
        occ = chain_occupied(4, alpha=0.9).copy()
        occ[:, 2] *= 1.2
        with pytest.raises(ValueError, match="not orthonormal"):
            oracle.slater_overlap(occ, chain_occupied(4, alpha=0.9))

    def test_slater_orthonormal_sets_skip_the_rank_svd(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("rank SVD called")

        a = chain_occupied(6, alpha=0.8)
        b, _ = np.linalg.qr(rng.normal(size=(12, 6)))
        want = abs(np.linalg.det(a.T @ b))
        monkeypatch.setattr(_lapack, "_gesdd", refuse)
        assert oracle.slater_overlap(a, b) == pytest.approx(want, rel=1e-12)

    def test_slater_far_from_orthonormal_asks_matrix_rank(self):
        occ = chain_occupied(4, alpha=0.9)
        # full rank, but ||A^T A - I||_F = 6: refused, not answered 2^4
        with pytest.raises(ValueError, match="not orthonormal"):
            oracle.slater_overlap(2.0 * occ, occ)

    def test_shape_mismatch(self):
        a = chain_occupied(4, alpha=0.9)
        with pytest.raises(ValueError):
            oracle.slater_overlap(a, a[:, :2])


VM_L = (30, 50)
VM_Z = (0.0, 0.1, 0.2, 0.35, 0.5, 1.0)


@pytest.fixture(scope="module")
def overlaps():
    return np.array([[validity_overlap(L, z) for z in VM_Z] for L in VM_L])


class TestValidityMap:

    def test_z0_column_high(self, overlaps):
        # deep-band lattice corrections cap the z=0 overlap near 0.989
        assert overlaps.shape == (len(VM_L), len(VM_Z))
        assert np.all(overlaps[:, 0] > 0.98)

    def test_decreases_with_z(self, overlaps):
        for row in overlaps:
            assert row[-1] < row[0]
            tail = row[row < 0.95]
            assert np.all(np.diff(tail) <= 1e-12)

    def test_contours_ordered(self, overlaps):
        for row in overlaps:
            z90 = overlap_crossing(VM_Z, row, 0.90)
            z95 = overlap_crossing(VM_Z, row, 0.95)
            if not (math.isnan(z90) or math.isnan(z95)):
                assert z95 <= z90

    def test_overlap_below_critical_z(self, overlaps):
        # at any z below the measured 0.90 contour the overlap exceeds 0.9
        z90 = overlap_crossing(VM_Z, overlaps[VM_L.index(50)], 0.90)
        assert not math.isnan(z90)
        assert validity_overlap(50, z90 / 2) > 0.9


GRID_L = (1, 2, 7, 50, 51, 101, 300)
GRID_Z = (0.0, 1.0, 4.0, 30.0, 92.0)


def _stacked_occupied(L, h):
    """The per-level route: one analytic_wavefunction call per level,
    orthonormalized by the QR call the oracle's continuum_occupied makes.
    Past z ~ 1 the columns are near-dependent, so Q depends on which LAPACK
    computes it (numpy's QR differs from SciPy's by far more than 1e-14 at
    L = 300)."""
    cols = np.column_stack(
        [analytic_wavefunction(m, h, L) for m in range(-L, 0)]
    )
    return sla.qr(cols, mode="economic", check_finite=False)[0]


def _assert_relatively_close(got, want):
    """The two overlap routes agree to 1e-8 relative down to an overlap of
    1e-9, and to 1e-5 down to 1e-20.  Both drift apart as the analytic
    levels grow near-dependent: over L <= 300, z <= 1 they were at most
    4.3e-10 and 4.4e-7 apart in those two ranges, 1e-3 near 1e-30, and
    are rounding below ROADMAP item 8's floor of ~1e-40, where only the
    absolute bound holds."""
    if want >= 1e-9:
        assert abs(got / want - 1.0) <= 1e-8, (got, want)
    elif want >= 1e-20:
        assert abs(got / want - 1.0) <= 1e-5, (got, want)


class TestVectorizedLevels:
    """validity_overlap builds each mirror-parity sector's levels in one
    broadcast on the L left sites and applies their QR's Q implicitly; the
    per-level analytic_wavefunction, the 2L-site route it replaced, the
    explicit Q and the dense exact route are its oracles."""

    @pytest.mark.parametrize("L", GRID_L)
    @pytest.mark.parametrize("z", GRID_Z)
    def test_matches_stacked_levels(self, L, z):
        got = oracle.continuum_occupied(L, z / L)
        assert np.max(np.abs(got - _stacked_occupied(L, z / L))) <= 1e-14

    @pytest.mark.parametrize("L,h", [(1, 0.0), (7, 1e-9), (50, 0.02), (51, 1.8)])
    def test_formula_per_level(self, L, h):
        # one level at a time, as the formula reads; the wavefunction artifact
        # prints these samples, so they must not move by even one ulp
        ns = np.arange(2 * L) - L + 0.5
        absn = np.abs(ns)
        ratio = np.asarray(_expm1_over_h(h, absn)) / deformed_length(h, L)
        for m in (-L, -1, 0, L - 1):
            phase = (np.pi * (ns - m) / 2.0
                     + np.sign(ns) * (np.pi * (m + 0.5) / 2.0) * ratio)
            v = np.exp(h * absn / 2.0) * np.cos(phase)
            got = analytic_wavefunction(m, h, L)
            assert np.array_equal(got, v / np.linalg.norm(v))

    def test_negative_h_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            continuum._analytic_levels(np.arange(-5, 0), -0.1, 5)

    def test_overlaps_match_dense_route(self):
        for L in GRID_L:
            for z in GRID_Z:
                exact = oracle.occupied(oracle.diagonalize(
                    *oracle.chain_hamiltonian(profile_from_z(L, z))
                ))
                want = oracle.slater_overlap(_stacked_occupied(L, z / L), exact)
                assert abs(validity_overlap(L, z) - want) <= 1e-12, (L, z)

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 50, 51, 52, 101, 200, 202, 300])
    @pytest.mark.parametrize("z", [0.0, 0.03, 0.3, 1.0, 1.03, 4.0, 30.0, 92.0])
    def test_matches_full_chain_route(self, L, z):
        # the two parity sectors on the L left sites against the 2L-site
        # route they replaced; odd L has one more mirror-even exact orbital
        # than continuum levels (ROADMAP item 13), so its overlap is 0.0
        got, want = validity_overlap(L, z), oracle.full_chain_overlap(L, z)
        assert abs(got - want) <= 1e-13
        if L % 2:
            assert got == 0.0
        else:
            _assert_relatively_close(got, want)

    @pytest.mark.parametrize("L", [20, 50, 100, 150, 200, 300])
    @pytest.mark.parametrize("z", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    def test_mid_range_matches_full_chain_route(self, L, z):
        # the overlaps between O(1) and 1e-20, which the absolute bound
        # above cannot see, agree with the 2L-site route relatively
        _assert_relatively_close(validity_overlap(L, z), oracle.full_chain_overlap(L, z))

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 10, 50, 51, 100, 200])
    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0, 2.0, 5.0])
    def test_matches_explicit_q_route(self, L, z):
        # the same exact orbitals on both sides, so only the continuum
        # state's route differs: Q applied implicitly against Q formed
        exact = chain_occupied(L, z=z)
        want = oracle.slater_overlap(oracle.continuum_occupied(L, z / L), exact)
        assert abs(validity_overlap(L, z) - want) <= 1e-13

    def test_non_orthonormal_exact_set_raises(self, monkeypatch):
        # C = Q^T B has B's Gram, so the one certificate on C refuses 2 B
        occupied = continuum.occupied_from_svd
        monkeypatch.setattr(continuum, "occupied_from_svd",
                            lambda svd: 2.0 * occupied(svd))
        with pytest.raises(ValueError, match="not orthonormal"):
            validity_overlap(10, 1.0)

    @pytest.mark.parametrize("L", [2, 7, 10, 51])
    def test_swapped_parity_columns_raise(self, monkeypatch, L):
        # an orbital filed in the other parity's sector is refused by the
        # mirror certificate, not answered
        occupied = continuum.occupied_from_svd

        def swapped(svd):
            occ = occupied(svd)
            occ[:, [0, 1]] = occ[:, [1, 0]]
            return occ

        monkeypatch.setattr(continuum, "occupied_from_svd", swapped)
        with pytest.raises(NumericsError, match="mirror parity"):
            validity_overlap(L, 0.5)

    def test_pinned_overlaps(self):
        # recorded with each parity sector's Q applied implicitly (dgeqrt,
        # dgemqrt); at one BLAS thread, since at L = 200 the last bits of the
        # overlap follow the thread count's blocking.  (51, 0.5) is exactly
        # 0: the odd-L continuum set misses one mirror-even level (ROADMAP
        # item 13); (200, 1.0) is rounding, 6e-95 being far below the
        # overlap's noise floor
        code = ("from rainbow_lab import validity_overlap; "
                "print([validity_overlap(L, z).hex() "
                "for L, z in ((10, 0.0), (51, 0.5), (200, 1.0))])")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == str(["0x1.fa419262cab10p-1", "0x0.0p+0",
                                   "0x1.fe5a75a3a20c7p-314"])

    def test_overflowed_deformed_length_raises(self):
        with pytest.warns(RuntimeWarning), pytest.raises(NumericsError, match="overflows"):
            validity_overlap(50, 710.0)
        with pytest.warns(RuntimeWarning), pytest.raises(NumericsError):
            deformed_length(1.0, 720.0)
        assert deformed_length(1.0, 709.0) < math.inf

    def test_overflowed_row_norms_raise(self):
        # tilde_L is finite at (L, z) = (500, 709.7), the sum of e^(h|n|)
        # over the sites is not; finite norms are pinned bitwise through
        # test_pinned_overlaps
        h = 709.7 / 500
        assert deformed_length(h, 500) < math.inf
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(NumericsError, match="row norms overflow"):
            continuum._analytic_levels(np.arange(-500, 0), h, 500)
        rows = continuum._analytic_levels(np.arange(-500, 0), 700.0 / 500, 500)
        assert np.isfinite(rows).all() and rows.any(axis=1).all()

    def test_underflowed_chain_raises(self):
        with pytest.warns(RuntimeWarning), pytest.raises(ZeroModeError):
            validity_overlap(10, 2000.0)

    @pytest.mark.parametrize("L, z", [(99, 709.0), (400, 700.0)])
    def test_mirror_mixed_orbitals_refused(self, L, z):
        # past the underflow floor the decoupled outer orbitals are
        # degenerate and the solve mixes them across the mirror (by 1.5e-5
        # at (99, 709), fully at (400, 700)): no parity sector holds them,
        # and the overlap is refused, where the 2L-site route read 0.0
        with pytest.warns(RuntimeWarning, match="decoupled"), \
                pytest.raises(NumericsError, match="mirror parity"):
            validity_overlap(L, z)

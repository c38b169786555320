import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lab import (
    ZeroModeError,
    analytic_energy,
    analytic_wavefunction,
    coordinate_map,
    deformed_length,
    orbitals_from_svd,
    overlap_crossing,
    profile_from_z,
    slater_overlap,
    validity_overlap,
    velocity_scaling,
    wavefunction_overlap,
)
from rainbow_lab import continuum
from rainbow_lab.continuum import _expm1_over_h, continuum_occupied
from rainbow_lab.spectra import NumericsError

import dense_oracle as oracle
from conftest import chain_occupied, chain_spectrum


class TestAnalyticEnergy:
    def test_uniform_m0(self):
        assert analytic_energy(0, 0.0, 100) == pytest.approx(np.pi / 400)

    def test_deformed_m0(self):
        # h pi/2 / (2 (e - 1)) evaluated independently
        expected = 0.01 * np.pi * 0.5 / (2 * np.expm1(1.0))
        assert analytic_energy(0, 0.01, 100) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.570834367e-3, rel=1e-9)

    def test_reflection_antisymmetry(self):
        for h, L in [(0.0, 50), (0.03, 80)]:
            assert analytic_energy(-1, h, L) == pytest.approx(-analytic_energy(0, h, L))

    def test_level_spacing_constant(self):
        h, L = 0.02, 150
        gaps = [
            analytic_energy(m, h, L) - analytic_energy(m - 1, h, L)
            for m in range(-3, 4)
        ]
        assert np.ptp(gaps) < 1e-15

    @given(
        m=st.integers(-5, 5),
        h=st.floats(0.0, 0.2),
        L=st.integers(10, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_velocity_identity(self, m, h, L):
        direct = analytic_energy(m, h, L)
        scaled = velocity_scaling(h * L) * np.pi * (m + 0.5) / (2 * L)
        assert direct == pytest.approx(scaled, rel=1e-10, abs=1e-18)


class TestCoordinateMap:
    def test_identity_at_h0(self):
        xs = np.linspace(-5, 5, 11)
        assert coordinate_map(xs, 0.0) == pytest.approx(xs)

    def test_endpoint_is_deformed_length(self):
        h, L = 0.07, 40
        assert coordinate_map(L, h) == pytest.approx(deformed_length(h, L))
        assert coordinate_map(-L, h) == pytest.approx(-deformed_length(h, L))

    def test_deformed_length_bounds(self):
        assert deformed_length(0.0, 50) == pytest.approx(50.0)
        assert deformed_length(0.1, 50) > 50.0

    def test_odd_and_increasing(self):
        xs = np.linspace(-20, 20, 101)
        y = coordinate_map(xs, 0.13)
        assert y == pytest.approx(-coordinate_map(-xs, 0.13))
        assert np.all(np.diff(y) > 0)

    def test_derivative(self):
        h, x, eps = 0.21, 3.7, 1e-6
        num = (coordinate_map(x + eps, h) - coordinate_map(x - eps, h)) / (2 * eps)
        assert num == pytest.approx(np.exp(h * abs(x)), rel=1e-8)

    def test_tiny_h_series_branch(self):
        # below the series switch the map must still be smooth and odd
        y = coordinate_map(100.0, 1e-10)
        assert y == pytest.approx(100.0, rel=1e-7)


class TestAnalyticWavefunction:
    def test_uniform_overlap(self):
        _, svd = chain_spectrum(100, alpha=1.0)
        ana = analytic_wavefunction(0, 0.0, 100)
        assert wavefunction_overlap(ana, orbitals_from_svd(svd)[:, 100]) > 0.999

    def test_deformed_overlap(self):
        _, svd = chain_spectrum(200, z=1.0)
        ana = analytic_wavefunction(0, 1.0 / 200, 200)
        assert wavefunction_overlap(ana, orbitals_from_svd(svd)[:, 200]) > 0.99

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
        shallow = wavefunction_overlap(
            analytic_wavefunction(-4, 1.0 / L, L), orbitals[:, L - 4]
        )
        deep = wavefunction_overlap(
            analytic_wavefunction(-180, 1.0 / L, L), orbitals[:, L - 180]
        )
        assert shallow > deep


class TestOverlaps:
    def test_self_overlap(self, rng):
        v = rng.normal(size=24)
        assert wavefunction_overlap(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert wavefunction_overlap([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wavefunction_overlap([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_slater_self(self):
        occ = chain_occupied(6, alpha=0.8)
        assert slater_overlap(occ, occ) == pytest.approx(1.0)

    def test_slater_rotation_invariance(self, rng):
        occ = chain_occupied(6, alpha=0.8)
        a = rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(a)
        assert slater_overlap(occ, occ @ q) == pytest.approx(1.0)

    def test_slater_rank_deficient(self):
        occ = chain_occupied(4, alpha=0.9).copy()
        occ[:, 1] = occ[:, 0]
        with pytest.raises(ValueError, match="not orthonormal"):
            slater_overlap(occ, occ)

    def test_slater_nan_refused(self):
        occ = chain_occupied(4, alpha=0.9).copy()
        occ[0, 0] = math.nan
        with pytest.raises(ValueError, match="not orthonormal"):
            slater_overlap(chain_occupied(4, alpha=0.9), occ)

    def test_slater_scaled_column_refused(self):
        # full rank, ||A^T A - I||_F = 0.44 < 1/2, but not orthonormal
        occ = chain_occupied(4, alpha=0.9).copy()
        occ[:, 2] *= 1.2
        with pytest.raises(ValueError, match="not orthonormal"):
            slater_overlap(occ, chain_occupied(4, alpha=0.9))

    def test_slater_orthonormal_sets_skip_the_rank_svd(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("rank SVD called")

        a = chain_occupied(6, alpha=0.8)
        b, _ = np.linalg.qr(rng.normal(size=(12, 6)))
        want = abs(np.linalg.det(a.T @ b))
        monkeypatch.setattr(continuum.sla, "svdvals", refuse)
        assert slater_overlap(a, b) == pytest.approx(want, rel=1e-12)

    def test_slater_far_from_orthonormal_asks_matrix_rank(self):
        occ = chain_occupied(4, alpha=0.9)
        # full rank, but ||A^T A - I||_F = 6: refused, not answered 2^4
        with pytest.raises(ValueError, match="not orthonormal"):
            slater_overlap(2.0 * occ, occ)

    def test_shape_mismatch(self):
        a = chain_occupied(4, alpha=0.9)
        with pytest.raises(ValueError):
            slater_overlap(a, a[:, :2])


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
        probe = slater_overlap(
            continuum_occupied(50, (z90 / 2) / 50), chain_occupied(50, z=z90 / 2)
        )
        assert probe > 0.9


GRID_L = (1, 2, 7, 50, 51, 101, 300)
GRID_Z = (0.0, 1.0, 4.0, 30.0, 92.0)


def _stacked_occupied(L, h):
    """The per-level route: one analytic_wavefunction call per level,
    orthonormalized by the QR call continuum_occupied makes.  Past z ~ 1 the
    columns are near-dependent, so Q depends on which LAPACK computes it
    (numpy's QR differs from SciPy's by far more than 1e-14 at L = 300)."""
    cols = np.column_stack(
        [analytic_wavefunction(m, h, L) for m in range(-L, 0)]
    )
    return sla.qr(cols, mode="economic", check_finite=False)[0]


class TestVectorizedLevels:
    """continuum_occupied builds all levels in one broadcast; the per-level
    analytic_wavefunction and the dense exact route are its oracles."""

    @pytest.mark.parametrize("L", GRID_L)
    @pytest.mark.parametrize("z", GRID_Z)
    def test_matches_stacked_levels(self, L, z):
        got = continuum_occupied(L, z / L)
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
            continuum_occupied(5, -0.1)

    def test_overlaps_match_dense_route(self):
        for L in GRID_L:
            for z in GRID_Z:
                exact = oracle.occupied(oracle.diagonalize(
                    *oracle.chain_hamiltonian(profile_from_z(L, z))
                ))
                want = slater_overlap(_stacked_occupied(L, z / L), exact)
                assert abs(validity_overlap(L, z) - want) <= 1e-12, (L, z)

    def test_pinned_overlaps(self):
        # recorded before the orthonormality check replaced the rank test;
        # at one BLAS thread, since at L = 200 the last bits of the overlap
        # follow the thread count's blocking.  (51, 0.5) is rounding: the
        # odd-L continuum set misses one mirror-even level (ROADMAP item 1)
        code = ("from rainbow_lab import validity_overlap; "
                "print([validity_overlap(L, z).hex() "
                "for L, z in ((10, 0.0), (51, 0.5), (200, 1.0))])")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == str(["0x1.fa419262cab10p-1", "0x1.c34362bbd021ep-53",
                                   "0x1.8bdaaea6d3f98p-317"])

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
            continuum_occupied(500, h)
        rows = continuum._analytic_levels(np.arange(-500, 0), 700.0 / 500, 500)
        assert np.isfinite(rows).all() and rows.any(axis=1).all()

    def test_underflowed_chain_raises(self):
        with pytest.warns(RuntimeWarning), pytest.raises(ZeroModeError):
            validity_overlap(10, 2000.0)

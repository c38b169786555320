import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbow_lab
from rainbow_lab import (
    Lattice2D,
    build_rainbow_profile,
    chain_svd,
    lattice_svd,
    profile_from_z,
)
from rainbow_lab.lattice import signed_profile, site_labels

from dense_oracle import chain_hamiltonian, checkerboard, lattice_hamiltonian, lattice_links


class TestRainbowProfile:
    def test_L2_half(self):
        p = build_rainbow_profile(2, 0.5)
        assert p.couplings == pytest.approx([0.5, 1.0, 0.5])

    def test_uniform_limit(self):
        p = build_rainbow_profile(3, 1.0)
        assert p.couplings == pytest.approx([1, 1, 1, 1, 1])
        assert p.h == 0.0
        assert p.z == 0.0

    def test_uniform_limit_is_positive_zero(self):
        # -2 ln 1 is -0.0, which a CSV prints as -0
        for p in (build_rainbow_profile(3, 1.0), profile_from_z(3, 0.0)):
            assert math.copysign(1.0, p.h) == 1.0
            assert math.copysign(1.0, p.z) == 1.0

    def test_alpha_09(self):
        p = build_rainbow_profile(3, 0.9)
        assert p.couplings == pytest.approx([0.9**3, 0.9, 1.0, 0.9, 0.9**3])

    def test_center_is_unity(self):
        p = build_rainbow_profile(7, 0.3)
        assert p.couplings[p.L - 1] == 1.0

    @given(L=st.integers(1, 40), alpha=st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_mirror_symmetry(self, L, alpha):
        p = build_rainbow_profile(L, alpha)
        assert np.array_equal(p.couplings, p.couplings[::-1])

    def test_derived_fields_consistent(self):
        p = build_rainbow_profile(17, 0.37)
        assert p.alpha == pytest.approx(np.exp(-p.h / 2), rel=1e-12)
        assert p.z == pytest.approx(p.h * p.L, rel=1e-12)

    @pytest.mark.parametrize("L,alpha", [(0, 0.5), (-3, 0.5), (2, 0.0), (2, 1.0001), (2, -0.1)])
    def test_domain_errors(self, L, alpha):
        with pytest.raises(ValueError):
            build_rainbow_profile(L, alpha)

    def test_underflow_warns_not_raises(self):
        with pytest.warns(RuntimeWarning):
            p = build_rainbow_profile(500, 0.5)
        assert p.min_coupling < 1e-280

    def test_json_roundtrip(self):
        p = build_rainbow_profile(5, 0.42)
        q = json.loads(p.to_json())
        assert q["L"] == p.L and q["alpha"] == p.alpha
        assert np.array_equal(q["couplings"], p.couplings)
        assert set(json.loads(p.to_json())) == {"L", "alpha", "h", "z", "couplings"}


class TestProfileFromZ:
    def test_z_zero_uniform(self):
        p = profile_from_z(100, 0.0)
        assert p.alpha == 1.0
        assert np.all(p.couplings == 1.0)

    def test_z_one(self):
        p = profile_from_z(100, 1.0)
        assert p.h == pytest.approx(0.01)
        assert p.alpha == pytest.approx(np.exp(-0.005))

    def test_inverts_alpha(self):
        p = profile_from_z(50, 2 * np.log(2) * 50)
        assert p.alpha == pytest.approx(0.5, rel=1e-12)

    def test_negative_z(self):
        with pytest.raises(ValueError):
            profile_from_z(10, -0.1)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_names_z(self, z):
        with pytest.raises(ValueError, match="z must be finite and non-negative"):
            profile_from_z(10, z)

    @pytest.mark.parametrize("L, z", [(4, 1e308), (1, 1491.0)])
    def test_underflowed_alpha_names_z_and_L(self, L, z):
        # alpha = exp(-z/(2L)) is 0.0: the refusal names the z it was given
        with pytest.raises(ValueError, match=re.escape(f"z = {z!r} at L = {L} underflows alpha")):
            profile_from_z(L, z)

    def test_same_as_alpha_construction(self):
        a = build_rainbow_profile(20, 1.0)
        b = profile_from_z(20, 0.0)
        assert np.array_equal(a.couplings, b.couplings)


class TestHoppingMatrix1D:
    """The dense chain matrix of the tests' oracle."""

    def test_single_link(self):
        m, _ = chain_hamiltonian(build_rainbow_profile(1, 0.7))
        assert np.allclose(m, [[0, -0.5], [-0.5, 0]])
        assert np.linalg.eigvalsh(m) == pytest.approx([-0.5, 0.5])

    def test_L2_offdiagonals(self):
        m, _ = chain_hamiltonian(build_rainbow_profile(2, 0.5))
        assert np.diag(m, 1) == pytest.approx([-0.25, -0.5, -0.25])

    def test_uniform_offdiagonals(self):
        m, _ = chain_hamiltonian(build_rainbow_profile(6, 1.0))
        assert np.diag(m, 1) == pytest.approx([-0.5] * 11)

    @given(L=st.integers(1, 25), alpha=st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_reversal(self, L, alpha):
        m, _ = chain_hamiltonian(build_rainbow_profile(L, alpha))
        rev = m[::-1, ::-1]
        assert np.array_equal(m, rev)

    def test_symmetric_zero_diagonal(self):
        m, _ = chain_hamiltonian(build_rainbow_profile(6, 0.3))
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_signed_chain_accepted(self):
        m, _ = chain_hamiltonian([1.0, -0.5, 0.25])
        assert np.diag(m, 1) == pytest.approx([-0.5, 0.25, -0.125])

    def test_signed_chain_rejects_even_length(self):
        with pytest.raises(ValueError):
            signed_profile([1.0, 0.5])

    @pytest.mark.parametrize("couplings", [
        [1.0, np.inf, 1.0], [1.0, 2.0, float("1e400")], [np.nan], [1.0, np.nan, 1.0],
    ])
    def test_signed_chain_rejects_non_finite(self, couplings):
        with pytest.raises(ValueError, match="must be finite"):
            signed_profile(couplings)


def _coordinates(L: int, site: int) -> tuple:
    """(x, y) of a lattice site, from the row-major index ix * 2L + iy."""
    xs = site_labels(L)
    ix, iy = divmod(site, 2 * L)
    return float(xs[ix]), float(xs[iy])


def _index(L: int, x: float, y: float) -> int:
    xs = list(site_labels(L))
    return xs.index(x) * 2 * L + xs.index(y)


class TestSublattice:
    @pytest.mark.parametrize("L", [1, 2, 5])
    def test_chain_parity(self, L):
        # site i is row (even i) or column (odd i) i // 2 of the chain's M
        profile = build_rainbow_profile(L, 0.5)
        svd = chain_svd(profile)
        m, sublattice = chain_hamiltonian(profile)
        assert np.array_equal(sublattice, np.arange(2 * L) % 2)
        assert np.max(np.abs((svd.u * svd.s) @ svd.vt - m[0::2, 1::2])) <= 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_lattice_checkerboard(self, L):
        lat = Lattice2D(L, 0.5)
        want = [int(x + y + 2 * L - 1) % 2
                for (x, y) in (_coordinates(L, i) for i in range(lat.n_sites))]
        assert np.array_equal(checkerboard(lat), want)


class TestLattice2D:
    def test_L1_links(self):
        lat = Lattice2D(1, 0.5)
        assert lat.n_sites == 4
        _, _, J = lattice_links(1, 0.5)
        assert len(J) == 4
        assert sorted(J) == pytest.approx([np.sqrt(0.5), np.sqrt(0.5), 1.0, 1.0])

    def test_uniform_L2(self):
        _, _, J = lattice_links(2, 1.0)
        assert len(J) == 24
        assert all(J == 1.0)

    def test_link_count_formula(self):
        for L in (1, 2, 3):
            i, _, _ = lattice_links(L, 0.8)
            assert len(i) == 2 * (2 * L) * (2 * L - 1)

    def test_horizontal_link_across_half(self):
        # link between (1/2, y) and (3/2, y) carries alpha^1
        i, j, J = lattice_links(2, 0.6)
        a, b = _index(2, 0.5, 0.5), _index(2, 1.5, 0.5)
        amp = dict(zip(zip(i.tolist(), j.tolist()), J))[(a, b)]
        assert amp == pytest.approx(0.6)

    def test_links_crossing_zero_are_unity(self):
        for a, b, J in zip(*lattice_links(3, 0.4)):
            xa = _coordinates(3, a)[0]
            xb = _coordinates(3, b)[0]
            if xa == -0.5 and xb == 0.5:
                assert J == pytest.approx(1.0)

    def test_mirror_symmetry_x(self):
        amp = {}
        for a, b, J in zip(*lattice_links(2, 0.7)):
            key = tuple(sorted([_coordinates(2, a), _coordinates(2, b)]))
            amp[key] = J
        for ((xa, ya), (xb, yb)), J in amp.items():
            mirrored = tuple(sorted([(-xa, ya), (-xb, yb)]))
            assert amp[mirrored] == pytest.approx(J)

    @pytest.mark.parametrize("L, alpha", [(1, 0.5), (2, 0.7), (8, 0.0858), (24, 0.4), (64, 0.9)])
    def test_link_amplitudes_are_bitwise_mirror_symmetric(self, L, alpha):
        # spectra._sector_half splits each sector into its two mirror-parity
        # halves, which is exact only when x -> -x maps every link onto one
        # of the same value, bit for bit
        from rainbow_lab.lattice import link_amplitudes

        vertical, horizontal = link_amplitudes(L, alpha)
        assert np.array_equal(vertical, vertical[::-1])
        assert np.array_equal(horizontal, horizontal[::-1])

    def test_y_mirror_leaves_matrix_invariant(self):
        lat = Lattice2D(2, 0.55)
        m, _ = lattice_hamiltonian(lat)
        n = 2 * lat.L
        perm = np.array([ix * n + (n - 1 - iy) for ix in range(n) for iy in range(n)])
        assert np.allclose(m, m[np.ix_(perm, perm)])

    def test_4cycle_spectrum(self):
        m, _ = lattice_hamiltonian(Lattice2D(1, 1.0))
        assert np.linalg.eigvalsh(m) == pytest.approx([-1, 0, 0, 1], abs=1e-12)

    def test_row_sums_bounded(self):
        m, _ = lattice_hamiltonian(Lattice2D(3, 0.9))
        assert np.max(np.abs(m.sum(axis=1))) <= 2.0 + 1e-12

    def test_left_half_indices(self):
        lat = Lattice2D(2, 0.5)
        half = lat.left_half()
        assert len(half) == 8
        assert all(_coordinates(2, i)[0] < 0 for i in half)

    def test_links_canonical(self):
        i, j, _ = lattice_links(2, 0.9)
        pairs = list(zip(i.tolist(), j.tolist()))
        assert all(a < b for a, b in pairs)
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("L,alpha", [(2, 1.5), (0, 0.5)])
    def test_direct_construction_validated(self, L, alpha):
        # growing couplings, or no sites at all, never reach the solver
        with pytest.raises(ValueError, match="must"):
            lattice_svd(Lattice2D(L=L, alpha=alpha))


def test_site_labels():
    assert site_labels(2) == pytest.approx([-1.5, -0.5, 0.5, 1.5])


def test_dense_route_is_gone():
    """No rainbow_lab module exposes the dense hopping-matrix route or its
    spectrum type; the route lives on only as the tests' oracle
    (dense_oracle.py), and a solve's one result is its SublatticeSVD.  Nor
    does any wrap a result that is one value: a block's nu, a list of
    entropy points, a fit's two arrays, a wavefunction vector or a float;
    nor keeps a second geometry resolver, a library-side validity sweep,
    a builder or method that only renames another, or a sector's SVD
    beside its left block."""
    import importlib
    import pkgutil

    gone = {
        "HoppingMatrix", "hopping_matrix", "hopping_matrix_1d", "hopping_matrix_2d",
        "diagonalize", "occupied_orbitals", "ground_state_correlation",
        "block_correlation", "_is_bidiagonal", "_refuse_zero_modes",
        "_zero_mode_policy", "SpectrumResult", "spectrum_from_svd",
        "PolarBlock", "EntropyCurve", "RenyiAnsatz", "AnalyticWavefunction",
        "FermiVelocityEstimate", "_curve_xy",
        "_z_from", "_profile_for", "validity_map", "_exact_occupied",
        "uniform_profile", "build_lattice_2d", "spectrum_rows", "EntropyPoint",
        "sector_svd", "_lattice_route",
    }
    modules = [rainbow_lab] + [
        importlib.import_module(f"rainbow_lab.{info.name}")
        for info in pkgutil.iter_modules(rainbow_lab.__path__)
    ]
    assert len(modules) > 8
    for module in modules:
        assert not gone & set(vars(module)), module.__name__
    for attr in ("sites", "links", "to_json", "site_index"):
        assert not hasattr(Lattice2D(1, 0.5), attr)
    for attr in ("labels", "from_json"):
        assert not hasattr(rainbow_lab.CouplingProfile, attr)
    assert not hasattr(rainbow_lab.BondList, "labels")

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from rainbow_lab import (
    CouplingProfile,
    Lattice2D,
    ZeroModeError,
    build_rainbow_profile,
    chain_svd,
    fermi_velocity,
    fermi_velocity_fit,
    lattice_half_nu,
    polar_block,
    profile_from_z,
    site_occupations,
    velocity_scaling,
    vn_entropy,
)
from rainbow_lab import spectra
from rainbow_lab.spectra import (
    NumericsError,
    _fix_phases,
    lattice_svd,
    occupied_from_svd,
    orbitals_from_svd,
    save_orbitals,
)
from rainbow_lab.lattice import link_amplitudes

import dense_oracle as oracle
from conftest import chain_occupied, chain_spectrum


def load_orbitals(path) -> np.ndarray:
    """The orbital matrix of a ``save_orbitals`` dump."""
    with open(path, "rb") as fh:
        head = np.frombuffer(fh.read(16), dtype="<u8")
        rows, cols = int(head[0]), int(head[1])
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).copy()


class TestDiagonalize:
    def test_2x2_analytic(self):
        svd = chain_svd(build_rainbow_profile(1, 1.0))
        assert svd.energies == pytest.approx([-0.5, 0.5])
        s = 1 / np.sqrt(2)
        orbitals = orbitals_from_svd(svd)
        assert orbitals[:, 0] == pytest.approx([s, s])
        assert orbitals[:, 1] == pytest.approx([s, -s])

    def test_uniform_200_first_level(self):
        # continuum value pi/400 holds to lattice corrections at this size
        _, svd = chain_spectrum(100, alpha=1.0)
        e0 = svd.energies[100]
        assert abs(e0 / (np.pi / 400) - 1) < 0.02

    def test_rainbow_z1_first_level(self):
        _, svd = chain_spectrum(100, z=1.0)
        target = velocity_scaling(1.0) * np.pi / 400  # 4.5708e-3
        assert target == pytest.approx(4.570834367e-3, rel=1e-9)
        assert abs(svd.energies[100] / target - 1) < 0.02

    def test_orthonormal_and_residual(self):
        _, svd = chain_spectrum(30, alpha=0.4)
        orbitals = orbitals_from_svd(svd)
        g = orbitals.T @ orbitals
        assert np.max(np.abs(g - np.eye(60))) < 1e-10
        assert svd.residual <= 1e-10 * np.max(np.abs(svd.energies))

    def test_particle_hole_pairing(self):
        _, svd = chain_spectrum(25, alpha=0.7)
        e = svd.energies
        assert np.max(np.abs(e + e[::-1])) < 1e-10 * np.max(np.abs(e))

    def test_particle_hole_partner_vector(self):
        # negating odd sites maps an eigenvector at E to one at -E
        profile, svd = chain_spectrum(8, alpha=0.6)
        m, _ = oracle.chain_hamiltonian(profile)
        v = orbitals_from_svd(svd)[:, 3]
        w = v.copy()
        w[1::2] *= -1
        e = svd.energies[3]
        assert np.allclose(m @ w, -e * w, atol=1e-12)

    def test_graded_chain_occupations_exact(self):
        # couplings span 38 decades; occupations must stay at 1/2
        occ = chain_occupied(10, alpha=0.01)
        assert np.max(np.abs(site_occupations(occ) - 0.5)) < 1e-12

    def test_underflowed_couplings_give_exact_zero_modes(self):
        # outer couplings exp(-900) and beyond are exactly 0 in float64
        with pytest.warns(RuntimeWarning):
            profile = profile_from_z(10, 2000.0)
        svd = chain_svd(profile)
        assert np.count_nonzero(svd.energies == 0.0) > 0
        with pytest.raises(ZeroModeError):
            occupied_from_svd(svd)

    def test_deterministic_repeat(self):
        p = build_rainbow_profile(12, 0.35)
        a = orbitals_from_svd(chain_svd(p))
        b = orbitals_from_svd(chain_svd(p))
        assert np.array_equal(a, b)

    def test_2d_uniform_has_exact_pairing(self):
        e = lattice_svd(Lattice2D(2, 1.0)).energies
        assert np.max(np.abs(e + e[::-1])) < 1e-12


class TestDenseOracle:
    """The chain route and the oracle's lattice correlation against a dense
    symmetric eigensolver that is blind to the sublattice."""

    @pytest.mark.parametrize("L", [1, 2, 7, 30, 51])
    @pytest.mark.parametrize("z", [0.0, 1.0, 3.0])
    def test_chain_energies_and_projector(self, L, z):
        profile = profile_from_z(L, z)
        svd = chain_svd(profile)
        energies, vecs = sla.eigh(oracle.chain_hamiltonian(profile)[0])
        assert np.max(np.abs(svd.energies - energies)) < 1e-13
        occ = occupied_from_svd(svd)
        want = vecs[:, :L] @ vecs[:, :L].T
        assert np.max(np.abs(occ @ occ.T - want)) < 1e-11

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.5])
    def test_lattice_half_filled_correlation(self, L, alpha):
        lat = Lattice2D(L, alpha)
        m, _ = oracle.lattice_hamiltonian(lat)
        c = oracle.lattice_correlation(lat)
        energies, vecs = sla.eigh(m)
        zero = np.abs(energies) < 1e-10
        assert zero.any() == (alpha == 1.0)  # the uniform zero-mode shell
        neg = vecs[:, (energies < 0) & ~zero]
        shell = vecs[:, zero]
        want = neg @ neg.T + 0.5 * (shell @ shell.T)
        assert np.max(np.abs(c - want)) < 1e-11


def _chain_block(profile):
    """Lower-bidiagonal sublattice block (even rows, odd columns) of a chain."""
    return oracle.chain_hamiltonian(profile)[0][0::2, 1::2]


def _dense_svd(block):
    """The dense route chains took before the bidiagonal routines: gesvd past
    a 1e10 coupling ratio, gesdd below, on the upper-bidiagonal transpose."""
    nz = np.abs(block[block != 0.0])
    graded = nz.max() / nz.min() > 1e10
    u2, s, v2t = sla.svd(block.T, lapack_driver="gesvd" if graded else "gesdd")
    return v2t.T, s, u2.T


class TestBidiagonalSolver:
    """The bidiagonal LAPACK routines against the dense SVD they replace."""

    @pytest.mark.parametrize("L", [1, 2, 7, 50, 51, 300])
    @pytest.mark.parametrize("z", [0.0, 1.0, 4.0, 30.0, 92.0])
    def test_matches_dense_svd(self, L, z):
        self._compare(_chain_block(profile_from_z(L, z)))

    def test_underflowed_chain_matches_dense_svd(self):
        with pytest.warns(RuntimeWarning):
            block = _chain_block(profile_from_z(10, 2000.0))
        assert np.count_nonzero(np.diagonal(block, -1) == 0.0) > 0
        self._compare(block)

    @staticmethod
    def _compare(block):
        svd = spectra._chain_solve(np.diagonal(block), np.diagonal(block, -1))
        u, s, vt = svd.u, svd.s, svd.vt
        u_ref, s_ref, vt_ref = _dense_svd(block)
        scale = np.where(s_ref > 0, s_ref, 1.0)
        assert np.max(np.abs(s - s_ref) / scale) <= 1e-13
        assert np.array_equal(s == 0, s_ref == 0)
        assert np.max(np.abs(u @ vt - u_ref @ vt_ref)) <= 1e-13

    def test_signature_mismatch_fails_loudly(self):
        # e.g. an ILP64 LAPACK, whose integers ctypes would pass at the wrong width
        with pytest.raises(ImportError, match="dbdsqr"):
            spectra._lapack("dbdsqr", spectra._CHAR, spectra._INT)

    def test_chains_bypass_dense_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense SVD called")

        monkeypatch.setattr(spectra, "_svd", refuse)
        for z in (1.0, 30.0):  # divide and conquer, then zero-shift QR
            chain_svd(profile_from_z(40, z))
        with pytest.raises(AssertionError, match="dense SVD"):
            lattice_svd(Lattice2D(2, 0.5))

    @pytest.mark.parametrize("z", [1.0, 30.0])
    def test_perturbed_vectors_fail_residual(self, monkeypatch, z):
        solve = spectra._bidiagonal_svd

        def perturbed(d, e, graded, sites):
            v, s, ut = solve(d, e, graded, sites)
            v = v.copy()
            v[0, 0] += 1e-6
            return v, s, ut

        monkeypatch.setattr(spectra, "_bidiagonal_svd", perturbed)
        with pytest.raises(NumericsError, match="eigen-residual"):
            chain_svd(profile_from_z(20, z))


class TestChainSVD:
    """chain_svd: the certified band solve straight from the couplings."""

    @staticmethod
    def _band_route(m):
        """The route chains took before chain_svd: the bands read off the
        dense block, graded by the block's nonzeros, then the driver."""
        block = m[0::2, 1::2]
        nz = np.abs(block[block != 0.0])
        graded = bool(nz.size) and float(nz.max() / nz.min()) > 1e10
        return spectra._bidiagonal_svd(
            np.diagonal(block), np.diagonal(block, -1), graded
        )

    @pytest.mark.parametrize("z", [1.0, 40.0], ids=["mild", "graded"])
    def test_bitwise_band_route(self, z):
        profile = profile_from_z(30, z)
        m, _ = oracle.chain_hamiltonian(profile)
        u, s, vt = self._band_route(m)
        svd = spectra.chain_svd(profile)
        for got, want in ((svd.u, u), (svd.s, s), (svd.vt, vt)):
            assert got.tobytes() == want.tobytes()
        # the spectrum's orbitals from the same vectors, pair by pair
        n = m.shape[0]
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        want = np.zeros((n, n))
        for p in range(s.size):
            want[0::2, p] = want[0::2, n - 1 - p] = u[:, p] * inv_sqrt2
            want[1::2, p] = -vt[p] * inv_sqrt2
            want[1::2, n - 1 - p] = vt[p] * inv_sqrt2
        want = _fix_phases_loop(want)
        assert orbitals_from_svd(svd).tobytes() == want.tobytes()

    @pytest.mark.parametrize("L", [1, 2, 7, 51])
    @pytest.mark.parametrize("z", [0.0, 4.0, 92.0])
    def test_banded_residual_matches_dense(self, L, z):
        profile = profile_from_z(L, z)
        svd = spectra.chain_svd(profile)
        block = _chain_block(profile)
        v = svd.vt.T
        dense = max(
            np.max(np.abs(block @ v - svd.u * svd.s)),
            np.max(np.abs(block.T @ svd.u - v * svd.s)),
        ) / np.sqrt(2.0)
        assert abs(svd.residual - dense) <= 1e-15 * svd.s[0]
        assert svd.residual <= 1e-10 * svd.s[0]

    def test_underflowed_chain_keeps_exact_zeros(self):
        with pytest.warns(RuntimeWarning):
            profile = profile_from_z(10, 2000.0)
        zeros = np.count_nonzero(spectra.chain_svd(profile).s == 0.0)
        energies = oracle.diagonalize(*oracle.chain_hamiltonian(profile)).energies
        assert zeros > 0
        assert 2 * zeros == np.count_nonzero(energies == 0.0)

    @pytest.mark.parametrize("z", [1.0, 30.0])
    def test_perturbed_vectors_fail_residual(self, monkeypatch, z):
        solve = spectra._bidiagonal_svd

        def perturbed(d, e, graded, sites):
            v, s, ut = solve(d, e, graded, sites)
            ut = ut.copy()
            ut[0, 0] += 1e-6
            return v, s, ut

        monkeypatch.setattr(spectra, "_bidiagonal_svd", perturbed)
        with pytest.raises(NumericsError, match="eigen-residual"):
            spectra.chain_svd(profile_from_z(20, z))

    def test_never_builds_the_hopping_matrix(self, monkeypatch):
        # nor any dense block: the bands go straight to the solver
        def refuse(*args, **kwargs):
            raise AssertionError("dense block solved")

        monkeypatch.setattr(spectra, "_dense_svd", refuse)
        svd = spectra.chain_svd(profile_from_z(40, 2.0))
        assert svd.u.shape == svd.vt.shape == (40, 40)


class TestGradingCheck:
    """_graded compares max > 1e10 min, a product that stays finite where
    the quotient max/min overflows on subnormal couplings."""

    def test_subnormal_couplings_raise_only_the_underflow_warning(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            profile = build_rainbow_profile(2, 1e-310)
            svd = chain_svd(profile)
            assert spectra._graded(profile.couplings)
        assert [str(w.message) for w in caught] == [
            "smallest coupling 1.000e-310 is below 1e-280; outer links are numerically decoupled"
        ]
        assert svd.s.size == 2

    @pytest.mark.parametrize("ratio", [1.0, 1e5, 9.99e9, 1.001e10, 1e12, 1e300])
    @pytest.mark.parametrize("scale", [1.0, 1e-10, 1e200])
    def test_verdict_on_ratios_away_from_1e10(self, ratio, scale):
        bands = np.array([scale, 0.0, -scale / ratio]), np.array([scale / 2.0])
        assert spectra._graded(*bands) == (ratio > 1e10)
        nz = np.abs(np.concatenate([b[b != 0.0] for b in bands]))
        assert spectra._graded(*bands) == (float(nz.max() / nz.min()) > 1e10)


class TestLeadingSites:
    """chain_svd(profile, sites=k): the full SVD's rows of U and columns of
    V^T on the leading k sites, bit for bit, each certified."""

    @staticmethod
    def _assert_leading(part, full, k):
        assert part.sites == k
        assert part.s.tobytes() == full.s.tobytes()
        assert part.u.tobytes() == full.u[: (k + 1) // 2].tobytes()
        assert part.vt.tobytes() == full.vt[:, : k // 2].tobytes()

    @pytest.mark.parametrize("graded", [False, True], ids=["dbdsdc", "dbdsqr"])
    @pytest.mark.parametrize("L", [1, 2, 3, 7, 50, 51, 300, 301])
    @pytest.mark.parametrize("z", [0.0, 4.0, 30.0, 92.0])
    def test_bitwise_the_full_svds_rows(self, monkeypatch, graded, L, z):
        monkeypatch.setattr(spectra, "_graded", lambda *bands: graded)
        profile = profile_from_z(L, z)
        full = chain_svd(profile)
        assert full.sites == 2 * L
        for k in (1, L, L + 1, 2 * L):
            part = chain_svd(profile, sites=k)
            self._assert_leading(part, full, k)
            assert part.residual <= full.residual

    def test_underflowed_chain_keeps_its_zeros(self):
        with pytest.warns(RuntimeWarning):
            profile = profile_from_z(10, 2000.0)
        full = chain_svd(profile)
        assert np.count_nonzero(full.s == 0.0) > 0
        for k in (1, 10, 11, 20):
            part = chain_svd(profile, sites=k)
            self._assert_leading(part, full, k)
            with pytest.raises(ZeroModeError):
                occupied_from_svd(part)

    def test_orbitals_are_the_full_ones_on_the_leading_sites(self):
        # up to each column's sign, which _fix_phases reads off the rows held
        profile = profile_from_z(51, 30.0)
        full = occupied_from_svd(chain_svd(profile))
        part = occupied_from_svd(chain_svd(profile, sites=51))
        assert part.shape == (51, 51)
        assert np.array_equal(np.abs(part), np.abs(full[:51]))

    @pytest.mark.parametrize("sites", [0, -1, 21])
    def test_sites_outside_the_chain_raise(self, sites):
        with pytest.raises(ValueError, match="sites"):
            chain_svd(profile_from_z(10, 1.0), sites=sites)

    @pytest.mark.parametrize("z", [1.0, 30.0], ids=["dbdsdc", "dbdsqr"])
    @pytest.mark.parametrize("k", [20, 21])
    @pytest.mark.parametrize("which", ["u", "vt"])
    def test_perturbed_last_returned_row_fails_residual(self, monkeypatch, z, k, which):
        # the last returned even site (a row of u) and odd site (a column of
        # vt) are certified too: the solve reaches one site past them
        solve = spectra._bidiagonal_svd

        def perturbed(d, e, graded, sites):
            v, s, ut = solve(d, e, graded, sites)
            v, ut = v.copy(), ut.copy()
            if which == "u":
                v[(k + 1) // 2 - 1, 0] += 1e-6
            else:
                ut[0, k // 2 - 1] += 1e-6
            return v, s, ut

        monkeypatch.setattr(spectra, "_bidiagonal_svd", perturbed)
        with pytest.raises(NumericsError, match="eigen-residual"):
            chain_svd(profile_from_z(20, z), sites=k)

def _parent_lattice_spectrum(m, sublattice):
    """The dense route as it was before lattice_svd, restated for the 2D
    lattice: the dense SVD of the sublattice block, the residual on the two
    half blocks, the pair-by-pair orbitals and the column-by-column phase
    rule, with the zero-mode threshold it kept."""
    a_idx = np.nonzero(sublattice == 0)[0]
    b_idx = np.nonzero(sublattice == 1)[0]
    block = m[np.ix_(a_idx, b_idx)]
    u, s, vt = _dense_svd(block)
    residual = max(
        float(np.max(np.abs(block @ vt.T - u * s))),
        float(np.max(np.abs(block.T @ u - vt.T * s))),
    ) / np.sqrt(2.0)
    n = m.shape[0]
    orbitals = np.zeros((n, n))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for p in range(s.size):
        orbitals[a_idx, p] = orbitals[a_idx, n - 1 - p] = u[:, p] * inv_sqrt2
        orbitals[b_idx, p] = -vt[p, :] * inv_sqrt2
        orbitals[b_idx, n - 1 - p] = vt[p, :] * inv_sqrt2
    energies = np.concatenate([-s, s[::-1]])
    threshold = spectra.ZERO_MODE_TOL * max(float(s[0]), 1.0)
    return energies, _fix_phases_loop(orbitals), residual, threshold


class TestLatticeSVD:
    """lattice_svd: the 2D lattice's sublattice SVD without the dense
    hopping matrix, against the dense route it replaces."""

    # the small grid, and L = 16, 20, 24 at the benchmark's lattice-2d
    # alphas: among them every lattice it still sends to the dense block
    # (coupling ratio past SECTOR_MAX_RATIO)
    @pytest.mark.parametrize("alpha, L", [
        (alpha, L) for L in (1, 2, 3, 4, 8, 12) for alpha in (1.0, 0.8, 0.5, 0.4)
    ] + [(alpha, L) for L in (16, 20, 24) for alpha in (0.4, 0.45, 0.5, 0.55)])
    def test_block_is_the_dense_block_bitwise(self, L, alpha, monkeypatch):
        # the block is recorded, not solved
        lat = Lattice2D(L, alpha)
        want = oracle.sublattice_block(*oracle.lattice_hamiltonian(lat))
        blocks = []
        monkeypatch.setattr(spectra, "_dense_svd", lambda block: blocks.append(block.copy()))
        lattice_svd(lat)
        assert [blk.tobytes() for blk in blocks] == [want.tobytes()]

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("alpha", [1.0, 0.8, 0.5])
    def test_spectra_bitwise_the_parent_route(self, L, alpha):
        # the parent route restated in the SVD's site numbering, where even
        # sites are the rows of M and odd sites its columns
        lat = Lattice2D(L, alpha)
        m, sub = oracle.lattice_hamiltonian(lat)
        site = oracle.svd_sites(sub)
        m_svd = np.empty_like(m)
        m_svd[np.ix_(site, site)] = m
        energies, orbitals, residual, threshold = _parent_lattice_spectrum(
            m_svd, np.arange(lat.n_sites) % 2
        )
        # the levels within the threshold come back as exact zeros, the rest
        # bit for bit
        energies[np.abs(energies) <= threshold] *= 0.0  # -0.0 on the -s side
        for svd in (oracle.diagonalize(m, sub), lattice_svd(lat)):
            assert svd.energies.tobytes() == energies.tobytes()
            assert orbitals_from_svd(svd).tobytes() == orbitals.tobytes()
            assert svd.residual == residual

    def test_site_maps(self):
        # site i is row (even i) or column (odd i) i // 2 of M; the oracle's
        # sublattices, parity on the chain and checkerboard on the lattice,
        # each hold sites 2r or 2r + 1 for r = 0, 1, ..., so their block is
        # M and U S V^T reproduces it
        chain = oracle.chain_hamiltonian(profile_from_z(5, 1.0))
        assert np.array_equal(chain[1], np.arange(10) % 2)
        lattices = [Lattice2D(L, 0.5) for L in (1, 2, 3, 8)]
        cases = [(spectra.chain_svd(profile_from_z(5, 1.0)), chain)]
        cases += [(lattice_svd(lat), oracle.lattice_hamiltonian(lat)) for lat in lattices]
        for svd, (h, sublattice) in cases:
            assert sublattice.size == 2 * svd.s.size
            for part in (0, 1):
                sites = np.flatnonzero(sublattice == part)
                assert np.array_equal(sites // 2, np.arange(sites.size))
            block = oracle.sublattice_block(h, sublattice)
            assert np.max(np.abs((svd.u * svd.s) @ svd.vt - block)) <= 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 24])
    def test_left_half_reads_the_checkerboard_rows_and_columns(self, L):
        # the rows and columns the parity rule gives sites 0 .. n/2 - 1 are,
        # in order, those the checkerboard gives the lattice's left half, so
        # polar_block forms the same product X as on the checkerboard
        lat = Lattice2D(L, 0.5)
        half = np.asarray(lat.left_half())
        on_rows = oracle.checkerboard(lat)[half] == 0
        assert np.array_equal(half[half % 2 == 0] // 2, half[on_rows] // 2)
        assert np.array_equal(half[half % 2 == 1] // 2, half[~on_rows] // 2)
        assert np.array_equal(half[on_rows] // 2, np.arange(L * L))

    def test_never_builds_the_hopping_matrix(self, monkeypatch):
        # nor its orbitals: only the (2L^2)^2 block M is solved
        def refuse(*args, **kwargs):
            raise AssertionError("orbitals assembled")

        monkeypatch.setattr(spectra, "_orbitals", refuse)
        svd = lattice_svd(Lattice2D(4, 0.7))
        assert svd.u.shape == svd.vt.shape == (32, 32)

    def test_perturbed_vectors_fail_residual(self, monkeypatch):
        solve = spectra._svd

        def perturbed(*args, **kwargs):
            u2, s, v2t = solve(*args, **kwargs)
            u2 = u2.copy()
            u2[0, 0] += 1e-6
            return u2, s, v2t

        monkeypatch.setattr(spectra, "_svd", perturbed)
        with pytest.raises(NumericsError, match="eigen-residual"):
            lattice_svd(Lattice2D(3, 0.6))


class TestGradedLatticeRefusal:
    """A dense block has no relative accuracy, so lattice_svd refuses a
    lattice whose couplings span more than ten decades, and counts only
    rounding-level levels as zero modes on the lattices it solves."""

    def test_graded_lattice_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the grading check")

        monkeypatch.setattr(spectra, "_svd", refuse)
        with pytest.raises(NumericsError, match="ten decades"):
            lattice_svd(Lattice2D(12, 0.1))

    def test_entropy_2d_solve_refuses_it_too(self, monkeypatch):
        # lattice_half_nu reads the links once, and refuses them before
        # either route's solve
        def refuse(*args, **kwargs):
            raise AssertionError("solved before the grading check")

        monkeypatch.setattr(spectra, "_svd", refuse)
        monkeypatch.setattr(spectra, "_eigh_tridiagonal", refuse)
        with pytest.raises(NumericsError, match="ten decades"):
            lattice_half_nu(Lattice2D(12, 0.1))

    def test_just_short_of_the_refusal(self):
        # coupling ratio 9.6e9: solved, and its smallest level (1.13e-12) is
        # a real one, not a zero mode; 60-digit y-sector value
        lat = Lattice2D(24, 0.376)
        svd = lattice_svd(lat)
        assert np.count_nonzero(svd.s == 0) == 0
        S = vn_entropy(polar_block(svd, lat.left_half()))
        assert abs(S - 134.212886664172) <= 1e-6

    @pytest.mark.parametrize("L", [8, 12, 16, 20, 24])
    def test_uniform_lattice_keeps_its_zero_modes(self, L):
        s = lattice_svd(Lattice2D(L, 1.0)).s
        assert np.count_nonzero(s == 0.0) == L
        assert np.all(s[s != 0.0] > 1e-3)


class TestExactZeroModes:
    """A dense block's levels within rounding of zero come back as exact
    zeros (``test_uniform_lattice_keeps_its_zero_modes``), and only those:
    a zero mode is a level with s == 0 on both geometries."""

    @pytest.mark.parametrize("L", [8, 12])
    @pytest.mark.parametrize("alpha", [0.5, 0.999])
    def test_graded_lattice_has_none(self, L, alpha):
        assert np.count_nonzero(lattice_svd(Lattice2D(L, alpha)).s == 0.0) == 0

    # entropy-2d's S at these points as the route that kept a threshold
    # printed it (2-core OpenBLAS box); (16, 0.5) reads ...c30p+5 on one
    # BLAS thread
    @pytest.mark.parametrize("L, alpha, want", [
        (8, 1.0, {"0x1.b59fb6a83a974p+3"}),
        (12, 1.0, {"0x1.5fb5999f47a62p+4"}),
        (16, 0.5, {"0x1.c488158f36c37p+5", "0x1.c488158f36c30p+5"}),
    ])
    def test_lattice_entropy_unchanged(self, L, alpha, want):
        lat = Lattice2D(L, alpha)
        nu = polar_block(oracle.half_filled(lattice_svd(lat)), lat.left_half())
        assert vn_entropy(nu).hex() in want

    # lattices past SECTOR_MAX_RATIO, which entropy-2d sends to the dense
    # block: the lattice-2d grid's one, (24, 0.4), and (20, 0.33) (coupling
    # ratios 2.2e9 and 2.4e9).  Their smallest levels, 4.0e-12 and 6.4e-12,
    # are real ones, far above the zeroing threshold (~1.2e-14), so the
    # dense route meets no zero level and needs no filling
    @pytest.mark.parametrize("L, alpha", [(24, 0.4), (20, 0.33)])
    def test_most_graded_dense_lattices_have_none(self, L, alpha):
        assert alpha ** -(L - 0.5) > spectra.SECTOR_MAX_RATIO
        s = lattice_svd(Lattice2D(L, alpha)).s
        assert np.count_nonzero(s == 0.0) == 0
        assert s[-1] > 1e-13


def _solve_sectors(monkeypatch, lat):
    """(levels, blocks): each sector k = 1 .. L's left block X from
    ``spectra._sector_half``, and the levels of H_k that its two dstev
    calls, one per mirror-parity half, returned."""
    solve = spectra._eigh_tridiagonal
    halves = []

    def spy(d, e):
        w, q = solve(d, e)
        halves.append(w.copy())
        return w, q

    monkeypatch.setattr(spectra, "_eigh_tridiagonal", spy)
    links = link_amplitudes(lat.L, lat.alpha)
    levels, blocks = [], []
    for k in range(1, lat.L + 1):
        halves.clear()
        blocks.append(spectra._sector_half(*links, k))
        assert [w.size for w in halves] == [lat.L, lat.L]
        levels.append(np.concatenate(halves))
    return levels, blocks


def _pair_nu(x):
    """The nu of a sector pair's left half from its block X: (1 +- sigma)/2,
    sigma the singular values of X, ascending."""
    sigma = sla.svdvals(x)
    return np.sort(np.concatenate([(1.0 - sigma) / 2.0, (1.0 + sigma) / 2.0]))


def _dense_left_block(svd, L):
    """X = U[:L] V^T[:, :L] of a sector pair's dense SVD, its zero levels
    filled at 1/2 (``oracle.half_filled``)."""
    svd = oracle.half_filled(svd)
    return svd.u[:L] @ svd.vt[:, :L]


class TestSectorSVD:
    """The y-momentum sectors of a lattice hold the levels of its dense
    block, and the uniform lattice's zero modes, one per sector, which the
    sector's left block fills at 1/2."""

    @pytest.mark.parametrize("L, alpha", [(1, 0.5), (3, 1.0), (4, 0.7), (8, 0.5), (8, 1.0)])
    def test_levels_are_the_dense_blocks(self, L, alpha, monkeypatch):
        lat = Lattice2D(L, alpha)
        levels, blocks = _solve_sectors(monkeypatch, lat)
        # sector k's levels +-|lambda| pair with sector 2L + 1 - k's
        got = np.sort(np.abs(np.concatenate(levels)))
        want = np.sort(lattice_svd(lat).s)
        assert np.max(np.abs(got - want)) <= 1e-14
        for x in blocks:
            assert x.shape == (L, L)
            assert np.max(np.abs(x - x.T)) <= 1e-15

    @pytest.mark.parametrize("L", [1, 2, 8, 16, 24])
    def test_uniform_lattice_keeps_its_zero_modes(self, L, monkeypatch):
        # H_k = T_x + mu_k I has one zero level in each sector: 2L zero
        # modes over the L pairs, as the dense block counts them.  Its state
        # q has half its weight on the left half, so filling it at 0 or 1
        # instead of 1/2 would move X by -+q[:L] q[:L]^T, of trace 1/2
        lat = Lattice2D(L, 1.0)
        levels, blocks = _solve_sectors(monkeypatch, lat)
        for k, (w, x) in enumerate(zip(levels, blocks), start=1):
            small = np.abs(w) <= spectra.ZERO_MODE_TOL
            assert np.count_nonzero(small) == 1
            assert np.all(np.abs(w[~small]) > 1e-3)
            want = oracle.sector_dense_svd(lat, k)
            assert np.count_nonzero(want.s == 0.0) == 1
            assert np.max(np.abs(x - _dense_left_block(want, L))) <= 1e-13

    @pytest.mark.parametrize("L", [8, 12])
    @pytest.mark.parametrize("alpha", [0.5, 0.999])
    def test_graded_lattice_has_none(self, L, alpha, monkeypatch):
        levels, _ = _solve_sectors(monkeypatch, Lattice2D(L, alpha))
        assert min(float(np.min(np.abs(w))) for w in levels) > 1e-10


class TestSectorAgainstDense:
    """spectra._sector_half (the eigensolves of H_k's two mirror-parity
    halves by dstev) against the sector pair's dense block H_k through
    dgesdd (``oracle.sector_dense_svd``), on every sector of each lattice."""

    # (24, 0.5), coupling ratio 1.2e7, is solved by sectors too, but there
    # dgesdd's sector block reads nu up to 1.4e-12 from the parity halves,
    # which read its S 4.3e-14 from the 40-digit oracle
    # (TestSectorOracle.test_largest_graded_sector_lattices): its place
    # goes to (24, 0.4), ratio 2.2e9, past SECTOR_MAX_RATIO
    @pytest.mark.parametrize("L, alpha", [
        (L, alpha) for L in (1, 2, 3, 8, 24, 64) for alpha in (1.0, 0.9, 0.6, 0.5)
        if (L, alpha) != (24, 0.5)
    ] + [(24, 0.4)])
    def test_matches_the_dense_block(self, L, alpha, monkeypatch):
        lat = Lattice2D(L, alpha)
        # the L = 64 lattices at alpha <= 0.6 (coupling ratios 1.2e14 and
        # 1.3e19) span more than ten decades: their links are refused, as
        # on the dense route, before any solve
        if alpha ** -(L - 0.5) > 1e10:
            with pytest.raises(NumericsError, match="ten decades"):
                spectra._resolvable_links(lat)
            return
        # the lattices entropy-2d solves by sectors; on (24, 0.4), which it
        # sends to the dense block, neither solve resolves the small levels,
        # so its nu and zero levels are rounding and only the levels are
        # compared
        by_sectors = alpha ** -(L - 0.5) <= spectra.SECTOR_MAX_RATIO
        left = range(2 * L)
        levels, blocks = _solve_sectors(monkeypatch, lat)
        for k in range(1, L + 1):
            w, want = levels[k - 1], oracle.sector_dense_svd(lat, k)
            # both are accurate to rounding of the largest level
            s = np.sort(np.abs(w))[::-1]
            assert np.max(np.abs(s - want.s)) <= 2 * L * np.finfo(float).eps * want.s[0]
            if not by_sectors:
                continue
            zeros = int(np.count_nonzero(np.abs(w) <= spectra.ZERO_MODE_TOL * max(s[0], 1.0)))
            assert zeros == int(np.count_nonzero(want.s == 0.0)) == (alpha == 1.0)
            nu = _pair_nu(blocks[k - 1])
            assert np.max(np.abs(nu - polar_block(oracle.half_filled(want), left))) <= 1e-12

    def test_perturbed_eigenvector_is_refused(self, monkeypatch):
        solve = spectra._eigh_tridiagonal

        def perturbed(d, e):
            w, q = solve(d, e)
            q = q.copy()
            q[0, 0] += 1e-6
            return w, q

        monkeypatch.setattr(spectra, "_eigh_tridiagonal", perturbed)
        links = link_amplitudes(8, 0.9)
        for k in range(1, 9):
            with pytest.raises(NumericsError, match="eigen-residual"):
                spectra._sector_half(*links, k)

    def test_builds_no_dense_block(self, monkeypatch):
        # neither _dense_svd nor its dgesdd runs on a lattice solved by sectors
        def refuse(*args, **kwargs):
            raise AssertionError("dense SVD called")

        monkeypatch.setattr(spectra, "_dense_svd", refuse)
        monkeypatch.setattr(spectra, "_svd", refuse)
        lat = Lattice2D(16, 0.8)
        assert lat.alpha ** -(lat.L - 0.5) <= spectra.SECTOR_MAX_RATIO
        assert lattice_half_nu(lat).size == 2 * lat.L**2


class TestSectorOracle:
    """The y-sector mpmath oracle against the dense route, the shipped
    polar route and entropy-2d's own solve (its sectors at (4, 0.5) and at
    (8, 0.1), a coupling ratio of 3.2e7), and against entropy-2d's sectors
    on graded lattices up to the ratio where it switches to the dense
    block."""

    @pytest.mark.parametrize("L, alpha, bound", [(4, 0.5, 1e-13), (8, 0.1, 1e-10)])
    def test_dense_and_polar_routes_match(self, L, alpha, bound):
        lat = Lattice2D(L, alpha)
        want = oracle.lattice_sector_entropy(lat)
        left = lat.left_half()
        c_full = oracle.correlation(oracle.diagonalize(*oracle.lattice_hamiltonian(lat)))
        dense = vn_entropy(oracle.restrict(c_full, left).eigenvalues())
        polar = vn_entropy(polar_block(lattice_svd(lat), left))
        shipped = vn_entropy(lattice_half_nu(lat))
        assert abs(dense - want) <= bound
        assert abs(polar - want) <= bound
        assert abs(shipped - want) <= bound

    # graded sector lattices against the 40-digit oracle: (8, 0.16),
    # (10, 0.24) and (12, 0.31) (coupling ratios 9.3e5, 7.7e5 and 7.1e5),
    # where a dstevd solve of the whole H_k read +8.8e-12, -8.2e-12 and
    # -2.6e-11 off, and (8, 0.0858) and (10, 0.1129) (1.0e8 and 1.0e9),
    # nearest SECTOR_MAX_RATIO.  The parity halves read them 0, -1.4e-14,
    # -3.6e-14, -7.1e-15 and -2.1e-14 off
    @pytest.mark.parametrize("L, alpha", [
        (8, 0.16), (10, 0.24), (12, 0.31), (8, 0.0858), (10, 0.1129),
    ])
    def test_sectors_near_the_ratio_limit(self, L, alpha):
        lat = Lattice2D(L, alpha)
        assert 1e5 <= alpha ** -(L - 0.5) <= spectra.SECTOR_MAX_RATIO
        want = oracle.lattice_sector_entropy(lat, dps=40)
        assert abs(vn_entropy(lattice_half_nu(lat)) - want) <= 1e-12

    # L = 24, whose oracle takes minutes: the values of
    # oracle.lattice_sector_entropy(Lattice2D(24, alpha), dps=40), which the
    # parity halves read -1.7e-13 and -4.3e-14 off (coupling ratios 1.3e6
    # and 1.2e7)
    @pytest.mark.parametrize("alpha, want", [
        (0.55, 108.13373117520274), (0.5, 116.28085889118971),
    ])
    def test_largest_graded_sector_lattices(self, alpha, want):
        lat = Lattice2D(24, alpha)
        assert alpha ** -(lat.L - 0.5) <= spectra.SECTOR_MAX_RATIO
        assert abs(vn_entropy(lattice_half_nu(lat)) - want) <= 1e-12

    # the uniform lattice: one zero level per sector, filled at 1/2 by the
    # sector's left block and by the oracle alike (L = 8 reads 1.1e-14 off)
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 8])
    def test_uniform_lattice_filling(self, L):
        lat = Lattice2D(L, 1.0)
        want = oracle.lattice_sector_entropy(lat, dps=40)
        assert abs(vn_entropy(lattice_half_nu(lat)) - want) <= 1e-12


class TestOrbitalsFromSVD:
    """occupied_from_svd and orbitals_from_svd against the dense route of
    the tests' oracle, on a grid that runs both bidiagonal drivers (z = 30
    and 92 pass the 1e10 coupling ratio)."""

    @pytest.mark.parametrize("L", [1, 2, 7, 50, 51, 101, 300])
    @pytest.mark.parametrize("z", [0.0, 1.0, 4.0, 30.0, 92.0])
    def test_bitwise_dense_route(self, L, z):
        profile = profile_from_z(L, z)
        dense = oracle.diagonalize(*oracle.chain_hamiltonian(profile))
        svd = spectra.chain_svd(profile)
        assert np.array_equal(svd.energies, dense.energies)
        assert np.array_equal(orbitals_from_svd(svd), orbitals_from_svd(dense))
        assert svd.residual == dense.residual
        occ = occupied_from_svd(svd)
        assert np.array_equal(occ, oracle.occupied(dense))
        assert occ.flags.c_contiguous

    @pytest.mark.parametrize("geometry, L, param", [
        *(pytest.param("chain", L, z, id=f"{z}-{L}")
          for z in (0.0, 4.0, 92.0) for L in (1, 2, 7, 51)),
        # alpha = 1 keeps 2L zero modes, whose columns are still columns
        *(pytest.param("lattice", L, alpha, id=f"lattice-{L}-{alpha}")
          for L, alpha in ((2, 0.5), (4, 0.8), (4, 1.0), (8, 1.0))),
    ])
    def test_level_orbital_is_the_column_bitwise(self, geometry, L, param):
        if geometry == "chain":
            svd = spectra.chain_svd(profile_from_z(L, param))
        else:
            svd = lattice_svd(Lattice2D(L, param))
        orbitals = orbitals_from_svd(svd)
        dim = 2 * svd.s.size
        for k in range(dim):
            assert np.array_equal(spectra.level_orbital(svd, k), orbitals[:, k])
        for k in (-1, dim):
            with pytest.raises(IndexError):
                spectra.level_orbital(svd, k)

    def test_zero_modes_rejected_as_by_occupied_orbitals(self):
        with pytest.warns(RuntimeWarning):
            profile = profile_from_z(10, 2000.0)
        svd = spectra.chain_svd(profile)
        dense = oracle.diagonalize(*oracle.chain_hamiltonian(profile))
        assert np.array_equal(orbitals_from_svd(svd), orbitals_from_svd(dense))
        with pytest.raises(ZeroModeError) as got:
            occupied_from_svd(svd)
        with pytest.raises(ZeroModeError) as want:
            oracle.occupied(dense)
        assert str(got.value) == str(want.value)

    def test_occupied_set_allocates_no_square_array(self):
        import tracemalloc

        L = 300
        svd = spectra.chain_svd(profile_from_z(L, 2.0))
        square = 8 * (2 * L) ** 2
        peaks = []
        for build in (occupied_from_svd, orbitals_from_svd):
            tracemalloc.start()
            try:
                build(svd)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < square <= peaks[1]


def _fix_phases_loop(orbitals):
    """Column-by-column statement of the phase rule."""
    for k in range(orbitals.shape[1]):
        col = orbitals[:, k]
        nz = np.nonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            orbitals[:, k] = -col
    return orbitals


class TestFixPhases:
    def test_sign_rule(self):
        # one column per row here; the threshold is 1e-8 x 0.5 = 5e-9
        cols = np.array([
            [-0.6, 0.8, 0.0],     # leading entry negative: flipped
            [-5e-9, 0.5, 0.0],    # negative lead at the threshold ignored: kept
            [1e-9, -0.5, 0.0],    # positive lead below it ignored: flipped
            [-6e-9, 0.5, 0.0],    # negative lead above it counts: flipped
            [0.0, 0.0, 0.0],      # zero column: kept
        ])
        out = _fix_phases(cols.T.copy()).T
        flipped = np.array([True, False, True, True, False])
        assert np.array_equal(out[flipped], -cols[flipped])
        assert np.array_equal(out[~flipped], cols[~flipped])

    def test_matches_loop(self, rng):
        orbitals = rng.standard_normal((40, 40))
        orbitals[:5] *= 1e-9
        orbitals[:, 7] = 0.0
        want = _fix_phases_loop(orbitals.copy())
        assert _fix_phases(orbitals.copy()).tobytes() == want.tobytes()


class TestOrbitalAssembly:
    @pytest.mark.parametrize("geometry", [
        profile_from_z(30, 1.0),
        profile_from_z(30, 40.0),
        Lattice2D(3, 0.7),
    ], ids=["mild-chain", "graded-chain", "lattice"])
    def test_matches_pair_loop(self, geometry):
        """orbitals_from_svd, bit for bit, against the pair-by-pair
        assembly and column-by-column phase rule."""
        if isinstance(geometry, CouplingProfile):
            svd = chain_svd(geometry)
            u, s, vt = svd.u, svd.s, svd.vt
        else:
            svd = lattice_svd(geometry)
            u, s, vt = _dense_svd(
                oracle.sublattice_block(*oracle.lattice_hamiltonian(geometry))
            )
        n = 2 * s.size
        a_idx, b_idx = np.arange(0, n, 2), np.arange(1, n, 2)
        want = np.zeros((n, n))
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        for p in range(s.size):
            want[a_idx, p] = u[:, p] * inv_sqrt2
            want[b_idx, p] = -vt[p, :] * inv_sqrt2
            want[a_idx, n - 1 - p] = u[:, p] * inv_sqrt2
            want[b_idx, n - 1 - p] = vt[p, :] * inv_sqrt2
        want = _fix_phases_loop(want)
        assert orbitals_from_svd(svd).tobytes() == want.tobytes()


class TestOccupiedOrbitals:
    def test_single_link(self):
        occ = occupied_from_svd(chain_svd(build_rainbow_profile(1, 1.0)))
        assert occ.shape == (2, 1)
        assert occ[:, 0] == pytest.approx([1, 1] / np.sqrt(2))

    def test_half_filling_count(self):
        occ = chain_occupied(9, alpha=0.5)
        assert occ.shape == (18, 9)

    def test_zero_modes_rejected(self):
        svd = lattice_svd(Lattice2D(1, 1.0))
        with pytest.raises(ZeroModeError):
            occupied_from_svd(svd)


class TestSiteOccupations:
    def test_single_link(self):
        occ = chain_occupied(1, alpha=1.0)
        assert site_occupations(occ) == pytest.approx([0.5, 0.5])

    def test_ground_state_flat(self):
        occ = chain_occupied(50, alpha=0.6)
        assert np.max(np.abs(site_occupations(occ) - 0.5)) < 1e-10

    def test_excited_state_not_flat(self):
        # promote across non-partner levels (a particle-hole partner has
        # identical per-site probability, which would hide the excitation)
        _, svd = chain_spectrum(10, alpha=0.6)
        orbitals = orbitals_from_svd(svd)
        occ = orbitals[:, :10].copy()
        occ[:, 9] = orbitals[:, 11]
        assert np.max(np.abs(site_occupations(occ) - 0.5)) > 1e-3


class TestFermiVelocity:
    @pytest.mark.parametrize(
        "z,tol", [(0.0, 0.01), (1.0, 0.01), (4.0, 0.02)]
    )
    def test_matches_closed_form(self, z, tol):
        L = 500
        _, svd = chain_spectrum(L, z=z)
        a = fermi_velocity(svd)
        assert abs(a / velocity_scaling(z) - 1) < tol

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, -1.0])
    def test_non_finite_or_negative_z_raises(self, z):
        # NaN and inf used to return NaN
        with pytest.raises(ValueError, match="z must be finite and non-negative"):
            velocity_scaling(z)

    def test_analytic_values(self):
        assert velocity_scaling(0.0) == 1.0
        assert velocity_scaling(1.0) == pytest.approx(0.581977, abs=1e-6)
        assert velocity_scaling(4.0) == pytest.approx(0.074629, abs=1e-6)

    @pytest.mark.parametrize("z", [1e-300, 1e-12, 5e-9, 9.9e-9, 1e-8, 1e-3, 30.0])
    def test_small_z_matches_mpmath(self, z):
        with mpmath.workdps(60):
            want = float(mpmath.mpf(z) / mpmath.expm1(z))
        assert abs(velocity_scaling(z) / want - 1) <= 1e-15

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("z", [709.5, 709.78, 710.0, 720.0, 745.0, 800.0, 1e5, 1e300])
    def test_large_z_takes_the_limit_without_overflow(self, z):
        # e^z overflows past z = 709.78; z/(e^z - 1) is then z e^(-z) to far
        # below rounding, which underflows to 0 from z ~ 752 on
        with mpmath.workdps(60):
            want = float(mpmath.mpf(z) / mpmath.expm1(z))
        got = velocity_scaling(z)
        assert abs(got - want) <= 1e-13 * want + 1e-322

    @pytest.mark.parametrize("z", [1.0, 100.0, 708.5, 709.0])
    def test_bits_kept_up_to_709(self, z):
        assert velocity_scaling(z) == z / np.expm1(z)

    def test_analytic_monotone_to_one(self):
        zs = np.linspace(0, 3, 20)
        vals = [velocity_scaling(z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(1.0)

    def test_multilevel_fit_agrees(self):
        L = 200
        _, svd = chain_spectrum(L, z=2.0)
        gap = fermi_velocity(svd)
        fit = fermi_velocity_fit(svd)
        assert abs(fit / gap - 1) < 0.01

    def test_too_small(self):
        svd = chain_svd(build_rainbow_profile(1, 1.0))
        with pytest.raises(ValueError):
            fermi_velocity(svd)

    def test_length_read_off_the_svd(self):
        # the values that passing L = 500 alongside the SVD gave, bit for bit
        svd = chain_svd(profile_from_z(500, 1.0))
        assert fermi_velocity(svd) == 0.5816386330458119
        assert fermi_velocity_fit(svd) == 0.5816235658798679


class TestSerialization:
    def test_spectrum_rows_indexing(self, tmp_path):
        from rainbow_lab.cli import main

        _, svd = chain_spectrum(3, alpha=0.8)
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--L", "3", "--alpha", "0.8", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")]
        ms = [int(m) for m, _ in rows]
        assert ms == [-3, -2, -1, 0, 1, 2]
        assert float(rows[3][1]) == pytest.approx(svd.energies[3])

    def test_orbitals_roundtrip(self, tmp_path):
        _, svd = chain_spectrum(5, alpha=0.9)
        orbitals = orbitals_from_svd(svd)
        path = tmp_path / "orb.bin"
        save_orbitals(orbitals, path)
        back = load_orbitals(path)
        assert np.array_equal(back, orbitals)
        # layout: 16-byte header then row-major float64
        assert path.stat().st_size == 16 + 8 * 10 * 10

"""Dense reference route for the tests: the full hopping matrix, its
spectrum and the ground-state correlation matrix (Peschel, J. Phys. A 36
L205 (2003)).

The library never forms these (``spectra.chain_svd`` and
``spectra.lattice_svd`` read the sublattice block straight from the
couplings and the links' amplitudes, ``spectra.sector_svd`` a sector's
two bands); the tests build them here from the same couplings, so every
shipped route has a dense counterpart to agree with.  A sector pair's
dense counterpart is its 2L x 2L block H_k through dgesdd
(``sector_dense_svd``), the route ``sector_svd`` replaces.  Plain
functions: matrices and sublattices are arrays, and nothing here
validates its input, which comes from the tests alone.

The 2D lattice's links are listed here (``lattice_links``), site by site,
and so is its checkerboard, neither of which the library keeps: a wrong
block in ``lattice_svd`` cannot pass by sharing its link list with the
oracle.  The dense lattice is in lattice-site numbering, ix * 2L + iy; an
SVD numbers its sites by parity (even sites are rows, odd sites columns),
and ``svd_sites`` maps one numbering onto the other, so the oracle's 2D
correlation matrix (``lattice_correlation``) stays in lattice sites.

``numpy_correlation`` and ``numpy_eigenvalues`` are the orbital route
as numpy computes it, which the library's route on SciPy's BLAS must
match bit for bit.

``continuum_occupied`` and ``slater_overlap`` are the validity map's
explicit-Q route: the continuum state's orthonormal orbitals formed by
``qr_q`` (SciPy's economic QR, dgeqrf and dorgqr) and the overlap taken
between two explicit orbital sets.  ``continuum.validity_overlap``
applies the QR's Q implicitly instead, and must agree with this route.

``cauchy_kernel`` forms the half-chain fold's k x k Cauchy kernel and
``dpstrf_factor`` factors it by LAPACK's pivoted Cholesky, the dense route
that ``entanglement._cauchy_factor`` replaces without forming the kernel.

``lattice_sector_entropy`` is the one oracle that is not dense: the 2D
lattice's left-half entropy from its y-momentum sectors in mpmath, so it
shares no float64 arithmetic with any shipped route.  ``renyi_mp`` takes
a Renyi entropy of given nu in mpmath.

``level_spacing`` reads the entanglement-spectrum spacing Delta_L off a
block's eps, and ``schmidt_rank`` the Schmidt rank of a leading block off
a many-body amplitude table: the quantities acceptance criteria 6 and 10
state.
"""

import math

import mpmath
import numpy as np

from rainbow_lab import spectra
from rainbow_lab._lapack import _flapack
from rainbow_lab.continuum import _analytic_levels
from rainbow_lab.entanglement import NU_CLIP, CorrelationMatrix
from rainbow_lab.lattice import CouplingProfile, link_amplitudes, signed_profile


def chain_hamiltonian(profile):
    """Dense tridiagonal hopping matrix of a chain, element -J/2 on each
    link, and its sublattice (the site parity).

    Takes a CouplingProfile or a plain signed coupling sequence of odd
    length.
    """
    c = profile.couplings if isinstance(profile, CouplingProfile) else signed_profile(profile)
    n = c.size + 1
    m = np.zeros((n, n))
    idx = np.arange(n - 1)
    m[idx, idx + 1] = -c / 2.0
    m[idx + 1, idx] = -c / 2.0
    return m, np.arange(n) % 2


def lattice_links(L, alpha):
    """Links (i, j, J) of the 2L x 2L lattice as three arrays, sorted by
    (i, j), i < j, sites ix * 2L + iy, with the amplitudes of
    ``link_amplitudes``."""
    n = 2 * L
    vertical, horizontal = link_amplitudes(L, alpha)
    ix, iy = np.divmod(np.arange(n * n), n)
    up, right = np.flatnonzero(iy + 1 < n), np.flatnonzero(ix + 1 < n)
    i = np.concatenate([up, right])
    j = np.concatenate([up + 1, right + n])
    J = np.concatenate([vertical[ix[up]], horizontal[ix[right]]])
    order = np.lexsort((j, i))
    return i[order], j[order], J[order]


def checkerboard(lat):
    """Sublattice (ix + iy) % 2 of every lattice site ix * 2L + iy."""
    ranks = np.arange(2 * lat.L)
    return np.add.outer(ranks, ranks).ravel() % 2


def lattice_hamiltonian(lat):
    """Dense hopping matrix of the 2D lattice from ``lattice_links``,
    element -J/2 on each link, and its sublattice (the checkerboard)."""
    m = np.zeros((lat.n_sites, lat.n_sites))
    i, j, J = lattice_links(lat.L, lat.alpha)
    m[i, j] = m[j, i] = -J / 2.0
    return m, checkerboard(lat)


def svd_sites(sublattice):
    """The SVD's site 2 (j // 2) + sublattice[j] of each site j of a dense
    bipartite matrix whose sublattices each hold one site of every pair
    2r, 2r + 1, as the chain's parity and the lattice's checkerboard do:
    j is then row or column j // 2 of the sublattice block.  The parity
    maps every site to itself; the checkerboard swaps each pair in the odd
    columns."""
    return 2 * (np.arange(sublattice.size) // 2) + sublattice


def sublattice_block(m, sublattice):
    """The (sublattice 0 x sublattice 1) block M of a bipartite matrix."""
    return m[np.ix_(sublattice == 0, sublattice == 1)]


def diagonalize(m, sublattice):
    """The sublattice SVD of a dense bipartite hopping matrix.

    A bidiagonal sublattice block (a chain) goes to the solve of
    ``chain_svd``, any other to that of ``lattice_svd``: the result is
    bitwise that of the shipped route on the same couplings.
    """
    block = sublattice_block(m, sublattice)
    on_band = np.count_nonzero(np.diagonal(block)) + np.count_nonzero(
        np.diagonal(block, -1)
    )
    if np.count_nonzero(block) == on_band:
        return spectra._chain_solve(np.diagonal(block), np.diagonal(block, -1))
    return spectra._dense_svd(block)


def sector_block(lat, k):
    """The 2L x 2L dense H_k = T_x + mu_k D_x of the lattice's sector pair
    k, 2L + 1 - k, from ``link_amplitudes``: diagonal mu_k alpha^|x|,
    off-diagonal the horizontal links' -J/2."""
    L = lat.L
    vertical, horizontal = link_amplitudes(L, lat.alpha)
    block = np.diag(-math.cos(math.pi * k / (2 * L + 1)) * vertical)
    bond = np.arange(2 * L - 1)
    block[bond, bond + 1] = block[bond + 1, bond] = -horizontal / 2.0
    return block


def sector_dense_svd(lat, k):
    """The sector pair's SVD as the dense route takes it: ``sector_block``
    through ``spectra._dense_svd`` (dgesdd, its dense residual and its
    zero-mode rule)."""
    return spectra._dense_svd(sector_block(lat, k))


def zero_modes(svd):
    """Boolean mask of the zero levels."""
    return svd.energies == 0


def occupied(svd):
    """The dim/2 negative-energy orbitals of the half-filled ground state;
    ZeroModeError, with ``occupied_from_svd``'s message, on zero modes."""
    count = int(np.count_nonzero(zero_modes(svd)))
    if count:
        raise spectra.ZeroModeError(
            f"{count} single-particle zero modes; "
            "half filling is ambiguous, choose an explicit filling policy"
        )
    return spectra.orbitals_from_svd(svd)[:, : svd.s.size].copy()


def correlation(svd):
    """Full ground-state correlation matrix at half filling, the zero
    shell at density 1/2: C = P(E<0) + P(E=0)/2."""
    energies, orbitals = svd.energies, spectra.orbitals_from_svd(svd)
    zero = zero_modes(svd)
    if not np.any(zero):
        occ = orbitals[:, : svd.s.size]
        return occ @ occ.T
    neg = orbitals[:, (energies < 0) & ~zero]
    shell = orbitals[:, zero]
    return neg @ neg.T + 0.5 * (shell @ shell.T)


def lattice_correlation(lat):
    """``correlation`` of the 2D lattice's dense route, in lattice-site
    numbering: row and column j are the SVD's site ``svd_sites`` of j."""
    m, sublattice = lattice_hamiltonian(lat)
    site = svd_sites(sublattice)
    return correlation(diagonalize(m, sublattice))[np.ix_(site, site)]


def restrict(c, block):
    """A full correlation matrix restricted to a block of sites."""
    block = tuple(block)
    return CorrelationMatrix(entries=c[np.ix_(block, block)])


def numpy_correlation(occ, block):
    """``entanglement.correlation_matrix`` on numpy's BLAS, R @ R.T for R
    the block's rows of ``occ``: the bits the library's ``dsyrk`` keeps."""
    rows = occ[list(block), :]
    return CorrelationMatrix(entries=rows @ rows.T)


def numpy_eigenvalues(c):
    """``CorrelationMatrix.eigenvalues`` on numpy's LAPACK: eigvalsh,
    clipped to [0, 1]."""
    return np.clip(np.linalg.eigvalsh(c.entries), 0.0, 1.0)


def qr_q(a):
    """Q of ``scipy.linalg.qr(a, mode="economic", check_finite=False)`` for
    a non-empty a: dgeqrf, then dorgqr on its first min(M, N) columns, each
    sized by an lwork = -1 query."""
    a = np.asarray(a)
    m, n = a.shape
    work = _flapack.dgeqrf(a, lwork=-1, overwrite_a=0)[-2]
    qr, tau, _, info = _flapack.dgeqrf(a, lwork=int(work[0]), overwrite_a=0)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal geqrf")
    qr = qr[:, :min(m, n)]
    work = _flapack.dorgqr(qr, tau, lwork=-1, overwrite_a=1)[-2]
    q, _, info = _flapack.dorgqr(qr, tau, lwork=int(work[0]), overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal orgqr")
    return q


def continuum_occupied(L, h):
    """QR-orthonormalized analytic orbitals of the L occupied levels
    m = -L..-1, as an explicit 2L x L Q."""
    return qr_q(_analytic_levels(np.arange(-L, 0), h, L).T)


def slater_overlap(occ_a, occ_b):
    """|det(A^T B)| between two Slater states given by orthonormal orbitals.

    Invariant under orthogonal rotations inside either occupied set.
    ValueError unless both sets have one shape and each is orthonormal,
    ||M^T M - I||_F <= 1e-8 (NaN fails).
    """
    a = np.asarray(occ_a, dtype=float)
    b = np.asarray(occ_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"orbital matrices differ in shape: {a.shape} vs {b.shape}")
    for m in (a, b):
        gram = spectra._dgemm(m.T, m)
        gram[np.diag_indices_from(gram)] -= 1.0
        if not np.sum(gram * gram) <= 1e-16:
            raise ValueError("orbital set is not orthonormal (||M^T M - I||_F > 1e-8)")
    lu, _, info = _flapack.dgetrf(spectra._dgemm(a.T, b))
    if info > 0:  # an exact zero pivot: the determinant is 0
        return 0.0
    return float(np.exp(np.sum(np.log(np.abs(np.diag(lu))))))


def cauchy_kernel(f, w):
    """K_ij = f_i f_j / (|w_i| + |w_j|), the fold's side kernel, dense."""
    aw = np.abs(w)
    return np.outer(f, f) / np.add.outer(aw, aw)


def dpstrf_factor(k_mat):
    """(F, rank): LAPACK dpstrf's pivoted Cholesky P^T K P = F F^T of the
    dense symmetric k_mat at its default tolerance, F the k x rank lower
    trapezoidal factor with its rows in pivot order."""
    factor, _, rank, info = _flapack.dpstrf(k_mat, lower=1, tol=-1.0)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of dpstrf")
    return np.tril(factor[:, :rank]), int(rank)


def renyi_mp(nu, order, dps=60):
    """S^(n) of the levels of nu not within NU_CLIP of 0 or 1, each taken
    as the exact value of its float, summed in dps-digit arithmetic from
    the defining formula."""
    nu = np.asarray(nu, dtype=float)
    nu = nu[(nu > NU_CLIP) & (nu < 1.0 - NU_CLIP)]
    with mpmath.workdps(dps):
        n = mpmath.mpf(order)
        total = mpmath.mpf(0)
        for v in map(mpmath.mpf, nu.tolist()):
            if n == 1:
                total -= v * mpmath.log(v) + (1 - v) * mpmath.log(1 - v)
            else:
                total += mpmath.log(v**n + (1 - v) ** n) / (1 - n)
        return float(total)


# Number of levels around eps = 0 averaged for the spacing Delta_L.  Two
# +- pairs: wide windows leak spectral curvature into the estimate.
DELTA_WINDOW = 4


def level_spacing(eps):
    """Mean spacing Delta_L of the DELTA_WINDOW entanglement energies
    closest to zero (all of them if fewer); NaN for fewer than two."""
    eps = np.asarray(eps, dtype=float)
    if eps.size < 2:
        return math.nan
    window = np.sort(eps[np.argsort(np.abs(eps))[:DELTA_WINDOW]])
    return float(np.mean(np.diff(window)))


def schmidt_rank(amps, block_size, rel_tol=1e-10):
    """Schmidt rank of the first `block_size` sites vs the rest."""
    sv = np.linalg.svd(amps.bipartition(range(block_size)), compute_uv=False)
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def lattice_sector_entropy(lat, dps=60):
    """Left-half (x < 0) von Neumann entropy of the 2D lattice at half
    filling, from its y-momentum sectors in ``dps``-digit arithmetic.

    H = T_x (x) I + D_x (x) T_y, with T_x the chain of horizontal links,
    D_x = diag(alpha^|x|) and T_y the uniform 2L-site chain (hopping -1/2),
    whose eigenvalues are lambda_k = -cos(pi k/(2L + 1)), k = 1 .. 2L.  The
    sine transform in y splits H into the 2L chains
    H_k = T_x + lambda_k D_x, and the left half holds every y, so
    S = sum_k S_k, S_k the entropy of H_k's first L sites.  Levels within
    10^(-dps/2) of zero are filled at density 1/2, as ``zero_modes="half"``
    fills them.
    """
    L, n = lat.L, 2 * lat.L
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(lat.alpha)
        # column x = ix - L + 1/2, so |x| = |ix - L + 1/2| and |x + 1/2| = |ix - L + 1|
        diag = [alpha ** abs(mpmath.mpf(2 * ix - n + 1) / 2) for ix in range(n)]
        hop = [-alpha ** abs(ix - L + 1) / 2 for ix in range(n - 1)]
        tiny = mpmath.mpf(10) ** (-dps // 2)
        S = mpmath.mpf(0)
        for k in range(1, n + 1):
            lam = -mpmath.cos(mpmath.pi * k / (n + 1))
            h = mpmath.matrix(n, n)
            for ix in range(n):
                h[ix, ix] = lam * diag[ix]
            for ix in range(n - 1):
                h[ix, ix + 1] = h[ix + 1, ix] = hop[ix]
            energies, q = mpmath.eigsy(h)
            fill = [1 if e < -tiny else mpmath.mpf(1) / 2 if e <= tiny else 0
                    for e in energies]
            c = mpmath.matrix(L, L)
            for i in range(L):
                for j in range(i, L):
                    c[i, j] = c[j, i] = mpmath.fsum(
                        f * q[i, p] * q[j, p] for p, f in enumerate(fill) if f)
            for nu in mpmath.eigsy(c, eigvals_only=True):
                if 0 < nu < 1:
                    S -= nu * mpmath.log(nu) + (1 - nu) * mpmath.log(1 - nu)
        return float(S)

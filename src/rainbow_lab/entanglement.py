"""Block entanglement of free-fermion ground states and its brute-force oracle.

For a Slater ground state the reduced density matrix of a block is fixed
by the block correlation matrix C_ij = <c+_i c_j>.  Its eigenvalues
nu_p in [0, 1] give every Renyi entropy and the single-body entanglement
energies eps_p = ln((1 - nu_p)/nu_p), so ``renyi_entropies``,
``vn_entropy`` and ``entanglement_spectrum`` take a block's nu and
nothing else.  Entropies are plain floats in nats, one per Renyi order
asked for; the block and the orders are the caller's own inputs and are
not echoed back.

Chains and the 2D lattice take the polar route: at half filling
C = (1 - sign H)/2, and for a bipartite H with sublattice block
M = U S V^T the diagonal blocks of sign H are zero and its off-diagonal
block is the polar factor U V^T.  A block's nu are therefore
(1 +- sigma)/2, sigma the singular values of its (row sites x column
sites) sub-block X of U V^T, plus |n_rows - n_cols| levels at exactly
1/2; ``polar_block`` returns them for any block of one solve
(``spectra.chain_svd`` or ``spectra.lattice_svd``), so a scan over blocks
solves once.  No orbitals or correlation matrix are formed, and X is
formed on SciPy's BLAS, the library the solve runs on (the one-BLAS rule
of ``spectra``).
The half chain of a mirror-symmetric chain is a two-sector problem
(``halfchain_nu``): its nu are (1 +- sigma)/2 again, with sigma taken from
the even-parity sector alone, one L x L eigensolve
(``spectra.even_sector``) in place of the 2L-site SVD.  Of that solve
sigma needs only the levels of one sign side and the last components of
their eigenvectors: a reflection identity gives the side's block of
Q^T Gamma Q from them in closed form, a Cauchy-like matrix of low
numerical rank, and sigma comes from the eigenvalues of the rank x rank
Gram of its pivoted Cholesky factor rather than from an SVD.  Chains that
are not mirror symmetric, or too strongly graded for that solve, take the
polar route.
The orbital route (``correlation_matrix`` on occupied orbitals, then
``CorrelationMatrix.eigenvalues``) serves only the chain's
entanglement-spectrum collapse; the tests keep the dense
correlation-matrix method of Peschel, J. Phys. A 36 L205 (2003), as the
oracle for both routes.  Its product (``dsyrk``) and eigensolver
(``dsyevd``) run on SciPy's BLAS too, and are the calls numpy's
``R @ R.T`` and ``eigvalsh`` make, so they keep numpy's bits, on which
the es-collapse reference's nu = 1/2 labels depend.

The brute-force route expands the full many-body state (small N only),
bipartitions the amplitude matrix and takes singular values; it shares
no code with either route beyond the orbital matrix itself, so the
results agreeing to 1e-10 is a genuine cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, eigvalsh, lapack, svdvals

from .continuum import deformed_length
from .qubism import AmplitudeTable
from .lattice import CouplingProfile
from .spectra import (
    NumericsError,
    SublatticeSVD,
    ZeroModeError,
    _dgemm,
    _folds,
    chain_svd,
    even_sector,
)

NU_CLIP = 1e-14
# Number of levels around eps = 0 averaged for the spacing Delta_L.  Two
# +- pairs: wide windows leak spectral curvature into the estimate.
DELTA_WINDOW = 4


@dataclass(frozen=True)
class CorrelationMatrix:
    """Ground-state two-point function restricted to a block of sites."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be a square matrix, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues, ascending, clipped to [0, 1]; NumericsError if they
        stray further.  LAPACK's dsyevd on the lower triangle, through
        SciPy: the call numpy's eigvalsh makes, so the values keep its bits
        wherever the two OpenBLAS builds share their kernels."""
        return _checked_nu(eigvalsh(self.entries, driver="evd", check_finite=False))


def _checked_nu(nu: np.ndarray) -> np.ndarray:
    """nu clipped to [0, 1]; NumericsError if it strays more than 1e-10."""
    if nu.min() < -1e-10 or nu.max() > 1 + 1e-10:
        raise NumericsError(
            f"correlation eigenvalues outside [0,1]: [{nu.min()}, {nu.max()}]"
        )
    return np.clip(nu, 0.0, 1.0)


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Single-body entanglement data of a block.

    eps = ln((1-nu)/nu) ascending with +-inf sentinels for levels clipped
    at 0 or 1, delta_L the mean level spacing around eps = 0.
    """

    eps: np.ndarray = field(repr=False)
    delta_L: float

    def finite_eps(self) -> np.ndarray:
        return self.eps[np.isfinite(self.eps)]


def _distinct_sites(block, n_sites: int) -> tuple:
    """The block as a tuple of ints; ValueError if empty, repeating or
    outside [0, n_sites)."""
    block = tuple(int(b) for b in block)
    if len(block) == 0:
        raise ValueError("empty block")
    if len(set(block)) != len(block):
        raise ValueError("block indices must be distinct")
    if min(block) < 0 or max(block) >= n_sites:
        raise ValueError(f"block sites must lie in [0, {n_sites})")
    return block


def correlation_matrix(occ: np.ndarray, block) -> CorrelationMatrix:
    """C_ij = sum_k psi^k_i psi^k_j over occupied orbitals, i, j in block.

    C = R R^T for R the block's rows of ``occ``, by one ``dsyrk`` on SciPy's
    BLAS (the call numpy makes for ``R @ R.T``, so C keeps its bits) with
    the lower triangle mirrored into the upper.
    """
    occ = np.asarray(occ, dtype=float)
    block = _distinct_sites(block, occ.shape[0])
    rows = occ[_as_slice(np.asarray(block))]
    if not rows.shape[1]:  # no orbital: dsyrk rejects an empty operand
        return CorrelationMatrix(entries=np.zeros((len(block),) * 2))
    c = blas.dsyrk(1.0, rows.T, trans=1, lower=1)
    return CorrelationMatrix(entries=c + np.tril(c, -1).T)


def polar_block(svd: SublatticeSVD, block, zero_modes: str = "error") -> np.ndarray:
    """The nu of a half-filled block, from the sublattice SVD.

    X = U[rows] V^T[:, cols] with rows (cols) the block's sites on the
    rows (columns) of M: site i is row or column i // 2 (``SublatticeSVD``).
    X is formed on SciPy's BLAS like the solve itself.  sigma are the
    singular values of X, taken directly rather than from X X^T, whose
    squaring would lose the small sigma that set nu near 1/2.  nu are
    (1 - sigma)/2, the |n_rows - n_cols| levels at exactly 1/2 and
    (1 + sigma)/2, ascending, clipped to [0, 1]; NumericsError if they
    stray further.

    zero_modes picks the filling policy when singular values sit within
    ``svd.zero_tol`` of zero (e.g. the uniform 2D lattice):

    - "error": raise ZeroModeError (the half-filled Slater state is not
      unique);
    - "half": they drop out of U V^T, i.e. C = P(E<0) + P(E=0)/2, the
      zero-energy shell at density 1/2 (the particle-hole symmetric
      zero-temperature limit; Gaussian, but not a single determinant).
    """
    if zero_modes not in ("error", "half"):
        raise ValueError(f"unknown zero-mode policy {zero_modes!r}")
    keep = np.nonzero(svd.s > svd.zero_tol)[0]
    n_zero = 2 * (svd.s.size - keep.size)
    if n_zero and zero_modes == "error":
        raise ZeroModeError(
            f"{n_zero} zero modes; pass zero_modes='half' "
            "for the particle-hole symmetric filling"
        )
    block = _distinct_sites(block, svd.sublattice.size)
    sites = np.asarray(block)
    on_rows = svd.sublattice[sites] == 0
    rows = sites[on_rows] // 2
    cols = sites[~on_rows] // 2
    u = svd.u[_as_slice(rows)]
    vt = svd.vt[:, _as_slice(cols)]
    if keep.size < svd.s.size:
        u, vt = u[:, keep], vt[keep]
    return _nu_from_sigma(svdvals(_dgemm(u, vt)), abs(rows.size - cols.size))


def _nu_from_sigma(sigma: np.ndarray, n_half: int) -> np.ndarray:
    """nu = (1 - sigma)/2, n_half levels at exactly 1/2 and (1 + sigma)/2,
    ascending for sigma descending, through ``_checked_nu``."""
    return _checked_nu(np.concatenate([
        (1.0 - sigma) / 2.0,
        np.full(n_half, 0.5),
        (1.0 + sigma[::-1]) / 2.0,
    ]))


def halfchain_nu(profile: CouplingProfile) -> np.ndarray:
    """The nu of a chain's left half, sites 0 .. L-1, ascending: those of
    ``polar_block(chain_svd(profile), range(L))`` up to rounding.

    A chain whose couplings are bitwise mirror symmetric, nonzero and span
    at most ``spectra.FOLD_MAX_RATIO`` takes one L x L eigensolve of its
    even-parity sector H+ (``spectra.even_sector``).  The left-half
    correlation matrix is C_A = (P+ + P-)/2, P+- the projectors onto the
    occupied states of H+-; since H- = -Gamma H+ Gamma, P- is Gamma times
    the projector onto H+'s unoccupied states times Gamma.  The eigenvalues
    of half a sum of two projectors are (1 +- sigma)/2, sigma the singular
    values of B = Q_occ^T Gamma Q_unocc (the cosines of their principal
    angles), plus |r+ - r-| levels at exactly 1/2 for ranks r+ and
    r- = L - r+; on a chain that is the odd-L level.

    sigma takes no SVD.  Q^T Gamma Q is orthogonal and symmetric, so for
    the smaller side Q_s (k = min(r+, r-) eigenvectors) its diagonal block
    A = Q_s^T Gamma Q_s obeys A^2 + B B^T = I, and B's k singular values
    are sqrt(1 - a^2) (Paige & Wei, Linear Algebra Appl. 208/209 (1994)
    303).  A is known in closed form: Gamma H+ Gamma = -H+ + 2 delta e e^T
    gives Gamma H+ + H+ Gamma = 2 delta gamma e e^T (gamma = (-1)^(L-1)),
    so A_ij (w_i + w_j) = 2 delta gamma f_i f_j, f the side's components
    on site L-1.  All w of one side share a sign, so A = +-|c[L-1]| K with
    K_ij = f_i f_j / (|w_i| + |w_j|), a positive semidefinite Cauchy-like
    matrix whose spectrum decays exponentially (Beckermann & Townsend,
    SIAM J. Matrix Anal. Appl. 38 (2017) 1227): its numerical rank is a
    few dozen against k in the hundreds.  A pivoted Cholesky
    K = F F^T stops at that rank, and the a are |c[L-1]| times the
    eigenvalues of the rank x rank Gram F^T F: one ``dsyrk`` and one
    values-only ``eigvalsh`` of that size.

    Every other chain takes the polar route.  A sector sign count that
    disagrees with its structure raises NumericsError (``even_sector``).
    """
    if not _folds(profile.couplings):
        return polar_block(chain_svd(profile), range(profile.L))
    r, w, f = even_sector(profile)
    aw = np.abs(w)
    cauchy = aw[:, None] + aw
    np.divide(f[:, None] * f, cauchy, out=cauchy)
    # K is symmetric, so its transpose is the column-major buffer that
    # dpstrf factors in place.  It stops once every remaining pivot is
    # below k eps max diag K (its default tolerance, eps = 2^-53), so each
    # dropped direction has a <= |c[L-1]| k^2 eps max diag K <= k^2 eps
    # (|A_ii| <= 1), 7e-11 at k = 800, and nu = (1 - sigma)/2 <= a^2/2,
    # 3e-21, far below NU_CLIP: a = 0 there.  info > 0 only says that it
    # stopped early.
    factor, _, rank, _ = lapack.dpstrf(cauchy.T, lower=1, tol=-1.0, overwrite_a=True)
    a = np.zeros(w.size)
    if rank:  # L = 1: no pair, and dsyrk rejects an empty operand
        # F^T F from F's lower-trapezoidal columns; dsyrk fills the lower
        # triangle, which eigvalsh reads
        gram = blas.dsyrk(1.0, np.tril(factor[:, :rank]), trans=1, lower=1)
        a[:rank] = abs(profile.couplings[profile.L - 1]) * eigvalsh(
            gram, overwrite_a=True, check_finite=False)
    sigma = np.sort(np.sqrt(np.maximum((1.0 - a) * (1.0 + a), 0.0)))[::-1]
    return _nu_from_sigma(sigma, abs(2 * r - profile.L))


def _as_slice(index: np.ndarray):
    """A run of consecutive ascending indices as a slice, which reads a view
    instead of copying; any other index array as it is."""
    if index.size and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _checked_orders(orders) -> list:
    """The Renyi order(s) as a list of floats; ValueError unless every one
    is finite and >= 1 (NaN and inf fail)."""
    orders = [float(n) for n in (orders if np.iterable(orders) else [orders])]
    bad = [n for n in orders if not 1 <= n < math.inf]
    if bad:
        raise ValueError(f"Renyi order must be >= 1 and finite, got {bad[0]}")
    return orders


def _renyi_from_nu(nu: np.ndarray, order: float) -> float:
    keep = (nu > NU_CLIP) & (nu < 1.0 - NU_CLIP)
    nu = nu[keep]
    if order == 1:
        return float(-np.sum(nu * np.log(nu) + (1 - nu) * np.log1p(-nu)))
    return float(np.sum(np.log(nu**order + (1 - nu) ** order)) / (1 - order))


def renyi_entropies(nu, orders) -> list:
    """Renyi entropies S^(n) of a block from its nu, one float per order
    in nats; n = 1 is the von Neumann limit.

    S^(n) = (1/(1-n)) sum_p ln(nu_p^n + (1-nu_p)^n).  Levels clipped at
    0 or 1 (within 1e-14) carry no entropy and are dropped.
    """
    orders = _checked_orders(orders)
    nu = np.asarray(nu, dtype=float)
    return [_renyi_from_nu(nu, n) for n in orders]


def vn_entropy(nu) -> float:
    return renyi_entropies(nu, [1])[0]


def entanglement_spectrum(nu) -> EntanglementSpectrum:
    """Single-body entanglement energies of a block's nu and the level
    spacing near zero.

    Levels with nu clipped at 0 or 1 are reported as +-inf and excluded
    from the spacing estimate.
    """
    nu = np.asarray(nu, dtype=float)
    eps = np.empty_like(nu)
    lo = nu <= NU_CLIP
    hi = nu >= 1.0 - NU_CLIP
    mid = ~(lo | hi)
    eps[lo] = np.inf
    eps[hi] = -np.inf
    eps[mid] = np.log1p(-nu[mid]) - np.log(nu[mid])
    eps = np.sort(eps)

    finite = eps[np.isfinite(eps)]
    if finite.size >= 2:
        w = min(DELTA_WINDOW, finite.size)
        window = np.sort(finite[np.argsort(np.abs(finite))[:w]])
        delta = float(np.mean(np.diff(window)))
    else:
        delta = math.nan
    return EntanglementSpectrum(eps=eps, delta_L=delta)


def halfchain_entropy_prediction(h: float, L: int, c: float, cprime: float) -> float:
    """CFT half-chain entropy with the deformed length:
    (c/6) ln((e^{hL} - 1)/h) + c'; reduces to (c/6) ln L + c' at h = 0."""
    return c / 6.0 * math.log(deformed_length(h, L)) + cprime


def thermal_cft_entropy(beta: float, L: float, c: float) -> float:
    """Thermal CFT entropy (c/3) ln((beta/pi) sinh(pi L / beta)).

    Evaluated in log space so large L/beta does not overflow; the large
    L/beta limit is the extensive form pi c L / (3 beta).
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    x = math.pi * L / beta
    # ln sinh x = x - ln 2 + ln(1 - e^{-2x})
    log_sinh = x - math.log(2.0) + math.log1p(-math.exp(-2 * x))
    return c / 3.0 * (math.log(beta / math.pi) + log_sinh)


def boundary_blocks(n_sites: int):
    """All contiguous blocks anchored at the left edge, l = 1 .. n-1."""
    return [list(range(l)) for l in range(1, n_sites)]


def brute_force_block_entropy(amps: AmplitudeTable, block, orders) -> list:
    """Renyi entropies from the Schmidt values of the full many-body state,
    one float per order.

    Independent of the correlation-matrix route: the amplitude matrix of
    a boundary block is decomposed by SVD and the entropies are those of
    the squared singular values.
    """
    orders = _checked_orders(orders)
    p = np.linalg.svd(amps.bipartition(block), compute_uv=False) ** 2
    p = p[p > 1e-30]
    p = p / p.sum()
    out = []
    for n in orders:
        if n == 1:
            s = float(-np.sum(p * np.log(p)))
        else:
            s = float(np.log(np.sum(p**n)) / (1 - n))
        out.append(s)
    return out

"""Block entanglement of free-fermion ground states and its brute-force oracle.

For a Slater ground state the reduced density matrix of a block is fixed
by the block correlation matrix C_ij = <c+_i c_j>.  Its eigenvalues
nu_p in [0, 1] give every Renyi entropy and the single-body entanglement
energies eps_p = ln((1 - nu_p)/nu_p), so ``renyi_entropies``,
``vn_entropy`` and ``entanglement_spectrum`` take a block's nu and
nothing else.  Entropies are plain floats in nats, one per Renyi order
asked for; the block and the orders are the caller's own inputs and are
not echoed back.  Levels within NU_CLIP of 0 or 1 carry no entropy and no
finite eps: both functions drop them, so the eps of a block are a plain
ascending array of its real levels.

Chains and the 2D lattice take the polar route: at half filling
C = (1 - sign H)/2, and for a bipartite H with sublattice block
M = U S V^T the diagonal blocks of sign H are zero and its off-diagonal
block is the polar factor U V^T.  A block's nu are therefore
(1 +- sigma)/2, sigma the singular values of its (row sites x column
sites) sub-block X of U V^T, plus |n_rows - n_cols| levels at exactly
1/2; ``polar_block`` returns them for any block of one solve
(``spectra.chain_svd`` or ``spectra.lattice_svd``) within the sites it
holds (``SublatticeSVD.sites``), so a scan over blocks solves once, and a
solve for one block can stop at its last site.  No orbitals or
correlation matrix are formed, and X is formed on SciPy's BLAS, the
library the solve runs on (the one-BLAS rule of ``spectra``).
The 2D lattice's left half holds every y, so its nu are those of its
y-momentum sectors' left halves (``lattice_half_nu``).  For the lattices
graded at most ``spectra.SECTOR_MAX_RATIO`` they come from each sector's
L x L left block of sign(H_k), read off its two L-site mirror-parity
halves (``spectra._sector_half``), whose zero levels take sign 0 and so
sit at density 1/2; the others take polar_block on the dense (2L^2)^2
block, which has no zero level.
The half chain of a mirror-symmetric chain is a two-sector problem
(``halfchain_nu``): its nu are (1 +- sigma)/2 again, with sigma taken from
the even-parity sector alone (``spectra.even_sector``) in place of the
2L-site SVD.  Of that sector sigma needs only the levels of one sign side
and the last components of their eigenvectors, which ``even_sector``
takes from a rank-one update of the left half's bipartite chain: one
bidiagonal SVD with a single vector row and one secular-equation root per
level, no eigenvector.  A reflection identity gives the side's block of
Q^T Gamma Q from them in closed form, a Cauchy-like matrix of low
numerical rank, and sigma comes from the eigenvalues (``dsyevd``) of the
rank x rank Gram of its pivoted Cholesky factor rather than from an SVD.
The fold holds nothing of size L x L: the roots are read out a block at a
time, and the factor forms each column of the Cauchy matrix only when it
pivots on it, so its memory is O(L) plus the k x rank factor.  A
coupling's sign is a gauge that leaves every nu of the half chain as it
is, so the fold reads the couplings' magnitudes only.  Chains whose
magnitudes are not mirror symmetric, that have fewer than three sites a
side, or that are too strongly graded for that solve take the polar
route.
The orbital route (``correlation_matrix`` on occupied orbitals, then
``CorrelationMatrix.eigenvalues``) serves only the chain's
entanglement-spectrum collapse, whose orbitals hold the left half's sites
alone (``chain_svd``'s ``sites``): their rows are the full SVD's up to
each column's sign, which cancels in C = R R^T.  The tests keep the dense
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

from ._lapack import _eigvalsh_evd, _fblas, _svdvals
from .qubism import AmplitudeTable
from .lattice import CouplingProfile, Lattice2D
from .spectra import (
    SECTOR_MAX_RATIO,
    NumericsError,
    SublatticeSVD,
    ZeroModeError,
    _EPS,
    _dgemm,
    _folds,
    _resolvable_links,
    _sector_half,
    chain_svd,
    even_sector,
    lattice_svd,
)

NU_CLIP = 1e-14


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
        return _checked_nu(_eigvalsh_evd(self.entries))


def _checked_nu(nu: np.ndarray) -> np.ndarray:
    """nu clipped to [0, 1]; NumericsError if it strays more than 1e-10."""
    if nu.min() < -1e-10 or nu.max() > 1 + 1e-10:
        raise NumericsError(
            f"correlation eigenvalues outside [0,1]: [{nu.min()}, {nu.max()}]"
        )
    return np.clip(nu, 0.0, 1.0)


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
    c = _fblas.dsyrk(1.0, rows.T, trans=1, lower=1)
    return CorrelationMatrix(entries=c + np.tril(c, -1).T)


def polar_block(svd: SublatticeSVD, block) -> np.ndarray:
    """The nu of a half-filled block, from the sublattice SVD.

    X = U[rows] V^T[:, cols] with rows (cols) the block's even (odd)
    sites, site i being row or column i // 2 of M (``SublatticeSVD``);
    ValueError for a site at or past ``svd.sites``, whose row the SVD does
    not hold.
    X is formed on SciPy's BLAS like the solve itself.  sigma are the
    singular values of X, taken directly rather than from X X^T, whose
    squaring would lose the small sigma that set nu near 1/2.  nu are
    (1 - sigma)/2, the |n_rows - n_cols| levels at exactly 1/2 and
    (1 + sigma)/2, ascending, clipped to [0, 1]; NumericsError if they
    stray further.  ZeroModeError when a singular value is zero: the
    half-filled Slater state is then not unique.
    """
    n_zero = 2 * int(np.count_nonzero(svd.s == 0))
    if n_zero:
        raise ZeroModeError(f"{n_zero} single-particle zero modes; half filling is ambiguous")
    block = _distinct_sites(block, svd.sites)
    sites = np.asarray(block)
    on_rows = sites % 2 == 0
    rows = sites[on_rows] // 2
    cols = sites[~on_rows] // 2
    u = svd.u[_as_slice(rows)]
    vt = svd.vt[:, _as_slice(cols)]
    return _nu_from_sigma(_svdvals(_dgemm(u, vt)), abs(rows.size - cols.size))


def _nu_from_sigma(sigma: np.ndarray, n_half: int) -> np.ndarray:
    """nu = (1 - sigma)/2, n_half levels at exactly 1/2 and (1 + sigma)/2,
    ascending for sigma descending, through ``_checked_nu``."""
    return _checked_nu(np.concatenate([
        (1.0 - sigma) / 2.0,
        np.full(n_half, 0.5),
        (1.0 + sigma[::-1]) / 2.0,
    ]))


def halfchain_nu(profile: CouplingProfile) -> np.ndarray:
    """The nu of a chain's left half, sites 0 .. L-1, ascending.

    A coupling's sign is a gauge: D = diag(s_i), s_0 = 1 and
    s_(i+1) = s_i sign(c_i), maps the chain with couplings c to the chain
    with |c|, and the left-half correlation matrix to D_A C_A D_A, which has
    the same nu.  So the fold reads |c|.  When |c| folds (``spectra._folds``:
    L >= 3, bitwise mirror symmetric, nonzero and spanning at most
    ``spectra.FOLD_MAX_RATIO``), it takes the levels of one sign side of
    the even-parity sector H+ of |c| and their eigenvectors' last
    components (``spectra.even_sector``, a rank-one secular solve that
    forms no eigenvector).  The left-half
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
    (delta = -|c[L-1]|/2) gives Gamma H+ + H+ Gamma = 2 delta gamma e e^T
    (gamma = (-1)^(L-1)), so A_ij (w_i + w_j) = 2 delta gamma f_i f_j, f
    the side's components on site L-1.  All w of one side share a sign, so
    A = +-|c[L-1]| K with
    K_ij = f_i f_j / (|w_i| + |w_j|), a positive semidefinite Cauchy-like
    matrix whose spectrum decays exponentially (Beckermann & Townsend,
    SIAM J. Matrix Anal. Appl. 38 (2017) 1227): its numerical rank is a
    few dozen against k in the hundreds.  A pivoted Cholesky
    K = F F^T stops at that rank (``_cauchy_factor``, dpstrf's rule with K
    never formed: a column of K is built only when its pivot is chosen),
    and the a are |c[L-1]| times the eigenvalues of the rank x rank Gram
    F^T F: one ``dsyrk`` and one values-only ``dsyevd`` of that size.  The
    directions past that rank carry no entropy (``_cauchy_factor``) and are
    set to a = 0.  f is needed only up to sign:
    flipping f_i is the similarity D K D with D = diag(+-1), which keeps
    the a.

    Every other chain takes ``polar_block(chain_svd(profile, sites=L),
    range(L))``: the left half's rows alone, bitwise the full SVD's.
    Where both routes run they agree to rounding, except on chains so
    localized that their smallest level is near rounding of the largest:
    there ``chain_svd``'s divide and conquer resolves the small singular
    triplets only relative to the largest, and the polar route is off
    (ROADMAP item 3).  A sector sign count that disagrees with its
    structure raises NumericsError (``even_sector``).
    """
    L, c = profile.L, np.abs(profile.couplings)
    if not _folds(c):
        return polar_block(chain_svd(profile, sites=L), range(L))
    r, w, f = even_sector(c)
    factor = _cauchy_factor(f, np.abs(w))
    rank = factor.shape[1]
    a = np.zeros(w.size)
    if rank:  # 0 only when every f is 0; dsyrk rejects an empty operand
        # F^T F, lower triangle, which dsyevd reads
        gram = _fblas.dsyrk(1.0, factor, trans=1, lower=1)
        a[:rank] = c[L - 1] * _eigvalsh_evd(gram)
    sigma = np.sort(np.sqrt(np.maximum((1.0 - a) * (1.0 + a), 0.0)))[::-1]
    return _nu_from_sigma(sigma, abs(2 * r - L))


def lattice_half_nu(lat: Lattice2D) -> np.ndarray:
    """The nu of the 2D lattice's left half (x < 0), ascending, its zero
    modes filled at density 1/2.

    The links are read once (``spectra._resolvable_links``), which refuses
    a lattice graded past ten decades before any solve.  The left half
    holds every y, so its correlation matrix is block diagonal in the
    y-momentum sectors, and its nu are those of the sector chains' left
    halves.  When the links span at most ``spectra.SECTOR_MAX_RATIO``,
    each pair k, 2L + 1 - k (k = 1 .. L) gives (1 +- sigma)/2, sigma the
    singular values of sector k's L x L left block of sign(H_k)
    (``spectra._sector_half``), read off H_k's two mirror-parity halves:
    2L dstev calls of size L, one sector at a time, in place of one dgesdd
    of size 2L^2.  Every other lattice, graded past SECTOR_MAX_RATIO but
    within ten decades, takes ``polar_block`` on the dense
    ``spectra.lattice_svd``.
    """
    vertical, horizontal = _resolvable_links(lat)
    links = np.concatenate([vertical, horizontal])
    if float(links.max()) > SECTOR_MAX_RATIO * float(links.min()):
        return polar_block(lattice_svd(lat), lat.left_half())
    return np.sort(np.concatenate([
        _nu_from_sigma(_svdvals(_sector_half(vertical, horizontal, k)), 0)
        for k in range(1, lat.L + 1)
    ]))


def _cauchy_factor(f: np.ndarray, aw: np.ndarray) -> np.ndarray:
    """The k x rank factor F of the pivoted Cholesky P^T K P = F F^T of
    K_ij = f_i f_j / (aw_i + aw_j), F's rows in pivot order, as LAPACK's
    ``dpstrf`` computes it with its default tolerance; K is never formed.

    dpstrf's unblocked rule (dpstf2), column by column: pivot j is the
    first largest remaining diagonal K_ii - sum_l F_il^2 (the sums of
    squares kept per row), and the factorization stops at rank j once that
    is at most k eps max diag K (eps = 2^-53) or NaN; for j = 0 that is
    dpstrf's own first test, max diag K <= 0, since k eps < 1.  The
    pivot's row and column are swapped to position j, and its column of K
    is formed only then, as f f_p / (aw + aw_p), less F's earlier columns
    times the pivot's row (``dgemv``), over the pivot.  F's entries above
    the diagonal, in the rows pivoted before, are exact zeros.  Memory is
    O(k rank): F starts with 16 columns and doubles when full.

    In the fold that stop drops directions with
    a <= |c[L-1]| k^2 eps max diag K <= k^2 eps (|A_ii| <= 1), 7e-11 at
    k = 800, whose nu = (1 - sigma)/2 <= a^2/2 is 3e-21, far below
    NU_CLIP: a = 0 there.
    """
    k = f.size
    f, aw = f.copy(), aw.copy()
    diag = f * f / (aw + aw)
    stop = k * _EPS * diag.max()
    squares = np.zeros(k)
    factor = np.zeros((k, min(k, 16)), order="F")
    for j in range(k):
        remaining = diag[j:] - squares[j:]
        p = j + int(np.argmax(remaining))
        pivot = remaining[p - j]
        if not pivot > stop:
            return factor[:, :j]
        if j == factor.shape[1]:
            grown = np.zeros((k, min(k, 2 * j)), order="F")
            grown[:, :j] = factor
            factor = grown
        for v in (diag, squares, f, aw):
            v[[j, p]] = v[[p, j]]
        factor[[j, p], :j] = factor[[p, j], :j]
        pivot = math.sqrt(pivot)
        factor[j, j] = pivot
        column = f * f[j] / (aw + aw[j])
        if j:
            column = _fblas.dgemv(-1.0, factor[:, :j], factor[j, :j], beta=1.0,
                                  y=column, overwrite_y=1)
        factor[j + 1:, j] = column[j + 1:] * (1.0 / pivot)
        squares[j + 1:] += factor[j + 1:, j] ** 2
    return factor


def _as_slice(index: np.ndarray):
    """A run of consecutive ascending indices as a slice, which reads a view
    instead of copying; any other index array as it is."""
    if index.size and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _checked_orders(orders) -> list:
    """The Renyi orders as a list of floats; ValueError unless every one
    is finite and >= 1 (NaN and inf fail)."""
    orders = [float(n) for n in orders]
    bad = [n for n in orders if not 1 <= n < math.inf]
    if bad:
        raise ValueError(f"Renyi order must be >= 1 and finite, got {bad[0]}")
    return orders


def _unclipped(nu: np.ndarray) -> np.ndarray:
    """The levels of nu not within NU_CLIP of 0 or 1."""
    return nu[(nu > NU_CLIP) & (nu < 1.0 - NU_CLIP)]


def _renyi_from_nu(nu: np.ndarray, order: float) -> float:
    nu = _unclipped(nu)
    if order == 1:
        return float(-np.sum(nu * np.log(nu) + (1 - nu) * np.log1p(-nu)))
    # b = min(nu, 1 - nu) is exact (Sterbenz above 1/2) and a = 1 - b, so
    # a^n + b^n = a^(n-1) (1 + b expm1((n-1) ln(b/a))): no cancellation
    # near n = 1, no underflow at large n.  Past n ~ 5e306 the product
    # (n-1) ln(b/a) <= 0 overflows to -inf, where expm1 gives its limit -1.
    b = np.minimum(nu, 1.0 - nu)
    log_a = np.log1p(-b)
    m = order - 1.0
    with np.errstate(over="ignore"):
        x = np.expm1(m * (np.log(b) - log_a))
    return float(-np.sum(log_a + np.log1p(b * x) / m))


def renyi_entropies(nu, orders) -> list:
    """Renyi entropies S^(n) of a block from its nu, one float per order
    in nats; n = 1 is the von Neumann limit.

    S^(n) = (1/(1-n)) sum_p ln(nu_p^n + (1-nu_p)^n), evaluated so that it
    keeps its digits for n near 1 and stays finite at large n.  Levels
    clipped at 0 or 1 (within NU_CLIP) carry no entropy and are dropped.
    """
    orders = _checked_orders(orders)
    nu = np.asarray(nu, dtype=float)
    return [_renyi_from_nu(nu, n) for n in orders]


def vn_entropy(nu) -> float:
    return renyi_entropies(nu, [1])[0]


def entanglement_spectrum(nu) -> np.ndarray:
    """Single-body entanglement energies eps = ln((1 - nu)/nu) of a block's
    nu, ascending; the levels clipped at 0 or 1 (within NU_CLIP) have none
    and are dropped."""
    nu = _unclipped(np.asarray(nu, dtype=float))
    return np.sort(np.log1p(-nu) - np.log(nu))


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

"""Exact single-particle spectra and Fermi-velocity extraction.

Every hopping matrix here is bipartite with zero diagonal, so it has the
block form ``[[0, M], [M^T, 0]]`` in the sublattice basis.  Its eigenpairs
follow from the SVD ``M = U S V^T``: energies come in exact ``+-s`` pairs
with eigenvectors ``(u, +-v)/sqrt(2)``.

For the graded rainbow chains this route is essential, not cosmetic:
couplings span hundreds of orders of magnitude and a plain symmetric
eigensolver cannot resolve the near-zero pair splittings (it returns an
arbitrary mixture of the outer bond orbitals, which wrecks occupations
and entropies).  ``M`` of a zero-diagonal tridiagonal chain is
bidiagonal, and bidiagonal SVD determines every singular value to high
*relative* accuracy, so the ground-state projector stays correct even
when the smallest couplings are ~1e-300.  A chain's two bands go straight
to LAPACK's bidiagonal SVD routines (``dbdsdc``, or ``dbdsqr`` once the
couplings span more than ten decades), so there is no reduction step at
all.  The 2D lattice's solves, a dense block by LAPACK's ``dgesdd``
(divide and conquer, called as ``scipy.linalg.svd`` calls it) and a
sector's tridiagonal chain by ``dstevd``, are accurate only relative to
the largest coupling: a lattice whose couplings span more than ten
decades raises NumericsError instead of printing entropies it cannot
resolve, and the levels they cannot tell from zero (within ZERO_MODE_TOL
of the spectral radius) come back as exact zeros.  So on both geometries
a zero mode is a level with s == 0.

``chain_svd`` takes those bands straight from a ``CouplingProfile`` and
certifies the SVD with a residual taken on the bands.  It can stop at the
chain's leading sites (``sites``): s stays complete, while U and V^T hold
only those sites' rows, bitwise the full SVD's, each of them certified.
A graded chain's dbdsqr then rotates only those rows, half the work for a
half chain.  The 2D lattice's couplings depend on x alone, so a sine
transform in y splits it exactly into 2L chains, its y-momentum sectors,
which pair up into two-leg ladders whose sublattice block is one sector's
chain H_k, symmetric tridiagonal; ``sector_svd`` solves one pair from
H_k's eigendecomposition by LAPACK's tridiagonal divide and conquer
(``dstevd``), and the lattices whose links span at most SECTOR_MAX_RATIO
are solved that way, L chains of 2L sites one at a time.
``lattice_svd`` writes the links of the more graded lattices into their
dense (2L^2)^2 block M.
None of them forms the hopping matrix.  Every SVD numbers its sites by
one rule: site i is row ``i // 2`` of M when i is even and column
``i // 2`` when i is odd, so an SVD keeps no site map.  Entanglement
needs nothing more than their ``SublatticeSVD`` (see
``entanglement.polar_block``), and neither do the spectral outputs: the
levels are ``SublatticeSVD.energies``, the ``+-s`` pairs.  The outputs
that are orbitals assemble them from the same SVD, through one assembly
of the levels they ask for: ``occupied_from_svd`` the occupied columns
at half filling, ``orbitals_from_svd`` all levels and ``level_orbital``
one level.  The Fermi velocity (``fermi_velocity``,
``fermi_velocity_fit``) takes the SVD alone: a chain's half-length L is
``s.size``.

A mirror-symmetric chain has a smaller problem for its half chain, and
``even_sector`` solves it without forming an eigenvector.  It takes
positive couplings only: a coupling's sign is a gauge, which
``entanglement.halfchain_nu`` removes before it folds.  The L x L
even-parity sector is the left half's bipartite chain T_A plus one
diagonal entry on site L-1: a rank-one update of T_A.  One bidiagonal SVD
with a single vector row (``dbdsqr``) gives T_A's levels and their
components on site L-1 (``_edge_levels``); LAPACK's secular-equation
solver ``dlaed4`` gives the update's levels of one sign side as distances
to T_A's levels (``_secular_roots``), and the side's components on site
L-1 follow from those distances in closed form.  The distances are read
out a block of roots at a time, so the solve holds O(L) memory, never a
(roots x poles) array.  The solve checks its sign
count against the one structure fixes, the two moments of T_A's
components, and each root's secular residual.  It serves only chains of
at least three sites a side and of mild grading (``FOLD_MAX_RATIO``).

One BLAS per sweep point: numpy and SciPy each bundle their own OpenBLAS,
each with its own thread pool, and every solve here runs on SciPy's.  So
the dense products and factorizations of a point go through SciPy's
compiled BLAS and LAPACK too (``_dgemm``, and the routines ``_lapack``
binds without importing ``scipy.linalg``); numpy keeps the elementwise
work.  A numpy product right after a solve wakes the second pool, and the
two pools then compete for the same cores.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import (_CHAR, _DOUBLE, _INT, NumericsError, _check, _eigh_tridiagonal, _fblas,
                      _lapack, _svd)
from .lattice import CouplingProfile, Lattice2D, link_amplitudes

RESIDUAL_TOL = 1e-10
_EPS = 2.0**-53  # LAPACK's unit roundoff, dlamch("Epsilon")
# A lattice's level within this of its spectral radius (at least 1) is
# rounding, and ``_dense_svd`` and ``sector_svd`` set it to 0.0: small
# enough that no real level of a lattice short of the grading refusal is
# filled at 1/2 (``entanglement.polar_block``).
ZERO_MODE_TOL = 1e-14


class ZeroModeError(NumericsError):
    """Half filling is ambiguous because single-particle zero modes exist."""


def velocity_scaling(z: float) -> float:
    """The deformed Fermi velocity a(z) = z / (e^z - 1); a(0) = 1.
    ValueError for z < 0 and for a non-finite z."""
    if not 0.0 <= z < math.inf:
        raise ValueError(f"z must be finite and non-negative, got {z!r}")
    if z == 0:
        return 1.0
    return z / np.expm1(z)


# dbdsdc(uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info)
_dbdsdc = _lapack(
    "dbdsdc", _CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _INT, _DOUBLE,
    _INT, _DOUBLE, _INT, _DOUBLE, _INT, _INT,
)
# dbdsqr(uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work, info)
_dbdsqr = _lapack(
    "dbdsqr", _CHAR, _INT, _INT, _INT, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _INT,
    _DOUBLE, _INT, _DOUBLE, _INT, _DOUBLE, _INT,
)
# dlaed4(n, i, d, z, delta, rho, dlam, info)
_dlaed4 = _lapack("dlaed4", _INT, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE, _INT)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_DOUBLE)


def _bidiagonal_qr(s: np.ndarray, e: np.ndarray, vt, u) -> None:
    """dbdsqr on the upper-bidiagonal B = Q S P^T with diagonal s and
    superdiagonal e (length s.size, the last entry unused), in place: s
    becomes S, descending, the column-major vt (n x ncvt) becomes P^T vt and
    u (nru x n) becomes u Q; None stands for no columns or rows."""
    n = s.size
    ncvt = 0 if vt is None else vt.size // n
    nru = 0 if u is None else u.size // n
    info = ctypes.c_int(0)
    _dbdsqr(
        b"U", ctypes.c_int(n), ctypes.c_int(ncvt), ctypes.c_int(nru), ctypes.c_int(0),
        _ptr(s), _ptr(e), None if vt is None else _ptr(vt), ctypes.c_int(n),
        None if u is None else _ptr(u), ctypes.c_int(max(nru, 1)), None,
        ctypes.c_int(1), _ptr(np.empty(4 * n)), info,
    )
    _check("dbdsqr", info.value)


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray, graded: bool, sites=None):
    """SVD ``B = U S V^T`` of the upper-bidiagonal B with diagonal d and
    superdiagonal e, returned as (V, s descending, U^T), with only the rows
    of V and columns of U^T that a chain's leading ``sites`` sites read:
    V's first ceil(sites/2) rows and U^T's first floor(sites/2) columns
    (None: all of them).

    Graded B goes to dbdsqr (Demmel-Kahan zero-shift QR, high relative
    accuracy); otherwise dbdsdc (Gu-Eisenstat divide and conquer).  These
    are the solvers LAPACK's dense SVD drivers call after reducing a dense
    matrix to bidiagonal form, a reduction that is the identity on B itself.
    dbdsqr starts from the leading columns (V^T, NCVT) and rows (U, NRU) of
    the identity and rotates only those.  Its rotations (dlasr, drot) update
    each row of U and each column of V^T on its own and its sweeps read d
    and e alone, so s and the rows it returns are bitwise the full call's.
    dbdsdc solves in full and is sliced.
    """
    n = d.size
    sites = 2 * n if sites is None else sites
    rows, cols = (sites + 1) // 2, sites // 2
    s = np.array(d, dtype=float)  # overwritten with the singular values
    e_work = np.append(e, 0.0)  # length n, so never an empty buffer
    # LAPACK fills column-major arrays; read back row-major, the buffer
    # holding U (cols x n) is U^T's columns and the one holding V^T
    # (n x rows) is V's rows.
    if graded:
        v_rows, ut_cols = np.eye(rows, n), np.eye(n, cols)
        _bidiagonal_qr(s, e_work, v_rows, ut_cols)
        return v_rows, s, ut_cols
    u_buf = np.zeros((n, n))
    vt_buf = np.zeros((n, n))
    size = ctypes.c_int(n)
    info = ctypes.c_int(0)
    work = np.empty(3 * n * n + 4 * n)
    iwork = np.empty(8 * n, dtype=np.intc)
    _dbdsdc(
        b"U", b"I", size, _ptr(s), _ptr(e_work), _ptr(u_buf), size,
        _ptr(vt_buf), size, None, None, _ptr(work),
        iwork.ctypes.data_as(_INT), info,
    )
    _check("dbdsdc", info.value)
    return vt_buf[:rows], s, u_buf[:, :cols]


def _blas_operand(m: np.ndarray):
    """m^T as a dgemm operand and its transpose flag: (m^T, 0), or (m, 1)
    for an F-ordered m.  Neither is a copy; a strided m is copied C-ordered,
    as numpy's product would copy it."""
    if m.flags.f_contiguous and not m.flags.c_contiguous:
        return m, 1
    return m.T, 0


def _dgemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on SciPy's BLAS, as (b^T a^T)^T: the call numpy's row-major
    product makes, so a matrix-matrix product keeps numpy's bits wherever
    the two OpenBLAS builds share their kernels."""
    first, trans_first = _blas_operand(b)
    second, trans_second = _blas_operand(a)
    return _fblas.dgemm(1.0, first, second, trans_a=trans_first, trans_b=trans_second).T


def _graded(*bands: np.ndarray) -> bool:
    """True when the nonzero couplings span more than ten decades, where
    divide and conquer no longer guarantees relative accuracy: a chain then
    takes dbdsqr, and a dense block is refused (``_dense_svd``)."""
    nz = np.abs(np.concatenate([b[b != 0.0] for b in bands]))
    return bool(nz.size) and float(nz.max() / nz.min()) > 1e10


def _certify(residual: float, radius: float) -> float:
    """NumericsError unless the eigen-residual is within RESIDUAL_TOL of the
    spectral radius; a NaN residual or radius fails."""
    if not residual <= RESIDUAL_TOL * max(radius, 1e-300):
        raise NumericsError(
            f"eigen-residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} x "
            f"spectral radius {radius:.3e}"
        )
    return residual


@dataclass(frozen=True)
class SublatticeSVD:
    """Certified SVD ``M = U S V^T`` of a bipartite hopping matrix's
    sublattice block.

    Site i is row ``i // 2`` of M when i is even and column ``i // 2``
    when i is odd, on every geometry solved here: the chain, the sector
    ladder (``sector_svd``) and the dense lattice (``lattice_svd``).
    ``s`` is descending and complete.  ``u`` and ``vt`` may hold the leading
    sites only (``chain_svd``'s ``sites``): ``sites`` counts u's rows (the
    even sites) and vt's columns (the odd ones).

    The hopping matrix's levels are ``energies`` (ascending), with orbitals
    ``(u_p, -+v_p)/sqrt(2)`` (``orbitals_from_svd``).  ``residual`` is the
    largest ``|H psi - E psi|`` over those orbitals, on the sites held.
    The zero modes are the levels with ``s == 0``: a chain's bidiagonal SVD
    is relatively accurate, so only its exact zeros are, and the levels of
    a dense block or a sector pair within rounding of zero are set to 0.0
    (``_dense_svd``, ``sector_svd``).
    """

    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    vt: np.ndarray = field(repr=False)
    residual: float

    @property
    def sites(self) -> int:
        """The leading sites whose rows u and vt hold."""
        return self.u.shape[0] + self.vt.shape[1]

    @property
    def energies(self) -> np.ndarray:
        """All levels ``-s`` then ``+s``, ascending."""
        return np.concatenate([-self.s, self.s[::-1]])


def _chain_solve(d: np.ndarray, e: np.ndarray, sites=None) -> SublatticeSVD:
    """Certified SVD ``M = U S V^T`` of a chain's lower-bidiagonal block with
    diagonal d and subdiagonal e, with the rows of U and columns of V^T of
    the chain's leading ``sites`` sites (None: every site).  The SVD is
    relatively accurate, so only exact zeros are zero modes.

    The residual ``max(|M v - s u|, |M^T u - s v|)/sqrt(2)`` is that of the
    orbitals ``(u, +-v)/sqrt(2)`` on the returned sites; it is taken on the
    two bands, so it costs O(n sites) and never forms M.  A site's entry
    reads its two neighbours, so the solve reaches one site past the last
    one returned.
    """
    n = d.size
    sites = 2 * n if sites is None else sites
    u, s, vt = _bidiagonal_svd(d, e, _graded(d, e), min(sites + 1, 2 * n))
    rows, cols = (sites + 1) // 2, sites // 2
    # row k of V^T M^T is (M v_k)^T: d * v_k plus e * v_k shifted by one site
    mv = vt[:, :rows] * d[:rows]
    mv[:, 1:] += vt[:, : rows - 1] * e[: rows - 1]
    mv -= u[:rows].T * s[:, None]
    # M^T u_k: d * u_k plus e * u_k shifted back by one site
    mtu = u[:cols] * d[:cols, None]
    shifted = min(cols, n - 1)
    mtu[:shifted] += u[1 : shifted + 1] * e[:shifted, None]
    mtu -= vt[:, :cols].T * s
    residual = max(float(np.max(np.abs(mv))), float(np.max(np.abs(mtu), initial=0.0)))
    residual = _certify(residual / np.sqrt(2.0), float(s[0]))
    return SublatticeSVD(u[:rows], s, vt[:, :cols], residual)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, taken in place in a: no third array of a's size."""
    a -= b
    return float(np.max(np.abs(a, out=a)))


def _dense_svd(block: np.ndarray) -> SublatticeSVD:
    """Certified SVD of the dense lattice's sublattice block
    (``lattice_svd``) by LAPACK's dgesdd (divide and conquer;
    ``_lapack._svd``).  The levels within ZERO_MODE_TOL of the spectral
    radius (at least 1) are rounding: they are certified as computed, then
    set to exactly 0.0, the zero modes.

    A dense SVD is accurate only to rounding times the largest coupling,
    whatever its driver, and so is a sector pair's tridiagonal solve
    (``sector_svd``); relative accuracy belongs to the bidiagonal solve of
    a chain.  So the lattice's solves refuse, before any solve, a lattice
    whose links span more than ten decades (``_lattice_route``), where the
    small levels that set its entropies are lost.
    """
    # dgesdd works in place on the F-ordered block.T; the block is rebuilt
    # from its nonzeros afterwards, bitwise, for the residual and the caller
    nonzero = np.nonzero(block)
    couplings = block[nonzero]
    u2, s, v2t = _svd(block.T)
    block[...] = 0.0
    block[nonzero] = couplings
    u, vt = v2t.T, u2.T
    # |H psi - E psi| of psi = (u, +-v)/sqrt(2), from the two half blocks
    residual = max(_max_abs_diff(_dgemm(block, vt.T), u * s),
                   _max_abs_diff(_dgemm(block.T, u), vt.T * s))
    residual = _certify(residual / np.sqrt(2.0), float(s[0]))
    s[s <= ZERO_MODE_TOL * max(float(s[0]), 1.0)] = 0.0
    return SublatticeSVD(u, s, vt, residual)


def chain_svd(profile: CouplingProfile, sites=None) -> SublatticeSVD:
    """Certified sublattice SVD of a chain, straight from its couplings.

    ``M^T`` is upper bidiagonal with diagonal ``-c[0::2]/2`` and
    superdiagonal ``-c[1::2]/2`` (c the profile's couplings), so neither
    the hopping matrix nor the orbitals are ever built.  Row i of M is
    even site 2i, column j odd site 2j + 1.  s is always complete; of U
    and V^T the SVD holds the rows of the leading ``sites`` sites
    (``SublatticeSVD.sites``; None: all 2L), bitwise those of the full SVD,
    and certifies each.  On a graded chain that halves dbdsqr's rotations
    for the left half (``sites=L``).

    Raises ValueError unless 1 <= sites <= 2L, and NumericsError when the
    residual exceeds RESIDUAL_TOL relative to the spectral radius.
    """
    c = profile.couplings
    if sites is not None and not 1 <= sites <= c.size + 1:
        raise ValueError(f"sites must lie in [1, {c.size + 1}], got {sites!r}")
    return _chain_solve(-c[0::2] / 2.0, -c[1::2] / 2.0, sites)


# Largest max/min coupling ratio at which a mirror-symmetric chain's left
# half is solved through its even-parity sector (``even_sector``).  Its
# secular solve deflates rounding-level components only, not close poles,
# so it is kept to mild grading.  Against dbdsqr, up to this ratio and
# for L <= 1601, its half-chain S_1 stayed within 7.6e-13 and S_2..S_4
# within 5.8e-14 (dbdsdc's: 6.2e-13 and 3.7e-14).  No S_n passed 1e-12 up
# to 1e5; at 1e6 they reached 1.7e-11 (L = 1601), as with the dstedc solve
# it replaced.
FOLD_MAX_RATIO = 1e4


def _folds(c: np.ndarray) -> bool:
    """True when the couplings c fold (``even_sector``): at least five of
    them (L >= 3), positive, bitwise mirror symmetric about the central
    link, and spanning at most FOLD_MAX_RATIO."""
    return (c.size >= 5 and bool(np.array_equal(c, c[::-1])) and float(c.min()) > 0.0
            and float(c.max()) <= FOLD_MAX_RATIO * float(c.min()))


def _edge_levels(t: np.ndarray) -> tuple:
    """(lam, z): the levels of the bipartite chain T with bonds t, ascending,
    and their eigenvectors' components on its last site, certified.

    T's sublattice block is upper bidiagonal with diagonal t[0::2] and
    superdiagonal t[1::2] (rows the odd sites, columns the even sites), so
    T's levels are +-s with eigenvectors (q, +-p)/sqrt(2), one pair per
    singular triple (s, q, p).  One ``dbdsqr`` call (zero-shift QR,
    relatively accurate) returns s and one row of the singular vectors,
    seeded at the last site: the last row of Q through NRU = 1 when that
    site is odd (even length), the last row of P through NCVT = 1 when it is
    even (odd length; the block is then padded with a zero row, whose zero
    singular value is T's zero level, living on the even sites).  z is that
    row's entry over sqrt(2) for each +-s pair and the entry itself for the
    zero level.  O(n^2) work; no other vector is formed.  lam is
    antisymmetric and z palindromic.

    NumericsError unless dbdsqr succeeds and z has the two moments that
    structure fixes: sum z^2 = 1 (orthonormal vectors) and
    sum z^2 lam^2 = (T^2)_{last,last} = t[-1]^2, each within RESIDUAL_TOL
    (the second relative to the spectral radius squared).
    """
    odd = (t.size + 1) % 2
    s = np.append(t[0::2], np.zeros(odd))  # overwritten with s, descending
    n = s.size
    row = np.zeros(n)
    row[-1] = 1.0
    _bidiagonal_qr(s, np.append(t[1::2], 0.0), *((row, None) if odd else (None, row)))
    pair = row[: n - odd] / np.sqrt(2.0)
    lam = np.concatenate([-s[: n - odd], s[::-1]])
    z = np.concatenate([pair, row[n - odd:], pair[::-1]])
    z2 = z * z
    norm = float(z2.sum())
    moment = float((z2 * lam * lam).sum())
    radius2 = float(s[0]) ** 2
    if not (abs(norm - 1.0) <= RESIDUAL_TOL
            and abs(moment - t[-1] ** 2) <= RESIDUAL_TOL * radius2):
        raise NumericsError(
            f"edge components: sum z^2 = {norm!r} (want 1) and sum z^2 lam^2 = "
            f"{moment!r} (want {t[-1] ** 2!r})"
        )
    return lam, z


# Roots per block of the secular readout (``_secular_roots``): a block's
# distances to the poles are reduced before the next block is solved.
_ROOT_BLOCK = 32


def _secular_roots(poles: np.ndarray, z: np.ndarray, rho: float, first: int,
                   stop: int) -> tuple:
    """Roots first .. stop-1 (0-based, ascending) of diag(poles) + rho z z^T,
    read out: (mu, residual, f), one entry per root.

    ``dlaed4`` (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172)
    solves the secular equation 1 + rho sum z_j^2/(poles_j - mu) = 0 for
    poles strictly ascending, rho > 0 and |z| = 1 (here it is handed z/|z|
    and rho |z|^2), and returns each root's distances D_j = poles_j - mu to
    high relative accuracy; root i lies between poles i and i+1.  mu is
    taken from the nearer of those two poles, bitwise dlaed4's own, whose
    origin that pole is.  residual is |1/rho + sum z_j^2/D_j| over
    1/rho + sum |z_j^2/D_j|, and f = 1/(rho sqrt(sum z_j^2/D_j^2)) is the
    last component of the root's eigenvector z_j/D_j, normalized.

    The roots are solved in blocks of _ROOT_BLOCK, each block reduced to
    its three readouts before the next is solved, so no (roots x poles)
    array is formed.  A block with a root at exactly zero, which no sector
    of a chain has (``even_sector`` refuses it), is not reduced: its
    residual and f stay NaN, and nothing divides by a zero distance.
    dlaed4 needs more than two poles (for two it returns no distances).
    NumericsError when it fails or has fewer poles.
    """
    if poles.size < 3:
        raise NumericsError(f"secular equation with {poles.size} poles; dlaed4 needs 3")
    z2 = z * z
    norm2 = float(z2.sum())
    unit = z / math.sqrt(norm2)
    mu = np.empty(stop - first)
    residual = np.full(stop - first, np.nan)
    f = np.full(stop - first, np.nan)
    row = np.empty(poles.size)
    # one ctypes argument each, reused across the calls; the root dlaed4
    # returns is read off the distances instead
    n, i, info = ctypes.c_int(poles.size), ctypes.c_int(), ctypes.c_int(0)
    args = (_ptr(poles), _ptr(unit), _ptr(row), ctypes.c_double(rho * norm2),
            ctypes.c_double(), info)
    for start in range(first, stop, _ROOT_BLOCK):
        end = min(start + _ROOT_BLOCK, stop)
        dist = np.empty((end - start, poles.size))
        for k in range(end - start):
            i.value = start + k + 1
            _dlaed4(n, i, *args)
            if info.value:
                _check("dlaed4", info.value)
            dist[k] = row
        rows = np.arange(end - start)
        below = np.arange(start, end)
        above = np.minimum(below + 1, poles.size - 1)
        nearest = np.where(np.abs(dist[rows, above]) < np.abs(dist[rows, below]), above, below)
        block = slice(start - first, end - first)
        mu[block] = poles[nearest] - dist[rows, nearest]
        if (mu[block] == 0.0).any():
            continue
        terms = z2 / dist
        residual[block] = (np.abs(1.0 / rho + terms.sum(axis=1))
                           / (1.0 / rho + np.abs(terms).sum(axis=1)))
        terms /= dist
        f[block] = 1.0 / (rho * np.sqrt(terms.sum(axis=1)))
    return mu, residual, f


def even_sector(c: np.ndarray) -> tuple:
    """What the half-chain readout reads of the even-parity sector of the
    chain with the positive couplings c, certified: (r, w, f), r the
    number of negative levels, w the levels of the smaller sign side
    (ascending) and f the last components, on site L-1, of their
    eigenvectors, up to sign.

    Reflection about the central link maps site i to 2L-1-i.  A state even
    under it is fixed by its L left sites, where H acts as
    H+ = T_A - rho e e^T: T_A the left half's hopping and rho = c[L-1]/2
    the central link folded onto site L-1.  The odd sector is
    H- = T_A + rho e e^T = -Gamma H+ Gamma, Gamma = diag((-1)^i), so H+
    alone carries the whole spectrum.  No eigenvector is formed.  T_A's
    levels lam and their components z on site L-1 come from one bidiagonal
    SVD with one vector row (``_edge_levels``).  lam is antisymmetric and z
    palindromic, so -H+ is lam + rho z z^T in T_A's eigenbasis: a rank-one
    update, whose levels are the roots of its secular equation
    (``_secular_roots``), negated at the end.  A root mu at distances
    D_j = lam_j - mu has the eigenvector z_j/D_j, so
    f^2 = 1/(rho^2 sum z_j^2/D_j^2).  A level j whose rho |z_j| is below
    8 eps times the larger of the spectral radius and rho is deflated, as
    in LAPACK's dlaed2: lam_j is then a level of -H+, with f = |z_j|.
    O(L^2) work in O(L) memory: the roots are read out in blocks
    (``_secular_roots``), so no array is larger than L x _ROOT_BLOCK.

    r is fixed by structure: (L + 1) // 2.  For even L, T_A has L/2 levels
    below zero, the rank-one term changes that count by at most one
    (interlacing), and det H+ = det T_A, since (T_A^-1)_{L-1,L-1} = 0 for a
    bipartite T_A, fixes its parity.  For odd L the term moves T_A's zero
    level, which lives on site L-1, below zero.  So the side is -H+'s
    positive levels for even L and its negative ones for odd L.  Each root
    lies between two poles, so only the roots whose interval reaches the
    side's sign are solved, the one across zero included; they and the
    deflated levels must put exactly L // 2 levels on that side and none at
    zero, so a level that rounding puts on the wrong side, or at exactly
    zero, raises NumericsError instead of misfiling a pair.

    ValueError unless the couplings fold (``_folds``: L >= 3, positive,
    bitwise mirror symmetric, ratio at most FOLD_MAX_RATIO); NumericsError
    on a sign count other than r, on a failed LAPACK call, on z off its
    moments (``_edge_levels``), or when a root's secular residual
    |1/rho + sum z_j^2/D_j| exceeds RESIDUAL_TOL relative to
    1/rho + sum |z_j^2/D_j|.
    """
    if not _folds(c):
        raise ValueError(
            "even_sector needs at least five positive couplings, mirror "
            f"symmetric about the center, that span at most {FOLD_MAX_RATIO:.0e}"
        )
    L = (c.size + 1) // 2
    rho = c[L - 1] / 2.0
    r = (L + 1) // 2
    k = L // 2
    # the side: -H+'s positive levels for even L, its negative ones for odd L
    sign = 1.0 if L % 2 == 0 else -1.0
    lam, z = _edge_levels(-c[: L - 1] / 2.0)
    keep = rho * np.abs(z) > 8.0 * _EPS * max(float(lam[-1]), rho)
    poles, zk = lam[keep], z[keep]
    # root i lies between poles i and i + 1: solve those that can fall on
    # the side, the one across zero included
    if sign < 0.0:
        first, stop = 0, int(np.count_nonzero(poles < 0.0))
    else:
        first, stop = max(int(np.count_nonzero(poles <= 0.0)) - 1, 0), poles.size
    mu, residual, f = _secular_roots(poles, zk, rho, first, stop)
    mu = np.concatenate([mu, lam[~keep]])
    on_side = sign * mu > 0.0
    if np.count_nonzero(on_side) != k or (mu == 0.0).any():
        raise NumericsError(
            f"sector sign count: {np.count_nonzero(on_side)} levels on the side "
            f"and {np.count_nonzero(mu == 0.0)} at zero, where H+ has {k} there "
            "and none at zero"
        )
    if not residual.max(initial=0.0) <= RESIDUAL_TOL:
        raise NumericsError(
            f"secular residual {residual.max():.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    f = np.concatenate([f, np.abs(z[~keep])])
    # H+'s levels are the negated roots, so descending roots give ascending w
    order = np.argsort(mu[on_side])[::-1]
    return r, -mu[on_side][order], f[on_side][order]


def lattice_svd(lat: Lattice2D) -> SublatticeSVD:
    """Certified sublattice SVD of the 2D lattice, from its (2L^2)^2 block
    M written straight from ``link_amplitudes``; no (4L^2)^2 hopping matrix
    is formed.

    Lattice site ix * 2L + iy lies on sublattice (ix + iy) % 2 and is row
    or column ix * L + iy // 2 of M, so M is a 2L x 2L grid of L x L
    blocks.  Column ix's vertical links fill the diagonal of block (ix, ix)
    and the diagonal below it (even ix) or above it (odd ix); the
    horizontal links between columns ix and ix + 1 fill the diagonals of
    blocks (ix, ix + 1) and (ix + 1, ix).  The SVD's site i is lattice
    site i in even columns and its pair partner i ^ 1 in odd ones, so the
    left half (x < 0) is sites 0 .. 2L^2 - 1 in both numberings.

    Raises NumericsError before any solve when the links span more than ten
    decades (``_lattice_route``), and after it when the residual exceeds
    RESIDUAL_TOL relative to the spectral radius.
    """
    _lattice_route(lat)
    L, n = lat.L, 2 * lat.L
    vertical, horizontal = link_amplitudes(L, lat.alpha)
    v, h = -vertical[:, None] / 2.0, -horizontal[:, None] / 2.0
    block = np.zeros((n * L, n * L))
    grid = block.reshape(n, L, n, L)
    ix, q = np.arange(n)[:, None], np.arange(L)  # row or column ix * L + q
    grid[ix, q, ix, q] = v
    grid[ix[0::2], q[1:], ix[0::2], q[:-1]] = v[0::2]
    grid[ix[1::2], q[:-1], ix[1::2], q[1:]] = v[1::2]
    grid[ix[:-1], q, ix[1:], q] = h
    grid[ix[1:], q, ix[:-1], q] = h
    return _dense_svd(block)


# Largest coupling ratio alpha^-(L - 1/2) at which a lattice's left half is
# solved by y-momentum sectors (``sector_svd``) instead of its dense block.
# Both routes are accurate only relative to the largest coupling, so they
# drift apart as the lattice grades.  With the sectors on dgesdd, over 240
# lattices (L = 1 .. 24, alpha = 0.38 .. 1, ratio up to 1e10) the two
# routes' left-half S_1 differed by at most 1.1e-12 up to a ratio of 1e3,
# 7.1e-11 up to 1e6, 1.8e-9 up to 1e8 and 1.5e-7 up to 1e10.  Against a
# 40-digit sector oracle the dstevd sectors read (23, 0.55) 1.1e-13 off
# (dgesdd sectors 2.2e-12, the dense block 7.3e-11), but up to 2.6e-11 off
# at L <= 12 near 1e6, where dstevd solves by implicit QL/QR (ROADMAP
# item 2 has the graded rows).
SECTOR_MAX_RATIO = 1e6


def _lattice_route(lat: Lattice2D) -> bool:
    """True when the lattice's links span at most SECTOR_MAX_RATIO, where
    its left half is solved by sectors (``sector_svd``), False where it
    takes the dense block (``lattice_svd``).  NumericsError when they span
    more than ten decades (``_graded``), where a dense SVD cannot resolve
    the small levels."""
    vertical, horizontal = link_amplitudes(lat.L, lat.alpha)
    if _graded(vertical, horizontal):
        raise NumericsError(
            f"dense block of dim {lat.n_sites} has couplings spanning "
            "more than ten decades; its SVD cannot resolve the small levels"
        )
    amplitudes = np.concatenate((vertical, horizontal))
    return float(amplitudes.max()) <= SECTOR_MAX_RATIO * float(amplitudes.min())


def sector_svd(lat: Lattice2D, k: int) -> SublatticeSVD:
    """Certified sublattice SVD of the lattice's y-momentum sectors k and
    2L + 1 - k (1 <= k <= L), as one two-leg ladder of 4L sites.

    H = T_x (x) I + D_x (x) T_y: T_x the 2L-site chain of horizontal links,
    D_x = diag(alpha^|x|) and T_y the uniform 2L-site chain, whose levels
    are mu_k = -cos(pi k/(2L + 1)) (Peschel, J. Phys. A 36 L205 (2003)).
    The sine transform in y maps H to the 2L chains H_k = T_x + mu_k D_x,
    and sector 2L + 1 - k has -mu_k, so its chain is -Gamma H_k Gamma with
    Gamma = diag((-1)^x).  The pair is the bipartite ladder
    [[0, H_k], [H_k, 0]] up to site-local rotations, which keep every
    block of whole columns x: site 2x is row x of its sublattice block H_k
    and site 2x + 1 column x, so the pair's left half is sites 0 .. 2L-1.

    H_k is symmetric tridiagonal (diagonal mu_k alpha^|x|, off-diagonal the
    horizontal links' -J/2), so no 2L x 2L block is formed: LAPACK's
    tridiagonal divide and conquer (``dstevd``) gives H_k = Q Lambda Q^T,
    and its SVD is exact, s = |lambda| (descending, stable), u = q and
    v = q sign(lambda).  The residual is ``_dense_svd``'s,
    max |H_k q - lambda q| / sqrt(2), taken on the two bands, and so is the
    zero-mode rule: a level within ZERO_MODE_TOL of the spectral radius (at
    least 1) is set to 0.0.  At alpha = 1, H_k = T_x + mu_k I has one exact
    zero level.

    The caller checks the grading on the lattice's links
    (``_lattice_route``), not on H_k, whose diagonal mu_k alpha^|x| can be
    small on a mild lattice.  ValueError unless 1 <= k <= L.
    """
    L = lat.L
    if not 1 <= k <= L:
        raise ValueError(f"sector {k!r} outside [1, {L}]")
    vertical, horizontal = link_amplitudes(L, lat.alpha)
    diagonal = -math.cos(math.pi * k / (2 * L + 1)) * vertical
    off = -horizontal / 2.0
    w, q = _eigh_tridiagonal(diagonal, off)
    # H_k q - lambda q, row x: diagonal[x] q[x] + off[x - 1] q[x - 1] + off[x] q[x + 1]
    hq = q * diagonal[:, None]
    hq[1:] += q[:-1] * off[:, None]
    hq[:-1] += q[1:] * off[:, None]
    hq -= q * w
    order = np.argsort(-np.abs(w), kind="stable")
    s = np.abs(w[order])
    residual = _certify(float(np.max(np.abs(hq))) / np.sqrt(2.0), float(s[0]))
    s[s <= ZERO_MODE_TOL * max(float(s[0]), 1.0)] = 0.0
    u = q[:, order]
    return SublatticeSVD(u, s, (u * np.where(w[order] < 0.0, -1.0, 1.0)).T, residual)


def _fix_phases(orbitals: np.ndarray) -> np.ndarray:
    """Deterministic output: make the first significant component (above
    1e-8 of the column's largest) of every column positive."""
    # |x| > t as x > t or x < -t, which needs no full-size |orbitals| copy
    bound = 1e-8 * np.maximum(orbitals.max(axis=0), -orbitals.min(axis=0))
    first = np.argmax((orbitals > bound) | (orbitals < -bound), axis=0)
    leading = orbitals[first, np.arange(orbitals.shape[1])]
    orbitals *= np.where(leading < 0, -1.0, 1.0)
    return orbitals


def _orbitals(svd: SublatticeSVD, levels: np.ndarray) -> np.ndarray:
    """Sign-fixed orbitals from the sublattice SVD, column j with the level
    ``svd.energies[levels[j]]``.

    Level k < n (n = s.size) is -s_p with p = k, level k >= n its partner
    +s_p with p = 2n-1-k; the orbital of -+s_p is ``(u_p, -+v_p)/sqrt(2)``,
    u_p on the even sites and v_p on the odd ones, over the sites the SVD
    holds (``SublatticeSVD.sites``).
    """
    n = svd.s.size
    below = levels < n
    p = np.where(below, levels, 2 * n - 1 - levels)
    orbitals = np.empty((svd.sites, levels.size))
    orbitals[0::2] = svd.u[:, p]
    v = svd.vt[p]
    v *= np.where(below, -1.0, 1.0)[:, None]
    orbitals[1::2] = v.T
    orbitals *= 1.0 / np.sqrt(2.0)
    return _fix_phases(orbitals)


def orbitals_from_svd(svd: SublatticeSVD) -> np.ndarray:
    """All orbitals, sign-fixed, column k with the level ``svd.energies[k]``,
    on the sites the SVD holds: a (dim)^2 array for a full SVD, for the
    outputs that print orbitals."""
    return _orbitals(svd, np.arange(2 * svd.s.size))


def level_orbital(svd: SublatticeSVD, k: int) -> np.ndarray:
    """Column k of ``orbitals_from_svd(svd)``, bit for bit, built alone, so
    no square array is formed."""
    if not 0 <= k < 2 * svd.s.size:
        raise IndexError(f"level {k} outside [0, {2 * svd.s.size})")
    return _orbitals(svd, np.array([k]))[:, 0]


def occupied_from_svd(svd: SublatticeSVD) -> np.ndarray:
    """The occupied orbitals at half filling, straight from the sublattice
    SVD: column p is ``(u_p, -v_p)/sqrt(2)``, sign-fixed.

    Never forms the unoccupied half or any square array.  Raises
    ZeroModeError when a singular value is zero: the half-filled Slater
    state is then not unique (see ``entanglement.polar_block`` for the
    explicit filling policy).
    """
    count = 2 * int(np.count_nonzero(svd.s == 0))
    if count:
        raise ZeroModeError(
            f"{count} single-particle zero modes; "
            "half filling is ambiguous, choose an explicit filling policy"
        )
    return _orbitals(svd, np.arange(svd.s.size))


def site_occupations(occ: np.ndarray) -> np.ndarray:
    """Ground-state occupations <n_i> = sum_k |psi^k_i|^2 (real orbitals)."""
    occ = np.asarray(occ, dtype=float)
    return np.einsum("ik,ik->i", occ, occ)


def fermi_velocity(svd: SublatticeSVD) -> float:
    """Fermi velocity from the single gap across the Fermi point.

    The spectrum near the Fermi point is E_m = a(z) pi (m + 1/2) / (2L),
    so the gap between the first level above and the first below rescaled
    by 2L/pi estimates a(z) with the least band-curvature contamination;
    compare it with the closed form ``velocity_scaling(z)``.  L is the
    chain's, ``svd.s.size``, and the gap is the smallest pair's ``2 s``.
    """
    L = svd.s.size
    if L < 2:
        raise ValueError(f"need at least 4 levels, got {2 * L}")
    return float(2 * svd.s[-1] * 2 * L / np.pi)


def fermi_velocity_fit(svd: SublatticeSVD) -> float:
    """Cross-check: slope of E_m vs pi(m+1/2)/(2L) fitted over |m| <= 4,
    with the chain's L = ``svd.s.size``."""
    L = svd.s.size
    energies = svd.energies
    half = energies.size // 2
    if half <= 4:
        raise ValueError("need more than 4 levels per branch")
    ms = np.arange(-4, 5)
    x = np.pi * (ms + 0.5) / (2 * L)
    y = energies[half + ms]
    return float(np.dot(x, y) / np.dot(x, x))


def save_orbitals(orbitals: np.ndarray, path) -> None:
    """Binary dump: two little-endian uint64 (rows, cols), then the orbital
    matrix row-major as little-endian float64."""
    rows, cols = orbitals.shape
    with open(path, "wb") as fh:
        fh.write(np.asarray([rows, cols], dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(orbitals, dtype="<f8").tobytes())

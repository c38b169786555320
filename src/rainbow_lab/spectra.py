"""Exact single-particle spectra and Fermi-velocity extraction.

Every hopping matrix here is bipartite with zero diagonal (sublattices:
even/odd sites in 1D, the checkerboard in 2D), so it has the block form
``[[0, M], [M^T, 0]]`` in the sublattice basis.  Its eigenpairs follow
from the SVD ``M = U S V^T``: energies come in exact ``+-s`` pairs with
eigenvectors ``(u, +-v)/sqrt(2)``.

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
all.  The dense block of the 2D lattice goes to ``scipy.linalg.svd``
(gesdd), which is accurate only relative to its largest coupling: a
lattice whose couplings span more than ten decades raises NumericsError
instead of printing entropies it cannot resolve, and only levels within
rounding (ZERO_MODE_TOL) of zero count as its zero modes.

``chain_svd`` takes those bands straight from a ``CouplingProfile`` and
certifies the SVD with a residual taken on the bands; ``lattice_svd``
scatters the lattice's links straight into its dense block M.  Neither
forms the hopping matrix.  On both geometries site i is row ``i // 2``
of M when on sublattice 0 and column ``i // 2`` when on sublattice 1, so
an SVD keeps no site map, only each site's sublattice.  Entanglement
needs nothing more than their ``SublatticeSVD`` (see
``entanglement.polar_block``), and neither do the spectral outputs: the
levels are ``SublatticeSVD.energies``, the ``+-s`` pairs.  The outputs
that are orbitals assemble them from the same SVD, through one assembly
of the levels they ask for: ``occupied_from_svd`` the occupied columns
at half filling, ``orbitals_from_svd`` all levels and ``level_orbital``
one level.  The Fermi velocity (``fermi_velocity``,
``fermi_velocity_fit``) takes the SVD alone: a chain's half-length L is
``s.size``.

A mirror-symmetric chain has a smaller problem for its half chain:
``even_sector`` solves the L x L even-parity sector (one diagonal entry,
so symmetric tridiagonal rather than bidiagonal) with
``scipy.linalg.eigh_tridiagonal`` (its stevd driver, LAPACK's divide and
conquer ``dstedc``), checks its sign count against the one structure
fixes, and certifies the eigenpairs the readout reads with a band
residual.  Without relative accuracy it serves only chains of mild
grading (``FOLD_MAX_RATIO``); see ``entanglement.halfchain_nu``.

One BLAS per sweep point: numpy and SciPy each bundle their own OpenBLAS,
each with its own thread pool, and every solve here runs on SciPy's.  So
the dense products and factorizations of a point go through SciPy too
(``_dgemm``, ``scipy.linalg``); numpy keeps the elementwise work.  A numpy
product right after a solve wakes the second pool, and the two pools then
compete for the same cores.
"""

from __future__ import annotations

import ctypes
import re
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, cython_lapack

from .lattice import CouplingProfile, Lattice2D, lattice_links

RESIDUAL_TOL = 1e-10
# A dense block's level within this of its spectral radius (at least 1) is
# a zero mode: rounding level, so that no real level of a lattice short of
# the grading refusal is filled at 1/2 (``entanglement.polar_block``).
ZERO_MODE_TOL = 1e-14


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot certify its result."""


class ZeroModeError(NumericsError):
    """Half filling is ambiguous because single-particle zero modes exist."""


def velocity_scaling(z: float) -> float:
    """The deformed Fermi velocity a(z) = z / (e^z - 1); a(0) = 1."""
    if z < 0:
        raise ValueError(f"z must be non-negative, got {z!r}")
    if z < 1e-8:
        return 1.0 - z / 2.0 + z * z / 12.0
    return z / np.expm1(z)


_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_capsule_name = ctypes.pythonapi.PyCapsule_GetName
_capsule_name.argtypes = [ctypes.py_object]
_capsule_name.restype = ctypes.c_char_p
_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
_capsule_pointer.restype = ctypes.c_void_p


def _lapack(name: str, *argtypes):
    """LAPACK routine ``name`` from SciPy's Cython LAPACK table, as a ctypes
    function (ctypes releases the GIL for the duration of the call).

    The capsule name spells the C signature; it must match ``argtypes``
    exactly, so an ILP64 (64-bit integer) LAPACK fails here instead of
    corrupting memory later.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    spelled = {_CHAR: "char *", _INT: "int *", _DOUBLE: "double *"}
    want = "void (" + ", ".join(spelled[t] for t in argtypes) + ")"
    got = re.sub(r"__pyx_t_\w+_d \*", "double *", signature.decode())
    if got != want:
        raise ImportError(f"LAPACK {name} has signature {got!r}, expected {want!r}")
    address = _capsule_pointer(capsule, signature)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


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


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(_DOUBLE)


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray, graded: bool):
    """SVD ``B = U S V^T`` of the upper-bidiagonal B with diagonal d and
    superdiagonal e, returned as (V, s descending, U^T).

    Graded B goes to dbdsqr (Demmel-Kahan zero-shift QR, high relative
    accuracy); otherwise dbdsdc (Gu-Eisenstat divide and conquer).  These
    are the solvers LAPACK's dense SVD drivers call after reducing a dense
    matrix to bidiagonal form, a reduction that is the identity on B itself.
    """
    n = d.size
    s = np.array(d, dtype=float)  # overwritten with the singular values
    e_work = np.append(e, 0.0)  # length n, so never an empty buffer
    # LAPACK fills column-major n x n arrays; read back row-major, the
    # buffer holding U is U^T and the one holding V^T is V.
    u_buf = np.zeros((n, n))
    vt_buf = np.zeros((n, n))
    size = ctypes.c_int(n)
    info = ctypes.c_int(0)
    if graded:
        np.fill_diagonal(u_buf, 1.0)
        np.fill_diagonal(vt_buf, 1.0)
        work = np.empty(4 * n)
        _dbdsqr(
            b"U", size, size, size, ctypes.c_int(0), _ptr(s), _ptr(e_work),
            _ptr(vt_buf), size, _ptr(u_buf), size, None, ctypes.c_int(1),
            _ptr(work), info,
        )
    else:
        work = np.empty(3 * n * n + 4 * n)
        iwork = np.empty(8 * n, dtype=np.intc)
        _dbdsdc(
            b"U", b"I", size, _ptr(s), _ptr(e_work), _ptr(u_buf), size,
            _ptr(vt_buf), size, None, None, _ptr(work),
            iwork.ctypes.data_as(_INT), info,
        )
    if info.value:
        routine = "dbdsqr" if graded else "dbdsdc"
        raise np.linalg.LinAlgError(f"{routine} failed with info={info.value}")
    return vt_buf, s, u_buf


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
    return blas.dgemm(1.0, first, second, trans_a=trans_first, trans_b=trans_second).T


def _graded(*bands: np.ndarray) -> bool:
    """True when the nonzero couplings span more than ten decades, where
    divide and conquer no longer guarantees relative accuracy: a chain then
    takes dbdsqr, and a dense block is refused (``_dense_svd``)."""
    nz = np.abs(np.concatenate([b[b != 0.0] for b in bands]))
    return bool(nz.size) and float(nz.max() / nz.min()) > 1e10


def _certify(residual: float, radius: float) -> float:
    """NumericsError unless the eigen-residual is within RESIDUAL_TOL of the
    spectral radius."""
    if residual > RESIDUAL_TOL * max(radius, 1e-300):
        raise NumericsError(
            f"eigen-residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} x "
            f"spectral radius {radius:.3e}"
        )
    return residual


@dataclass(frozen=True)
class SublatticeSVD:
    """Certified SVD ``M = U S V^T`` of a bipartite hopping matrix's
    sublattice block.

    Site i sits on sublattice ``sublattice[i]`` (0 or 1) and is row
    ``i // 2`` of M (sublattice 0) or column ``i // 2`` (sublattice 1).
    That holds on both geometries solved here: the chain (sublattice
    ``i % 2``) and the 2L x 2L checkerboard, whose rows of even length each
    hold every other site of both sublattices.  ``s`` is descending.

    The hopping matrix's levels are ``energies`` (ascending), with orbitals
    ``(u_p, -+v_p)/sqrt(2)`` (``orbitals_from_svd``).  ``residual`` is the
    largest ``|H psi - E psi|`` over those orbitals.  ``zero_tol`` is the
    absolute threshold below which a level counts as a zero mode:
    bidiagonal SVDs (1D chains) carry relative accuracy, so only exact
    zeros qualify and zero_tol is 0; otherwise it is ZERO_MODE_TOL times
    the spectral radius (at least 1).
    """

    u: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    vt: np.ndarray = field(repr=False)
    residual: float
    zero_tol: float
    sublattice: np.ndarray = field(repr=False)

    @property
    def energies(self) -> np.ndarray:
        """All levels ``-s`` then ``+s``, ascending."""
        return np.concatenate([-self.s, self.s[::-1]])


def _chain_solve(d: np.ndarray, e: np.ndarray, sublattice) -> SublatticeSVD:
    """Certified SVD ``M = U S V^T`` of a chain's lower-bidiagonal block with
    diagonal d and subdiagonal e.  The SVD is relatively accurate, so only
    exact zeros are zero modes (zero_tol 0).

    The residual ``max(|M v - s u|, |M^T u - s v|)/sqrt(2)`` is that of the
    orbitals ``(u, +-v)/sqrt(2)``; it is taken on the two bands, so it
    costs O(n^2) and never forms M.
    """
    graded = _graded(d, e)
    try:
        u, s, vt = _bidiagonal_svd(d, e, graded)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericsError(f"SVD failed on dim {2 * d.size}: {exc}") from exc
    # row k of V^T M^T is (M v_k)^T: d * v_k plus e * v_k shifted by one site
    mv = vt * d
    mv[:, 1:] += vt[:, :-1] * e
    mv -= u.T * s[:, None]
    # M^T u_k: d * u_k plus e * u_k shifted back by one site
    mtu = u * d[:, None]
    mtu[:-1] += u[1:] * e[:, None]
    mtu -= vt.T * s
    residual = max(float(np.max(np.abs(mv))), float(np.max(np.abs(mtu))))
    residual = _certify(residual / np.sqrt(2.0), float(s[0]))
    return SublatticeSVD(u, s, vt, residual, 0.0, sublattice)


def _refuse_graded(couplings: np.ndarray, n_sites: int) -> None:
    """NumericsError when the couplings of a dense problem of n_sites sites
    span more than ten decades (``_graded``), where its SVD cannot resolve
    the small levels; a lattice's links J and its block's -J/2 span alike."""
    if _graded(couplings):
        raise NumericsError(
            f"dense block of dim {n_sites} has couplings spanning "
            "more than ten decades; its SVD cannot resolve the small levels"
        )


def _dense_svd(block: np.ndarray, sublattice) -> SublatticeSVD:
    """Certified SVD of a dense sublattice block through
    ``scipy.linalg.svd`` (gesdd, divide and conquer).  Zero modes are the
    levels within ZERO_MODE_TOL of the spectral radius (at least 1).

    A dense SVD is accurate only to rounding times the largest coupling,
    whatever its driver; relative accuracy belongs to the bidiagonal solve
    of a chain.  So a block whose couplings span more than ten decades
    (``_graded``), where the small levels that set its entropies are lost,
    raises NumericsError before any solve.
    """
    _refuse_graded(block, 2 * block.shape[0])
    try:
        u2, s, v2t = sla.svd(block.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericsError(f"SVD failed on dim {2 * block.shape[0]}: {exc}") from exc
    u, vt = v2t.T, u2.T
    # |H psi - E psi| of psi = (u, +-v)/sqrt(2), from the two half blocks
    residual = max(
        float(np.max(np.abs(_dgemm(block, vt.T) - u * s))),
        float(np.max(np.abs(_dgemm(block.T, u) - vt.T * s))),
    )
    residual = _certify(residual / np.sqrt(2.0), float(s[0]))
    zero_tol = ZERO_MODE_TOL * max(float(s[0]), 1.0)
    return SublatticeSVD(u, s, vt, residual, zero_tol, sublattice)


def chain_svd(profile: CouplingProfile) -> SublatticeSVD:
    """Certified sublattice SVD of a chain, straight from its couplings.

    ``M^T`` is upper bidiagonal with diagonal ``-c[0::2]/2`` and
    superdiagonal ``-c[1::2]/2`` (c the profile's couplings), so neither
    the hopping matrix nor the orbitals are ever built.  Row i of M is
    even site 2i, column j odd site 2j + 1.

    Raises NumericsError when the residual exceeds RESIDUAL_TOL relative to
    the spectral radius.
    """
    c = profile.couplings
    return _chain_solve(-c[0::2] / 2.0, -c[1::2] / 2.0, np.arange(profile.n_sites) % 2)


# Largest max/min coupling ratio at which a mirror-symmetric chain's left
# half is solved through its even-parity sector (``even_sector``).  The
# sector matrix has one diagonal entry, so it is not bidiagonal and has no
# relative-accuracy guarantee.  Against dbdsqr, up to this ratio and for
# L <= 1601, its half-chain S_1 stayed within 7.2e-13 and S_2..S_4 within
# 8.2e-14 (dbdsdc's: 6.2e-13 and 3.7e-14).  An S_n first passed 1e-12 at
# 7.9e4 (L = 1601); at 1e6 they reached 1.7e-12 (L = 800).
FOLD_MAX_RATIO = 1e4


def _folds(c: np.ndarray) -> bool:
    """True when the couplings c are bitwise mirror symmetric about the
    central link, nonzero, and span at most FOLD_MAX_RATIO."""
    a = np.abs(c)
    return (bool(np.array_equal(c, c[::-1])) and float(a.min()) > 0.0
            and float(a.max()) <= FOLD_MAX_RATIO * float(a.min()))


def even_sector(profile: CouplingProfile) -> tuple:
    """What the half-chain readout reads of a mirror-symmetric chain's
    even-parity sector, certified: (r, w, f), r the number of negative
    levels, w the levels of the smaller sign side (ascending) and f the
    last components, on site L-1, of their eigenvectors.

    Reflection about the central link maps site i to 2L-1-i.  A state even
    under it is fixed by its L left sites, where H acts as
    H+ = T_A + delta e e^T: T_A the left half's hopping and
    delta = -c[L-1]/2 the central link folded onto site L-1.  The odd
    sector is H- = T_A - delta e e^T = -Gamma H+ Gamma, Gamma = diag((-1)^i),
    so H+ alone carries the whole spectrum.  ``eigh_tridiagonal`` (dstedc)
    solves the L x L tridiagonal H+.

    r is fixed by structure: floor(L/2), plus one for odd L when
    delta < 0.  For even L, T_A has L/2 levels below zero, the rank-one
    term changes that count by at most one (interlacing), and
    det H+ = det T_A, since (T_A^-1)_{L-1,L-1} = 0 for a bipartite T_A,
    fixes its parity.  For odd L the term moves T_A's zero level, which
    lives on site L-1, to the sign of delta.  The computed levels must
    count r below zero and L - r above, so a level that rounding puts on
    the wrong side, or at exactly zero, raises NumericsError instead of
    misfiling a pair.  The side's eigenpairs, the only ones read, are
    certified by the residual max |H+ q - w q| on their rows, taken on the
    bands.

    ValueError unless the couplings are bitwise mirror symmetric;
    NumericsError on a sign count other than r, or when the residual
    exceeds RESIDUAL_TOL relative to the spectral radius.
    """
    c = profile.couplings
    if not np.array_equal(c, c[::-1]):
        raise ValueError("even_sector needs couplings mirror symmetric about the center")
    L = profile.L
    d = np.zeros(L)
    d[-1] = -c[L - 1] / 2.0
    e = -c[: L - 1] / 2.0
    try:
        w, q = sla.eigh_tridiagonal(d, e, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericsError(f"sector solve failed on dim {L}: {exc}") from exc
    r = L // 2 + int(L % 2 == 1 and d[-1] < 0.0)
    # w ascends, so r negative and L - r positive levels is w[r-1] < 0 < w[r]
    if (r > 0 and not w[r - 1] < 0.0) or (r < L and not w[r] > 0.0):
        raise NumericsError(
            f"sector sign count: {np.count_nonzero(w < 0.0)} levels below zero "
            f"and {np.count_nonzero(w == 0.0)} at zero, where H+ has {r} below "
            "and none at zero"
        )
    side = slice(0, r) if 2 * r <= L else slice(r, L)
    qt = q[:, side].T
    # row k of (H+ - w_k) Q_s^T: the diagonal part, then e times each neighbour
    hq = qt * (d - w[side, None])
    hq[:, 1:] += qt[:, :-1] * e
    hq[:, :-1] += qt[:, 1:] * e
    residual = max(float(hq.max(initial=0.0)), -float(hq.min(initial=0.0)))
    _certify(residual, max(-float(w[0]), float(w[-1])))
    return r, w[side], q[-1, side].copy()


def lattice_svd(lat: Lattice2D) -> SublatticeSVD:
    """Certified sublattice SVD of the 2D lattice (sublattice the
    checkerboard), from the (2L^2)^2 block M scattered straight from the
    link arrays; no (4L^2)^2 hopping matrix is formed.

    Raises NumericsError when the residual exceeds RESIDUAL_TOL relative to
    the spectral radius.
    """
    i, j, J = lattice_links(lat.L, lat.alpha)
    sub = lat.checkerboard()
    rows = np.where(sub[i] == 0, i, j)
    cols = np.where(sub[i] == 0, j, i)
    block = np.zeros((lat.n_sites // 2, lat.n_sites // 2))
    block[rows // 2, cols // 2] = -J / 2.0
    return _dense_svd(block, sub)


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
    u_p on the sites of sublattice 0 and v_p on those of sublattice 1.
    """
    n = svd.s.size
    below = levels < n
    p = np.where(below, levels, 2 * n - 1 - levels)
    orbitals = np.empty((2 * n, levels.size))
    orbitals[svd.sublattice == 0] = svd.u[:, p]
    v = svd.vt[p]
    v *= np.where(below, -1.0, 1.0)[:, None]
    orbitals[svd.sublattice == 1] = v.T
    orbitals *= 1.0 / np.sqrt(2.0)
    return _fix_phases(orbitals)


def orbitals_from_svd(svd: SublatticeSVD) -> np.ndarray:
    """All orbitals, sign-fixed, column k with the level ``svd.energies[k]``;
    a (dim)^2 array, for the outputs that print orbitals."""
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
    ZeroModeError when singular values sit within ``svd.zero_tol`` of zero:
    the half-filled Slater state is then not unique (see
    ``entanglement.polar_block`` for the explicit filling policy).
    """
    count = 2 * int(np.count_nonzero(svd.s <= svd.zero_tol))
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
    chain's, ``svd.s.size``.
    """
    L = svd.s.size
    energies = svd.energies
    if energies.size < 4:
        raise ValueError(f"need at least 4 levels, got {energies.size}")
    half = energies.size // 2
    gap = energies[half] - energies[half - 1]
    return float(gap * 2 * L / np.pi)


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


def load_orbitals(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = np.frombuffer(fh.read(16), dtype="<u8")
        rows, cols = int(head[0]), int(head[1])
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).copy()

"""Closed-form continuum predictions for the deformed chain.

Levels are indexed relative to the Fermi point: m = 0 is the first
single-particle level above it, m = -1 the first below, so the exact
eigenvector matching analytic level m is column ``L + m`` of the
ascending spectrum of a 2L-site chain.

The closed-form wavefunction lives in one vectorized core that samples
any set of levels at any set of sites in a single broadcast
(``_level_samples``): ``analytic_wavefunction`` asks it for one level on
all 2L sites and returns that level's unit vector, and
``validity_overlap`` asks for all L occupied levels on the L left sites.
It compares that continuum state with the exact ground state of one
chain, whose occupied orbitals come straight from the chain's sublattice
SVD (``spectra.occupied_from_svd``), so neither side builds a hopping
matrix or loops over levels.  The chain is mirror symmetric about its
central link, and so is every orbital of both states, up to a sign: the
overlap is a product of two determinants, one per mirror parity, each
taken on the L left sites.  In each sector the continuum state's orbitals
are the Q factor of the analytic levels' QR, and Q is never formed: the
overlap needs only Q^T applied to the exact orbitals.  Sweeping it over
an (L, z) grid is the caller's loop (the CLI's validity-map), and
``overlap_crossing`` reads off one L's row of overlaps the z where the
overlap drops through a level.

Each validity-map point keeps to one BLAS, SciPy's, which the chain solve
already runs on (the rule of ``spectra``): each sector's QR and its
application, Gram product and LU go through SciPy's compiled LAPACK and
BLAS (the recursive, blocked ``dgeqrt`` and ``dgemqrt``, ``dgemm``,
``dgetrf``), and numpy keeps the elementwise work.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import _check, _flapack
from .lattice import profile_from_z, site_labels
from .spectra import RESIDUAL_TOL, NumericsError, _dgemm, chain_svd, occupied_from_svd


def _expm1_over_h(h: float, x) -> np.ndarray | float:
    """(e^{h x} - 1)/h, and its limit x at h = 0.

    x is also the value for |h| below the smallest normal float: there
    e^{hx} - 1 is hx to the last bit, and a subnormal product h x would
    have lost its relative precision (all of it at h = 5e-324).
    """
    x = np.asarray(x, dtype=float)
    out = np.expm1(h * x) / h if abs(h) >= np.finfo(float).tiny else x
    return out if out.shape else float(out)


def deformed_length(h: float, L: float) -> float:
    """tilde_L = (e^{hL} - 1)/h, the deformed half-length; equals L at h=0.

    ValueError for h < 0 and for a non-finite h; NumericsError where it
    overflows (hL near 709.78 or above), since every phase that divides by
    tilde_L would then read 0.
    """
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h must be finite and non-negative, got {h!r}")
    length = float(_expm1_over_h(h, L))
    if length == math.inf:
        raise NumericsError(f"(e^(hL) - 1)/h overflows at h = {h!r}, L = {L!r}")
    return length


def _level_samples(ms: np.ndarray, h: float, L: int, ns: np.ndarray) -> np.ndarray:
    """The continuum levels `ms` sampled at the site labels `ns`, one row
    per level, before normalization, all in one broadcast:
    e^{h|n|/2} cos(phase), the formula ``analytic_wavefunction`` states."""
    absn = np.abs(ns)
    ms = np.asarray(ms)[:, None]
    ratio = np.asarray(_expm1_over_h(h, absn)) / deformed_length(h, L)
    phase = np.pi * (ns - ms) / 2.0 + np.sign(ns) * (np.pi * (ms + 0.5) / 2.0) * ratio
    return np.exp(h * absn / 2.0) * np.cos(phase)


def _unit_rows(v: np.ndarray, norms: np.ndarray, h: float, L: int) -> np.ndarray:
    """v's rows divided by their norms (a column).

    NumericsError when a row norm overflows: sum_n e^(h|n|) can pass the
    float range while tilde_L is still finite (small h, L of a few hundred
    and up, hL just short of 709.78), and every row would then read 0."""
    if not np.isfinite(norms).all():
        raise NumericsError(f"continuum row norms overflow at h = {h!r}, L = {L!r}")
    return v / norms


def _analytic_levels(ms: np.ndarray, h: float, L: int) -> np.ndarray:
    """Unit-norm continuum eigenfunctions of the levels `ms` on the 2L
    lattice sites, one row per level, all in one broadcast."""
    v = _level_samples(ms, h, L, site_labels(L))
    # row norms from a stack of (1 x n)(n x 1) products: each is the dot
    # np.linalg.norm takes of one level, so a row does not depend on which
    # other levels share the call and the wavefunction artifact keeps its bits
    norms = np.sqrt(v[:, None, :] @ v[:, :, None])[:, :, 0]
    return _unit_rows(v, norms, h, L)


def analytic_wavefunction(m: int, h: float, L: int) -> np.ndarray:
    """Continuum eigenfunction of level m on the 2L lattice sites, a unit
    vector.

    psi_n ~ e^{h|n|/2} cos[ pi(n-m)/2
                            + sign(n) (pi(m+1/2)/2) (e^{h|n|}-1)/(e^{hL}-1) ].

    Accurate for |m| << L; deep levels vary on the lattice scale and are
    not captured (their overlap with the exact orbital falls).  Its mirror
    parity is (-1)^m: psi_{-n} = (-1)^m psi_n.
    """
    return _analytic_levels(np.array([m]), h, L)[0]


def _sector_block(levels: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """C^T = B^T Q of one mirror-parity sector, certified: `levels` holds
    the sector's analytic levels as unit rows and `exact` (B, C-ordered)
    its exact orbitals as unit columns, both on the L left sites.

    When the two counts agree, dgeqrt factors the analytic block A =
    levels^T in place and dgemqrt applies its Q to B, as B^T Q on B's
    transpose, overwriting it; C's top rows are then Q_A^T B.  When they
    differ the sector's determinant is 0 and C^T is B^T itself.  Either
    way C^T C = B^T B, and ValueError is raised unless
    ||C^T C - I||_F <= 1e-8 (the tolerance slater_amplitudes puts on a
    state's norm; NaN fails).  The norm is an elementwise sum: a BLAS dot
    on numpy's library would wake its thread pool."""
    ct = exact.T
    if levels.shape[0] == ct.shape[0]:
        v, t, info = _flapack.dgeqrt(min(32, levels.shape[0]), levels.T, overwrite_a=1)
        _check("dgeqrt", info)
        ct, info = _flapack.dgemqrt(v, t, ct, side="R", overwrite_c=1)
        _check("dgemqrt", info)
    gram = _dgemm(ct, ct.T)
    gram[np.diag_indices_from(gram)] -= 1.0
    if not np.sum(gram * gram) <= 1e-16:
        raise ValueError("exact orbital set is not orthonormal in a mirror-parity sector "
                         "(||C^T C - I||_F > 1e-8)")
    return ct


def validity_overlap(L: int, z: float) -> float:
    """Many-body overlap |det(Q_a^T B)| of the continuum and exact ground
    states of the 2L-site chain at deformation z, which quantifies where
    the continuum holds.

    B (2L x L) holds the exact occupied orbitals, and Q_a the continuum's:
    the orthonormalized analytic levels m = -L..-1.  The chain is mirror
    symmetric about its central link, so every orbital of either set is
    even or odd under the mirror, and the even and odd ones are orthogonal:
    Q_a^T B splits into one block per parity and the overlap is
    |det(Q_+^T B_+)| |det(Q_-^T B_-)|, each factor on the L left sites
    (Cantoni & Butler, Linear Algebra Appl. 13 (1976) 275).  B_+- holds
    sqrt(2) times the left-half rows of the exact orbitals p = 0, 2, ..
    and 1, 3, .. (parity (-1)^p), and Q_+- orthonormalizes the left-half
    analytic levels of even and of odd m, by the QR that
    ``_sector_block`` applies to B_+- without forming Q.

    The exact orbitals come from the full chain solve, and their parity is
    certified, not assumed: NumericsError unless
    |phi_p(2L-1-i) - (-1)^p phi_p(i)| <= RESIDUAL_TOL for every p and every
    site i.  Past ``lattice.UNDERFLOW_FLOOR`` (z of about 645 and up) the
    outer links are numerically decoupled and their orbitals degenerate;
    the solve can mix those across the mirror (from z = 680 at L = 300,
    709 at L = 50), and the overlap is then refused, not taken on a state
    the chain does not fix.
    Each sector's Gram certifies its B (``_sector_block``; ValueError).
    Then each square sector's determinant is dgetrf's on its block, read as
    its transpose; an exact zero pivot returns 0.  For odd L the sectors
    are not square: the exact state has one more even orbital than the
    continuum's (ROADMAP item 13), and the overlap is exactly 0.0,
    returned once both B_+- are certified.
    """
    exact = occupied_from_svd(chain_svd(profile_from_z(L, z)))
    # no finiteness scan of the levels: deformed_length refuses a tilde_L
    # that overflows, and the exact solve, first, an underflowed chain.
    # The even levels m come first, the L // 2 of them, then the odd ones,
    # so each sector's rows are one C-ordered block whose transpose dgeqrt
    # factors in place.  Each row is scaled to unit norm on the L left sites
    # (sqrt(2) times the unit level's left half, up to rounding) by an
    # elementwise sum, so no numpy BLAS runs
    ms = np.arange(-L, 0)
    v = _level_samples(np.concatenate((ms[L % 2::2], ms[1 - L % 2::2])), z / L, L,
                       site_labels(L)[:L])
    levels = _unit_rows(v, np.sqrt(np.sum(v * v, axis=1))[:, None], z / L, L)
    # after the levels, so that an overflowed tilde_L is refused as such;
    # row L + j faces row L - 1 - j across the central link
    parity = np.where(np.arange(L) % 2, -1.0, 1.0)
    broken = float(np.max(np.abs(exact[L:] - parity * exact[L - 1::-1])))
    if not broken <= RESIDUAL_TOL:
        raise NumericsError(f"exact orbitals break mirror parity by {broken:.3e}")
    blocks = [_sector_block(levels[: L // 2], exact[:L, 0::2] * math.sqrt(2.0)),
              _sector_block(levels[L // 2 :], exact[:L, 1::2] * math.sqrt(2.0))]
    if L % 2:
        return 0.0
    log_det = 0.0
    for ct in blocks:
        lu, _, info = _flapack.dgetrf(ct[:, : ct.shape[0]], overwrite_a=1)
        if info > 0:  # an exact zero pivot: the determinant is 0
            return 0.0
        _check("dgetrf", info)
        log_det += float(np.sum(np.log(np.abs(np.diag(lu)))))
    return math.exp(log_det)


def overlap_crossing(z_values, overlaps, level: float) -> float:
    """First z where one L's overlap row drops through `level`, linearly
    interpolated; NaN when it is not crossed inside the scanned z range."""
    for k in range(1, len(z_values)):
        if overlaps[k - 1] >= level > overlaps[k]:
            t = (level - overlaps[k - 1]) / (overlaps[k] - overlaps[k - 1])
            return float(z_values[k - 1] + t * (z_values[k] - z_values[k - 1]))
    return math.nan

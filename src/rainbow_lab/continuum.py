"""Closed-form continuum predictions for the deformed chain.

Levels are indexed relative to the Fermi point: m = 0 is the first
single-particle level above it, m = -1 the first below, so the exact
eigenvector matching analytic level m is column ``L + m`` of the
ascending spectrum of a 2L-site chain.

The closed-form wavefunction lives in one vectorized core that samples
any set of levels in a single broadcast: ``analytic_wavefunction`` asks
it for one level and returns that level's unit vector, and
``validity_overlap`` asks for all L occupied levels at once.  It compares
that continuum state with the exact ground state of one chain, whose
occupied orbitals come straight from the chain's sublattice SVD
(``spectra.occupied_from_svd``), so neither side builds a hopping matrix
or loops over levels.  The continuum state's orbitals are the Q factor of
the analytic levels' QR, and Q is never formed: the overlap needs only
Q^T applied to the exact orbitals.  Sweeping it over an (L, z) grid is
the caller's loop (the CLI's validity-map), and ``overlap_crossing``
reads off one L's row of overlaps the z where the overlap drops through a
level.

Each validity-map point keeps to one BLAS, SciPy's, which the chain solve
already runs on (the rule of ``spectra``): the QR and its application, the
Gram product and the LU of the overlap go through SciPy's compiled LAPACK
and BLAS (the recursive, blocked ``dgeqrt`` and ``dgemqrt``, ``dgemm``,
``dgetrf``), and numpy keeps the elementwise work.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import _check, _flapack
from .lattice import profile_from_z, site_labels
from .spectra import NumericsError, _dgemm, chain_svd, occupied_from_svd

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


def _analytic_levels(ms: np.ndarray, h: float, L: int) -> np.ndarray:
    """Unit-norm continuum eigenfunctions of the levels `ms` on the 2L
    lattice sites, one row per level, all in one broadcast.

    NumericsError when a row norm overflows: sum_n e^(h|n|) can pass the
    float range while tilde_L is still finite (small h, L of a few hundred
    and up, hL just short of 709.78), and every row would then read 0."""
    ns = site_labels(L)
    absn = np.abs(ns)
    ms = np.asarray(ms)[:, None]
    ratio = np.asarray(_expm1_over_h(h, absn)) / deformed_length(h, L)
    phase = np.pi * (ns - ms) / 2.0 + np.sign(ns) * (np.pi * (ms + 0.5) / 2.0) * ratio
    v = np.exp(h * absn / 2.0) * np.cos(phase)
    # row norms from a stack of (1 x n)(n x 1) products: each is the dot
    # np.linalg.norm takes of one level, so a row does not depend on which
    # other levels share the call.  validity_overlap needs that: its
    # columns are near-dependent past z ~ 1, and QR turns one-ulp changes
    # of them into O(1) changes of Q.
    norms = np.sqrt(v[:, None, :] @ v[:, :, None])[:, :, 0]
    if not np.isfinite(norms).all():
        raise NumericsError(f"continuum row norms overflow at h = {h!r}, L = {L!r}")
    return v / norms


def analytic_wavefunction(m: int, h: float, L: int) -> np.ndarray:
    """Continuum eigenfunction of level m on the 2L lattice sites, a unit
    vector.

    psi_n ~ e^{h|n|/2} cos[ pi(n-m)/2
                            + sign(n) (pi(m+1/2)/2) (e^{h|n|}-1)/(e^{hL}-1) ].

    Accurate for |m| << L; deep levels vary on the lattice scale and are
    not captured (their overlap with the exact orbital falls).
    """
    return _analytic_levels(np.array([m]), h, L)[0]


def validity_overlap(L: int, z: float) -> float:
    """Many-body overlap |det(Q_a^T B)| of the continuum and exact ground
    states of the 2L-site chain at deformation z, which quantifies where
    the continuum holds.

    B (2L x L) holds the exact occupied orbitals, and Q_a the continuum's:
    the orthonormalized analytic levels m = -L..-1, the first L columns of
    the orthogonal Q of their QR.  Q is never formed.  dgeqrt factors the
    analytic columns in place, and dgemqrt applies Q to B, as B^T Q on B's
    transpose, overwriting it; the top L rows of C = Q^T B are Q_a^T B.

    Since Q is orthogonal, C^T C = B^T B: C has orthonormal columns exactly
    when B has, and Q_a is orthonormal by construction.  So one Gram,
    ||C^T C - I||_F <= 1e-8 (the tolerance slater_amplitudes puts on a
    state's norm; NaN fails), certifies both states, and ValueError is
    raised when it fails.  The norm is an elementwise sum: a BLAS dot on
    numpy's library would wake its thread pool.  The determinant is
    dgetrf's on C's top L x L block, read as its transpose; an exact zero
    pivot returns 0.
    """
    exact = occupied_from_svd(chain_svd(profile_from_z(L, z)))
    # no finiteness scan of the levels: deformed_length refuses a tilde_L
    # that overflows, and the exact solve, first, an underflowed chain
    levels = _analytic_levels(np.arange(-L, 0), z / L, L)
    # both are C-ordered, so their transposes are F-ordered and f2py works
    # on them in place: levels.T is the 2L x L analytic block A, and
    # exact.T becomes C^T = B^T Q, L x 2L
    v, t, info = _flapack.dgeqrt(min(32, L), levels.T, overwrite_a=1)
    _check("dgeqrt", info)
    ct, info = _flapack.dgemqrt(v, t, exact.T, side="R", overwrite_c=1)
    _check("dgemqrt", info)
    gram = _dgemm(ct, ct.T)
    gram[np.diag_indices_from(gram)] -= 1.0
    if not np.sum(gram * gram) <= 1e-16:
        raise ValueError("exact orbital set is not orthonormal (||C^T C - I||_F > 1e-8)")
    lu, _, info = _flapack.dgetrf(ct[:, :L], overwrite_a=1)
    if info > 0:  # an exact zero pivot: the determinant is 0
        return 0.0
    _check("dgetrf", info)
    return float(np.exp(np.sum(np.log(np.abs(np.diag(lu))))))


def overlap_crossing(z_values, overlaps, level: float) -> float:
    """First z where one L's overlap row drops through `level`, linearly
    interpolated; NaN when it is not crossed inside the scanned z range."""
    for k in range(1, len(z_values)):
        if overlaps[k - 1] >= level > overlaps[k]:
            t = (level - overlaps[k - 1]) / (overlaps[k] - overlaps[k - 1])
            return float(z_values[k - 1] + t * (z_values[k] - z_values[k - 1]))
    return math.nan
